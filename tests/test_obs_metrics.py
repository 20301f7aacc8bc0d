"""Unit tests for the observability primitives (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import LogHistogram, MetricsRegistry, ObsEvent


class TestLogHistogramPercentile:
    def test_p0_returns_tracked_minimum(self):
        """Regression: p=0 used to return the lowest occupied bucket's
        *upper bound*, which can exceed an observed sample."""
        h = LogHistogram()
        h.record(3.0)   # bucket 2 -> upper bound 4.0
        h.record(100.0)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(0.0) <= h.min

    def test_p100_returns_top_bucket_bound(self):
        h = LogHistogram()
        for v in (3.0, 5.0, 100.0):
            h.record(v)
        # 100 lands in bucket 7 -> upper bound 128
        assert h.percentile(100.0) == 128.0

    def test_top_bucket_path_has_no_dead_fallback(self):
        """Any percentile past the second-to-last edge resolves to the
        top bucket's bound (the old float-slack fallback was dead code)."""
        h = LogHistogram()
        h.record(2.0)    # bucket 1
        h.record(60.0)   # bucket 6
        # p75 -> target 1.5 samples: past bucket 1, lands in the top bucket
        assert h.percentile(75.0) == 64.0

    def test_single_bucket_all_percentiles_agree(self):
        h = LogHistogram()
        h.record(7.0)
        assert h.percentile(0.0) == 7.0
        assert h.percentile(50.0) == 8.0
        assert h.percentile(100.0) == 8.0

    def test_mid_percentile_conservative_bound(self):
        h = LogHistogram()
        for v in (1.0, 2.0, 4.0, 8.0):
            h.record(v)
        assert h.percentile(50.0) == 2.0

    def test_empty_and_range_checks(self):
        h = LogHistogram()
        assert h.percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            h.percentile(-1.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)


class TestAdaptEventAccounting:
    def test_adapt_events_count_by_action(self):
        reg = MetricsRegistry()
        for action in ("drift", "explore", "retune", "retune", "probation"):
            reg.observe(
                ObsEvent(
                    kind="adapt",
                    rank=0,
                    stream="",
                    backend="nccl",
                    family=action,
                    nbytes=1 << 20,
                    step=-1,
                    start=0.0,
                    end=0.0,
                    detail="test",
                )
            )
        assert reg.counters["tuning.adapt.drift"] == 1
        assert reg.counters["tuning.adapt.retune"] == 2
        assert reg.counters["tuning.adapt.probation"] == 1


class TestSharedRegistryAcrossRuns:
    def run_twice(self):
        from repro.cluster import lassen
        from repro.models import BackendPlan, DSMoEModel, Trainer

        reg = MetricsRegistry()
        results = []
        for _ in range(2):
            results.append(
                Trainer(lassen(), steps=1, warmup=1, trace=True, metrics=reg).run(
                    DSMoEModel(), 8, BackendPlan.mixed(label="MCR-DL")
                )
            )
        return reg, results

    def test_plan_counters_match_plan_events(self):
        """Two training runs on one registry: every ``comm.plan.*``
        counter equals the summed counts of its ``kind="plan"`` events.
        Run 2's warm-up reset used to drop run 1's plan counters while
        keeping run 1's plan events."""
        reg, _ = self.run_twice()
        plan_sums: dict = {}
        for e in reg.events:
            if e.kind == "plan":
                key = f"comm.plan.{e.detail}"
                plan_sums[key] = plan_sums.get(key, 0) + e.nbytes
        assert plan_sums
        counters = {k: v for k, v in reg.counters.items() if k.startswith("comm.plan.")}
        assert counters == plan_sums

    def test_each_run_views_only_its_own_events(self):
        reg, (first, second) = self.run_twice()
        assert first.busy_by_category == second.busy_by_category
        assert first.comm_by_family == second.comm_by_family
        for kind, views in (
            ("trace", (first.tracer, second.tracer)),
            ("comm", (first.comm_log, second.comm_log)),
        ):
            a, b = (v.records for v in views)
            assert a and len(a) == len(b)
            assert not {id(e) for e in a} & {id(e) for e in b}
            assert len(a) + len(b) == sum(e.kind == kind for e in reg.events)
