"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import datapath
from repro.backends.cost import CostParams, evaluate, ALGORITHMS
from repro.backends.ops import ReduceOp
from repro.core.tuning import TuningTable, message_bucket
from repro.ext.compression import BLOCK_ELEMS, FixedRateCodec
from repro.sim.graph import apply_wire_lane
from repro.sim.trace import Tracer

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
)


class TestDatapathProperties:
    @given(
        p=st.integers(2, 8),
        n=st.integers(1, 64),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_allreduce_sum_equals_numpy_sum(self, p, n, data):
        ins = [
            np.array(data.draw(st.lists(finite_f32, min_size=n, max_size=n)), dtype=np.float32)
            for _ in range(p)
        ]
        outs = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        datapath.all_reduce(ins, outs, ReduceOp.SUM)
        expected = np.sum(np.stack(ins), axis=0, dtype=np.float32)
        for out in outs:
            assert np.allclose(out, expected, rtol=1e-4, atol=1e-3)

    @given(p=st.integers(2, 8), chunk=st.integers(1, 16), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_alltoall_twice_is_identity(self, p, chunk, seed):
        rng = np.random.default_rng(seed)
        ins = [rng.random(p * chunk).astype(np.float32) for _ in range(p)]
        mid = [np.zeros(p * chunk, dtype=np.float32) for _ in range(p)]
        out = [np.zeros(p * chunk, dtype=np.float32) for _ in range(p)]
        datapath.all_to_all_single(ins, mid)
        datapath.all_to_all_single(mid, out)
        for a, b in zip(ins, out):
            assert np.array_equal(a, b)

    @given(p=st.integers(2, 6), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_allgatherv_places_every_contribution(self, p, seed, data):
        counts = data.draw(st.lists(st.integers(0, 8), min_size=p, max_size=p))
        displs = list(np.cumsum([0] + counts[:-1]))
        total = sum(counts)
        rng = np.random.default_rng(seed)
        ins = [rng.random(max(c, 1)).astype(np.float32) for c in counts]
        outs = [np.zeros(max(total, 1), dtype=np.float32) for _ in range(p)]
        datapath.all_gather_v(ins, outs, counts, displs)
        for out in outs:
            for i, c in enumerate(counts):
                assert np.array_equal(out[displs[i] : displs[i] + c], ins[i][:c])

    @given(p=st.integers(2, 8), chunk=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_matches_allreduce_slice(self, p, chunk, seed):
        rng = np.random.default_rng(seed)
        n = p * chunk
        ins = [rng.random(n).astype(np.float32) for _ in range(p)]
        rs_out = [np.zeros(chunk, dtype=np.float32) for _ in range(p)]
        datapath.reduce_scatter([a.copy() for a in ins], rs_out, ReduceOp.SUM)
        ar_out = [np.zeros(n, dtype=np.float32) for _ in range(p)]
        datapath.all_reduce([a.copy() for a in ins], ar_out, ReduceOp.SUM)
        for r in range(p):
            assert np.allclose(rs_out[r], ar_out[r][r * chunk : (r + 1) * chunk], rtol=1e-5)

    @given(
        p=st.integers(2, 8),
        op=st.sampled_from([ReduceOp.MIN, ReduceOp.MAX]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_minmax_result_is_elementwise_extreme(self, p, op, seed):
        rng = np.random.default_rng(seed)
        ins = [rng.normal(size=8).astype(np.float32) for _ in range(p)]
        outs = [np.zeros(8, dtype=np.float32) for _ in range(p)]
        datapath.all_reduce(ins, outs, op)
        stack = np.stack(ins)
        expected = stack.min(axis=0) if op is ReduceOp.MIN else stack.max(axis=0)
        assert np.array_equal(outs[0], expected)


class TestCostProperties:
    @given(
        algo=st.sampled_from(sorted(ALGORITHMS)),
        p=st.integers(1, 512),
        n=st.integers(0, 1 << 26),
        alpha=st.floats(0.1, 50.0),
        beta=st.floats(1e-6, 1e-3),
    )
    @settings(max_examples=120, deadline=None)
    def test_costs_nonnegative_and_finite(self, algo, p, n, alpha, beta):
        cost = evaluate(algo, CostParams(alpha, beta, p, n))
        assert cost >= 0.0
        assert np.isfinite(cost)

    @given(
        algo=st.sampled_from(sorted(ALGORITHMS)),
        p=st.integers(2, 128),
        n=st.integers(1, 1 << 22),
    )
    @settings(max_examples=60, deadline=None)
    def test_costs_monotone_in_alpha_and_beta(self, algo, p, n):
        low = evaluate(algo, CostParams(1.0, 1e-5, p, n))
        hi_alpha = evaluate(algo, CostParams(2.0, 1e-5, p, n))
        hi_beta = evaluate(algo, CostParams(1.0, 2e-5, p, n))
        assert hi_alpha >= low
        assert hi_beta >= low


class TestTuningTableProperties:
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["allreduce", "alltoall", "allgather"]),
                st.sampled_from([2, 4, 8, 16, 32]),
                st.integers(1, 1 << 24),
                st.sampled_from(["nccl", "mvapich2-gdr", "msccl"]),
            ),
            min_size=1,
            max_size=32,
        ),
        q_op=st.sampled_from(["allreduce", "alltoall", "allgather"]),
        q_ws=st.integers(1, 64),
        q_bytes=st.integers(1, 1 << 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_total_and_closed(self, entries, q_op, q_ws, q_bytes):
        table = TuningTable()
        for op, ws, nbytes, backend in entries:
            table.add(op, ws, nbytes, backend)
        result = table.lookup(q_op, q_ws, q_bytes)
        tuned_ops = {op for op, *_ in entries}
        if q_op in tuned_ops:
            assert result in {"nccl", "mvapich2-gdr", "msccl"}
        else:
            assert result is None

    @given(nbytes=st.integers(0, 1 << 30))
    @settings(max_examples=60, deadline=None)
    def test_message_bucket_is_power_of_two(self, nbytes):
        bucket = message_bucket(nbytes)
        assert bucket >= 1
        assert bucket & (bucket - 1) == 0

    @given(msg=st.integers(1, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_identity(self, msg):
        import os
        import tempfile

        table = TuningTable(system="s")
        table.add("allreduce", 4, msg, "nccl")
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.json")
            table.save(path)
            loaded = TuningTable.load(path)
        assert loaded.entries == table.entries


class TestCodecProperties:
    @given(
        rate=st.integers(4, 12),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 1024),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantization_error_within_bound(self, rate, seed, n):
        codec = FixedRateCodec(rate_bits=rate)
        rng = np.random.default_rng(seed)
        data = (rng.normal(size=n) * 10).astype(np.float32)
        original = data.copy()
        codec.apply_quantization_error(data)
        pad = -(-n // BLOCK_ELEMS) * BLOCK_ELEMS
        padded = np.zeros(pad)
        padded[:n] = original
        blocks = padded.reshape(-1, BLOCK_ELEMS)
        bounds = np.abs(blocks).max(axis=1) * codec.max_relative_error() + 1e-6
        err_padded = np.zeros(pad)
        err_padded[:n] = np.abs(data - original)
        assert np.all(err_padded.reshape(-1, BLOCK_ELEMS) <= bounds[:, None])

    @given(nbytes=st.integers(4, 1 << 24), rate=st.integers(2, 16))
    @settings(max_examples=60, deadline=None)
    def test_compressed_always_smaller_for_fp32(self, nbytes, rate):
        codec = FixedRateCodec(rate_bits=rate)
        if rate <= 16:
            # payload bits + block scales must stay below 32 bits/elem
            assert codec.compressed_nbytes(nbytes) < nbytes + BLOCK_ELEMS * 4


class TestWireLaneProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.floats(0.0, 1000.0),
                st.floats(0.1, 500.0),
            ),
            min_size=1,
            max_size=20,
        ),
        interference=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lane_tails_monotone_and_starts_admissible(self, ops, interference):
        store: dict = {}
        prev_tail = {"a": 0.0, "b": 0.0}
        for lane, ready, duration in ops:
            start = apply_wire_lane(store, lane, ready, duration, interference)
            assert start >= ready
            assert start >= prev_tail[lane]  # same-lane FIFO
            prev_tail[lane] = start + duration
            assert store[lane] == start + duration


class TestTracerProperties:
    @given(
        spans=st.lists(
            st.tuples(st.floats(0, 1000), st.floats(0.1, 100)),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_busy_time_bounds(self, spans):
        tracer = Tracer()
        for start, dur in spans:
            tracer.record(0, "s", "x", "c", start, start + dur)
        recs = tracer.records
        busy = tracer.busy_time(recs)
        total = sum(r.duration for r in recs)
        assert 0 <= busy <= total + 1e-9
        if recs:
            longest = max(r.duration for r in recs)
            assert busy >= longest - 1e-9
