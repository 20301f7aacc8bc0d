"""Golden pin for the observability exports of ``repro train``.

One faulted DS-MoE training run through the CLI writes a Chrome trace
(``--trace``) and a metrics dump (``--metrics``); ``repro trace`` then
renders the saved trace.  ``tests/golden/obs_exports.json`` pins:

* the SHA-256 of the trace file bytes;
* the SHA-256 of the metrics JSON, re-serialized the way
  ``save_metrics`` writes it, with the ``comm_log`` key dropped;
* the SHA-256 of the ``repro trace`` stdout;
* the ``fault_events`` the train command prints.

Any change to what the exporters emit shows up here.  To regenerate
after an *intentional* export change::

    PYTHONPATH=src python tests/test_obs_golden.py --regen

and review what changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "obs_exports.json"

TRAIN_ARGS = [
    "train", "--model", "ds-moe", "--system", "lassen", "--world", "8",
    "--steps", "1", "--warmup", "1",
    "--faults", "seed=3;backend=nccl:transient:prob=0.2:max=2",
    "--trace", "T.json", "--metrics", "M.json",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture(workdir: pathlib.Path) -> dict:
    """Run train + trace in ``workdir`` and return the pinned values."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        train_out, trace_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(train_out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(TRAIN_ARGS) == 0
        with contextlib.redirect_stdout(trace_out):
            assert main(["trace", "T.json", "--per-rank"]) == 0
        metrics = json.loads(pathlib.Path("M.json").read_text())
        metrics.pop("comm_log", None)
        return {
            "trace_sha256": _sha256(pathlib.Path("T.json").read_bytes()),
            "metrics_sha256": _sha256(
                json.dumps(metrics, indent=2, sort_keys=True).encode()
            ),
            "trace_cli_sha256": _sha256(trace_out.getvalue().encode()),
            "fault_events": json.loads(train_out.getvalue())["fault_events"],
        }
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> dict:
    return capture(tmp_path_factory.mktemp("obs_golden"))


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN.exists():  # pragma: no cover - repo integrity
        pytest.fail(f"golden file missing: {GOLDEN}; regenerate with --regen")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "key", ["trace_sha256", "metrics_sha256", "trace_cli_sha256", "fault_events"]
)
def test_export_matches_golden(key, fresh, golden):
    assert fresh[key] == golden[key], f"{key} drifted from the pinned export"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_obs_golden.py --regen")
    with tempfile.TemporaryDirectory() as tmp:
        pinned = capture(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
