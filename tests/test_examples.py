"""Smoke-run every example script end to end (subprocess)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script, tmp_path):
    # run outside the checkout so an example that saves into results/
    # (autotuning) writes to tmp_path/results, not the committed files
    (tmp_path / "results").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script.name} printed nothing"
    if script.stem == "autotuning":
        assert (tmp_path / "results" / "tuning_table_lassen.json").is_file()


def test_all_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "moe_training",
        "dlrm_overlap",
        "autotuning",
        "deadlock_freedom",
        "megatron_zero",
        "pipeline_parallel",
        "compression",
    } <= names
