"""The comm-core layering contract (docs/INTERNALS.md §15).

Two halves:

* the real tree is clean — op surface → dispatch/op-table → execution
  only, extensions hold a :class:`~repro.core.protocols.CommCore`, and
  ``core/comm.py`` stays an op-surface-sized module;
* the lint itself works — ``scripts/check_imports.py`` run against a
  copied tree with an injected violation actually fails, so a green CI
  step means something.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

sys.path.insert(0, str(REPO / "scripts"))
from check_imports import check  # noqa: E402

from repro.core import MCRCommunicator  # noqa: E402
from repro.core.protocols import CommCore  # noqa: E402
from repro.sim import Simulator  # noqa: E402


def _copy_tree(tmp_path: Path) -> Path:
    root = tmp_path / "src"
    shutil.copytree(SRC, root)
    return root


class TestRealTree:
    def test_clean(self):
        assert check(SRC) == []

    def test_cli_exit_status(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_imports.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_comm_is_op_surface_sized(self):
        # acceptance: core/comm.py shrinks to the op-surface layer only
        n = len((SRC / "repro" / "core" / "comm.py").read_text().splitlines())
        assert n < 800, f"core/comm.py is {n} lines — op surface only"

    def test_ci_runs_the_lint(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "scripts/check_imports.py" in ci

    def test_communicator_satisfies_protocol(self):
        # runtime_checkable protocols verify method presence; attribute
        # members need an instance, so build one inside the simulator
        def main(ctx):
            comm = MCRCommunicator(ctx, ["nccl"])
            assert isinstance(comm, CommCore)
            for attr in ("_shared", "_quarantined", "_fault_counters", "_phase_tag"):
                assert hasattr(comm, attr)
            comm.finalize()

        Simulator(2).run(main)


class TestInjectedViolations:
    def test_injected_cycle_fails(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "core" / "rendezvous.py"
        target.write_text(
            "from repro.core.comm import MCRCommunicator  # injected\n"
            + target.read_text()
        )
        violations = check(root)
        assert any("cycle" in v for v in violations), violations
        assert any("layer violation" in v for v in violations), violations

    def test_lower_layer_importing_up_fails_even_without_cycle(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "core" / "protocols.py"
        target.write_text(
            target.read_text() + "\nfrom repro.core.dispatch import CommPlan\n"
        )
        violations = check(root)
        assert any(
            "repro.core.protocols" in v and "repro.core.dispatch" in v
            for v in violations
        ), violations

    def test_type_checking_layer_edge_fails(self, tmp_path):
        # the cycle-papering idiom is banned inside the core even when
        # guarded: a TYPE_CHECKING edge upward is still a layer breach
        root = _copy_tree(tmp_path)
        target = root / "repro" / "core" / "dispatch.py"
        target.write_text(
            target.read_text()
            + "\nfrom typing import TYPE_CHECKING\n"
            + "if TYPE_CHECKING:\n    from repro.core.comm import MCRCommunicator\n"
        )
        violations = check(root)
        assert any("TYPE_CHECKING import of repro.core.comm" in v for v in violations)

    def test_ext_importing_concrete_class_fails(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "ext" / "fusion.py"
        target.write_text(
            "from repro.core.comm import MCRCommunicator  # injected\n"
            + target.read_text()
        )
        violations = check(root)
        assert any(
            "repro.ext.fusion" in v and "CommCore" in v for v in violations
        ), violations

    def test_framework_function_local_import_fails(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "frameworks" / "horovod.py"
        target.write_text(
            target.read_text()
            + "\ndef _sneaky():\n    from repro.core.comm import MCRCommunicator\n"
            + "    return MCRCommunicator\n"
        )
        violations = check(root)
        assert any("function-local import of repro.core.comm" in v for v in violations)

    def test_deferred_import_outside_core_fails(self, tmp_path):
        # bench/ may construct the concrete class, but only via a
        # top-level import — deferred imports were the cycle-papering
        # idiom and stay banned everywhere outside repro/core/
        root = _copy_tree(tmp_path)
        target = root / "repro" / "bench" / "microbench.py"
        target.write_text(
            target.read_text()
            + "\ndef _lazy():\n    from repro.core.comm import MCRCommunicator\n"
            + "    return MCRCommunicator\n"
        )
        violations = check(root)
        assert any("function-local import of repro.core.comm" in v for v in violations)

    def test_function_local_schema_import_fails(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "sim" / "engine.py"
        target.write_text(
            target.read_text()
            + "\ndef _lazy():\n    from repro.obs.metrics import ObsEvent\n"
            + "    return ObsEvent\n"
        )
        violations = check(root)
        assert any(
            "repro.sim.engine" in v
            and "function-local import of repro.obs.metrics" in v
            for v in violations
        ), violations

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        root = _copy_tree(tmp_path)
        target = root / "repro" / "core" / "op_table.py"
        target.write_text(
            "import repro.core.dispatch  # injected\n" + target.read_text()
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "scripts" / "check_imports.py"),
                "--src",
                str(root),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "layer violation" in proc.stderr


@pytest.mark.parametrize(
    "module, banned",
    [
        ("repro.core.rendezvous", ("repro.core.dispatch", "repro.core.comm")),
        ("repro.core.dispatch", ("repro.core.comm", "repro.core.op_table")),
        ("repro.core.op_table", ("repro.core.comm", "repro.core.dispatch")),
        ("repro.core.protocols", ("repro.core.comm", "repro.core.rendezvous")),
    ],
)
def test_layer_modules_do_not_import_upward(module, banned):
    import importlib

    mod = importlib.import_module(module)
    py = Path(mod.__file__).read_text()
    for target in banned:
        assert f"from {target} import" not in py and f"import {target}" not in py
