#!/usr/bin/env python
"""Static layering lint for the comm core (docs/INTERNALS.md §15).

``core/comm.py`` is layered — op surface over dispatch over execution,
with a narrow :class:`~repro.core.protocols.CommCore` protocol for
everything outside the core — and this script keeps the layering real
by failing CI when an import edge violates it.  Checks, in order:

1. **No runtime import cycles** anywhere under ``src/repro`` —
   module-level imports only (``if TYPE_CHECKING`` blocks and
   function-local imports do not execute at import time and are
   exempt).
2. **Core layering is one-directional**: the op surface
   (``core/comm``) may import dispatch/op-table/execution; dispatch
   (``core/dispatch``) and the op table (``core/op_table``) may import
   execution (``core/rendezvous``) but never the op surface; execution
   imports none of the layers above it; the protocol
   (``core/protocols``) imports none of them at all.
3. **Extensions program to the protocol**: nothing under ``ext/`` or
   ``frameworks/`` may import ``repro.core.comm`` or name
   ``MCRCommunicator`` in *any* scope — they hold a ``CommCore``.
4. **No deferred concrete imports outside the core**: outside
   ``repro/core/`` there are no function-local or
   ``TYPE_CHECKING``-guarded imports of ``repro.core.comm`` /
   ``MCRCommunicator`` — the historical cycle-papering idiom this
   refactor deleted.  (Module-level imports outside ``ext/`` and
   ``frameworks/`` — e.g. the bench harness constructing concrete
   communicators — stay legal.)  Nowhere in the tree is there a
   function-local import of ``repro.obs.metrics``: the event schema
   imports only the stdlib, so every producer imports it at module
   level.

Usage::

    python scripts/check_imports.py [--src src]

Exit status 0 = clean, 1 = violations (one per line on stderr).

The checker is importable (``check(src_root) -> list[str]``) so the
self-test in ``tests/test_layering.py`` can point it at a copied tree
with an injected cycle and assert the lint actually fires.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

CONCRETE_MODULE = "repro.core.comm"
CONCRETE_NAME = "MCRCommunicator"
#: the stdlib-only event schema: never imported function-locally (rule 4)
SCHEMA_MODULE = "repro.obs.metrics"

#: module -> layers it must NOT import (rule 2).  ``core/comm`` sits on
#: top and may import everything below it, so it has no entry.
LAYER_FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.core.dispatch": ("repro.core.comm", "repro.core.op_table"),
    "repro.core.op_table": ("repro.core.comm", "repro.core.dispatch"),
    "repro.core.rendezvous": (
        "repro.core.comm",
        "repro.core.dispatch",
        "repro.core.op_table",
    ),
    "repro.core.protocols": (
        "repro.core.comm",
        "repro.core.dispatch",
        "repro.core.op_table",
        "repro.core.rendezvous",
    ),
}

#: package prefixes that must hold a CommCore, never the concrete class
PROTOCOL_ONLY_PREFIXES = ("repro.ext.", "repro.frameworks.")


def _module_name(py: Path, src_root: Path) -> str:
    rel = py.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


class _ImportScan(ast.NodeVisitor):
    """Collect imports split by scope: module-level runtime imports
    (they execute at import time and define the dependency graph) vs
    deferred ones (function-local or TYPE_CHECKING-guarded)."""

    def __init__(self, module: str, known: set[str]):
        self.module = module
        self.known = known
        #: (target_module, lineno) executed at import time
        self.runtime: list[tuple[str, int]] = []
        #: (target_module, lineno, kind) deferred to call/type-check time
        self.deferred: list[tuple[str, int, str]] = []
        self._depth = 0  # function nesting
        self._guard = 0  # TYPE_CHECKING nesting

    # -- scope tracking ----------------------------------------------------

    def _visit_scoped(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_Lambda = _visit_scoped

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_guard(node):
            self._guard += 1
            for child in node.body:
                self.visit(child)
            self._guard -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    # -- imports -----------------------------------------------------------

    def _record(self, target: str, lineno: int) -> None:
        if self._guard:
            self.deferred.append((target, lineno, "TYPE_CHECKING"))
        elif self._depth:
            self.deferred.append((target, lineno, "function-local"))
        else:
            self.runtime.append((target, lineno))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:  # resolve "from . import x" relative to this module
            parts = self.module.split(".")
            # drop one part per dot beyond the first for non-packages;
            # module names here never include __init__, so level=1 in a
            # plain module means "the containing package"
            anchor = parts[: len(parts) - node.level]
            base = ".".join(anchor + ([base] if base else []))
        for alias in node.names:
            # "from repro.a import b" imports module repro.a.b when b is
            # itself a module, else the attribute b of module repro.a
            candidate = f"{base}.{alias.name}" if base else alias.name
            self._record(candidate if candidate in self.known else base, node.lineno)


def _scan_tree(src_root: Path) -> dict[str, _ImportScan]:
    files = {p for p in src_root.rglob("*.py")}
    known = {_module_name(p, src_root) for p in files}
    scans: dict[str, _ImportScan] = {}
    for py in sorted(files):
        module = _module_name(py, src_root)
        tree = ast.parse(py.read_text(), filename=str(py))
        scan = _ImportScan(module, known)
        scan.visit(tree)
        scans[module] = scan
    return scans


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan SCCs (iterative); every SCC of size > 1, plus self-loops,
    is a runtime import cycle."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in graph:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1 or node in graph.get(node, set()):
                    cycles.append(sorted(scc))
    return cycles


def check(src_root: "Path | str") -> list[str]:
    """Run all checks against a source tree; return violation strings
    (empty = clean)."""
    src_root = Path(src_root)
    scans = _scan_tree(src_root)
    violations: list[str] = []

    # 1. runtime import cycles
    graph = {
        module: {target for target, _ in scan.runtime if target in scans}
        for module, scan in scans.items()
    }
    for cycle in _find_cycles(graph):
        violations.append("import cycle: " + " <-> ".join(cycle))

    for module, scan in sorted(scans.items()):
        # 2. core layering (runtime and deferred alike: a TYPE_CHECKING
        # edge from a lower layer upward is the cycle-papering idiom
        # this lint exists to keep out of the core)
        forbidden = LAYER_FORBIDDEN.get(module, ())
        for target, lineno in scan.runtime:
            if target in forbidden:
                violations.append(
                    f"{module}:{lineno}: layer violation: imports {target}"
                )
        for target, lineno, kind in scan.deferred:
            if target in forbidden:
                violations.append(
                    f"{module}:{lineno}: layer violation: {kind} import of {target}"
                )

        outside_core = not module.startswith("repro.core")
        protocol_only = module.startswith(PROTOCOL_ONLY_PREFIXES)
        for target, lineno in scan.runtime:
            if protocol_only and target == CONCRETE_MODULE:
                violations.append(
                    f"{module}:{lineno}: imports {CONCRETE_MODULE} — "
                    f"hold a repro.core.protocols.CommCore instead"
                )
        for target, lineno, kind in scan.deferred:
            if target == CONCRETE_MODULE and (protocol_only or outside_core):
                violations.append(
                    f"{module}:{lineno}: {kind} import of {CONCRETE_MODULE} — "
                    f"use repro.core.protocols.CommCore (top-level) instead"
                )
            elif target == SCHEMA_MODULE and kind == "function-local":
                violations.append(
                    f"{module}:{lineno}: function-local import of {SCHEMA_MODULE} — "
                    f"import it at module level (it imports only the stdlib)"
                )

        # 3b. naming the concrete class at all, in any scope
        if protocol_only:
            py = src_root / (module.replace(".", "/") + ".py")
            if not py.exists():
                py = src_root / module.replace(".", "/") / "__init__.py"
            for node in ast.walk(ast.parse(py.read_text(), filename=str(py))):
                if isinstance(node, ast.Name) and node.id == CONCRETE_NAME:
                    violations.append(
                        f"{module}:{node.lineno}: references {CONCRETE_NAME} — "
                        f"extensions program to the CommCore protocol"
                    )
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name == CONCRETE_NAME:
                            violations.append(
                                f"{module}:{node.lineno}: imports {CONCRETE_NAME} — "
                                f"extensions program to the CommCore protocol"
                            )

    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source root containing the repro package (default: repo src/)",
    )
    args = parser.parse_args(argv)
    src_root = Path(args.src)
    if not (src_root / "repro").is_dir():
        print(f"check_imports: no repro package under {src_root}", file=sys.stderr)
        return 2
    violations = check(src_root)
    if violations:
        for violation in violations:
            print(f"check_imports: {violation}", file=sys.stderr)
        print(f"check_imports: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"check_imports: {len(list((src_root / 'repro').rglob('*.py')))} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
