"""Every privdyn name the benchmark reads resolves on this tree.

The benchmark's own smoke test is not part of this suite, so a renamed or
removed public name would only show when the benchmark runs. This test reads
the sources under ``bench/`` with ``ast`` (it imports nothing from there) and
resolves each ``<privdyn module>.<name>`` attribute chain they read.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _chain(node: ast.expr) -> list[str]:
    """The dotted names of an attribute chain rooted at a plain name, else []."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def privdyn_reads(source: str) -> set[tuple[str, ...]]:
    """(module, attribute, ...) for each privdyn attribute chain the source reads."""
    tree = ast.parse(source)
    modules = {}  # local name -> privdyn module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "privdyn":
            modules.update((a.asname or a.name, f"privdyn.{a.name}") for a in node.names)
    reads = set()
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else []
        if chain and chain[0] in modules:
            reads.add((modules[chain[0]], *chain[1:]))
    return reads


def test_every_privdyn_name_bench_reads_resolves():
    reads = set().union(*(privdyn_reads(p.read_text()) for p in sorted(BENCH.glob("*.py"))))
    # the parse finds the reads that build params, evaluate a bound and run a family
    assert {("privdyn.params", "make_params"), ("privdyn.calibrate", "evaluate_bound"),
            ("privdyn.sampling", "bound_shuffle")} <= reads
    unresolved = []
    for module, *attrs in sorted(reads):
        target = importlib.import_module(module)
        for depth, attr in enumerate(attrs, start=1):
            if not hasattr(target, attr):
                unresolved.append(".".join([module, *attrs[:depth]]))
                break
            target = getattr(target, attr)
    assert unresolved == []

