"""Every privdyn name the benchmark reads resolves on this tree, and every
privdyn call it makes binds to the callable's signature.

The benchmark's own smoke test is not part of this suite, so a renamed or
removed public name or parameter would only show when the benchmark runs.
These tests read the sources under ``bench/`` with ``ast`` (they import
nothing from there), resolve each ``<privdyn module>.<name>`` attribute chain
they read, and bind the arguments of each call of such a chain.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _chain(node: ast.expr) -> list[str]:
    """The dotted names of an attribute chain rooted at a plain name, else []."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def _privdyn_modules(tree: ast.Module) -> dict[str, str]:
    """Local name -> the privdyn module it is bound to."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "privdyn":
            modules.update((a.asname or a.name, f"privdyn.{a.name}") for a in node.names)
    return modules


def privdyn_reads(source: str) -> set[tuple[str, ...]]:
    """(module, attribute, ...) for each privdyn attribute chain the source reads."""
    tree = ast.parse(source)
    modules = _privdyn_modules(tree)
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



def privdyn_calls(source: str) -> list[tuple[tuple[str, ...], int, list[str], int]]:
    """(module, attribute, ...), positional count, keyword names and line of each privdyn call.

    Arguments from a ``*`` splat on are not counted, and a ``**`` splat adds no
    keyword: what they pass is known only when the call runs.
    """
    tree = ast.parse(source)
    modules = _privdyn_modules(tree)
    calls = []
    for node in ast.walk(tree):
        chain = _chain(node.func) if isinstance(node, ast.Call) else []
        if len(chain) > 1 and chain[0] in modules:
            starred = [isinstance(arg, ast.Starred) for arg in node.args]
            positional = starred.index(True) if True in starred else len(starred)
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            calls.append(((modules[chain[0]], *chain[1:]), positional, keywords, node.lineno))
    return calls


def test_every_privdyn_call_bench_makes_binds():
    calls = [(path.name, *call) for path in sorted(BENCH.glob("*.py"))
             for call in privdyn_calls(path.read_text())]
    # the parse finds the calls that build params, solve, run the oracle and run the CLI
    assert {"make_params", "calibrate_noise", "verify_dominance", "main"} <= {c[1][-1] for c in calls}
    refused = []
    for name, (module, *attrs), positional, keywords, line in calls:
        target = importlib.import_module(module)
        for attr in attrs:
            target = getattr(target, attr)
        try:
            inspect.signature(target).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            refused.append(f"{name}:{line}: {'.'.join(attrs)}: {exc}")
    assert refused == []
