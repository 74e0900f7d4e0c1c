"""Source hygiene: every name a module imports at module level is used in it,
and every public name the library defines has a caller in the library or the
benchmark, or a reason on `ONLY_TESTS`."""

import ast
import importlib.util
from pathlib import Path

import pytest

import opengames

PACKAGE = Path(opengames.__file__).parent
# `__init__.py` imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Public names that only tests call, each with the reason it stays.
ONLY_TESTS = {
    "hcompose": "the paper's horizontal composition of 2-cells",
    "tensor_morphisms": "the paper's tensor of 2-cells",
    "state_to_morphism": "the paper's states as 2-cells out of the unit",
    "morphism_to_state": "the inverse of `state_to_morphism`",
    "product_mediator": "the paper's products: the 2-cell into an external choice",
    "find_globular_iso": "ROADMAP items 13 and 16 build on it",
    "reindex_target": "reindexing a game along a lens out of its target, a rows rule of its own",
    "reindex_strategies": "reindexing a game along a map into its strategies, a rows rule of its own",
    "copy_decision_composite": "the staged build that is globularly isomorphic to `copy_decision`",
    "sequential_spe": "the oracle for subgame-perfect profiles of staged games",
    "describe": "the names of an expression's shape that ROADMAP item 4's explanations start from",
    "best_response": "the best-response test of one context, with the boundary checks",
}


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom .finite import total_fn, UNIT\n\nx = UNIT\n"
    assert unused_imports(source) == ["os", "total_fn"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_names(source: str) -> list:
    """Public functions and classes a module defines at top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def referenced_names(source: str) -> set:
    """Names a module reads or takes as attributes.  A top-level definition's own
    name does not count inside it: a recursive call is not a caller."""
    seen = set()
    for node in ast.parse(source).body:
        own = getattr(node, "name", None)
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            if name is not None and name != own:
                seen.add(name)
    return seen


def traced_names() -> set:
    """Each part of the attributes `perfbench/tracing.py` patches by name."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {part for _, _, attr, _ in tracing.TARGETS for part in attr.split(".")}


def test_the_scan_skips_a_definition_s_own_name():
    source = "def f(n):\n    return f(n - 1)\n\n\nclass C:\n    pass\n\n\ndef _g():\n    return x.C\n"
    assert public_names(source) == ["f", "C"]
    assert referenced_names(source) == {"n", "x", "C"}


def test_every_public_name_has_a_caller_or_a_reason():
    """Every public top-level function or class of `src/opengames` is referenced
    elsewhere in `src/` (re-exports in `__init__.py` aside) or in `perfbench/`,
    or it is on `ONLY_TESTS`; a name there that gains a caller comes off it."""
    used = traced_names()
    for path in MODULES + sorted(PERFBENCH.glob("*.py")):
        used |= referenced_names(path.read_text(encoding="utf-8"))
    defined = {name for path in MODULES for name in public_names(path.read_text(encoding="utf-8"))}
    assert sorted(defined - used - set(ONLY_TESTS)) == [], "no caller in src/ or perfbench/"
    assert sorted(set(ONLY_TESTS) - (defined - used)) == [], "has a caller, or is gone"
