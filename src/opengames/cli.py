"""The `og` command line tool.

Four subcommands: `solve` runs a document through the engine, `laws`
spot-checks the algebraic laws on seeded random instances, `demo` solves
the bundled market entry document, and `parse` validates and reprints a
document.  All reports are deterministic for a fixed seed; timing is
reported only when asked, so identical invocations produce identical
bytes.

Exit codes: 0 on success (an empty result list is still success), 1 for
domain errors while solving (ill-typed continuations, infeasible
enumerations, failed laws), 2 for usage errors and for any error in the
document, enumeration limits hit while reading it included.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from importlib import resources

from .cells import (
    interchange_cell,
    seq_assoc_cell,
    seq_lunit_cell,
    unit_split_cell,
)
from .dsl import format_document, parse_document, with_article
from .errors import EngineError, SourceError, TypeMismatch
from .expr import certificate_to_json, eval_expr
from .finite import UNIT, UNIT_SET, total_fn, value_to_json
from .lenses import (
    apply_continuation,
    lens_compose,
    lens_identity,
    lens_tensor,
    lenses_equal,
)
from .morphisms import check_morphism, identity_morphism, morphisms_equal, vcompose
from .sampling import (
    random_continuation,
    random_diset,
    random_game,
    random_lens_chain,
)
from .solve import SOLVERS, solve


class UsageError(Exception):
    pass


def _count(text: str) -> int:
    """An argparse type for a non-negative integer."""
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="og", description="Solve and inspect composed game documents."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-table", type=_count, default=16,
                       help="largest table rendered in witnesses")
        p.add_argument("--timing", action="store_true",
                       help="include elapsed milliseconds in the report")

    p = sub.add_parser("solve", help="solve a target declared in a document")
    p.add_argument("--input", required=True, help="path to a .og file, or - for stdin")
    p.add_argument("--expr", help="name of the declaration to solve "
                                  "(default: the last compatible one)")
    p.add_argument("--mode", required=True,
                   choices=["states", "separable", "nash", "spe"])
    p.add_argument("--continuation",
                   help="continuation name for states/separable (default trivial)")
    common(p)

    p = sub.add_parser("laws", help="check algebraic laws on random instances")
    p.add_argument("--trials", type=_count, default=10)
    common(p)

    p = sub.add_parser("demo", help="solve the bundled market entry document")
    common(p)

    p = sub.add_parser("parse", help="validate a document and reprint it")
    p.add_argument("--input", required=True, help="path to a .og file, or - for stdin")
    common(p)
    return parser


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path} is not UTF-8 text (byte {e.start})") from None


def _render_text(report) -> str:
    lines = [f"{key}: {report[key]}" for key in ("command", "input", "seed")]
    lines.append(f"results ({len(report['results'])}):")
    for item in report["results"]:
        lines.append("  " + (item if isinstance(item, str) else json.dumps(item, sort_keys=True)))
    lines.append(f"witnesses: {len(report['witnesses'])}")
    if report["elapsed_ms"] is not None:
        lines.append(f"elapsed_ms: {report['elapsed_ms']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _pick_target(doc, mode, wanted):
    allowed = [kind for kind, m in SOLVERS if m == mode]
    if wanted is not None:
        kind = doc.names.get(wanted, (None,))[0]
        if kind not in {solvable for solvable, _ in SOLVERS}:
            raise UsageError(f"no solvable declaration named `{wanted}`")
        if kind not in allowed:
            raise UsageError(
                f"`{wanted}` is {with_article(kind)}; mode {mode} needs one of: "
                + ", ".join(allowed)
            )
        return wanted
    for name, (kind, _) in reversed(doc.names.items()):
        if kind in allowed:
            return name
    raise UsageError(f"the document declares nothing solvable in mode {mode}")


def _expr_continuation(doc, expr_name, flag):
    game = eval_expr(doc.names[expr_name][1])
    if flag is None or flag == "trivial":
        if game.dst.backward != UNIT_SET:
            raise TypeMismatch(
                "the trivial continuation needs a unit backward carrier; "
                "declare a continuation for this expression"
            )
        return total_fn(game.dst.forward, UNIT_SET, lambda _: UNIT)
    kind, found = doc.names.get(flag, (None, None))
    if kind != "continuation":
        raise UsageError(f"no continuation named `{flag}`")
    target, k = found
    if target != expr_name:
        raise TypeMismatch(
            f"continuation `{flag}` is declared for `{target}`, not `{expr_name}`"
        )
    return k


def _rendered(solved, max_table):
    """`solve`'s (profiles, certificates) as a report's results and witnesses."""
    profiles, certificates = solved
    return ([value_to_json(p) for p in profiles],
            [certificate_to_json(c, max_table) for c in certificates])


def _cmd_solve(args):
    doc = parse_document(_read_input(args.input))
    name = _pick_target(doc, args.mode, args.expr)
    kind, target = doc.names[name]
    if args.continuation is not None and kind != "expr":
        raise UsageError("--continuation only applies to states and separable")
    k = _expr_continuation(doc, name, args.continuation) if kind == "expr" else None
    return (args.input, *_rendered(solve(kind, target, args.mode, k), args.max_table), 0)


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def _law_lens_identity(rng):
    (f,) = random_lens_chain(rng, 1)
    return lenses_equal(lens_compose(lens_identity(f.dom), f), f) and lenses_equal(
        lens_compose(f, lens_identity(f.cod)), f
    )


def _law_lens_assoc(rng):
    f, g, h = random_lens_chain(rng, 3)
    return lenses_equal(
        lens_compose(lens_compose(f, g), h), lens_compose(f, lens_compose(g, h))
    )


def _law_tensor_compose(rng):
    f, g = random_lens_chain(rng, 2)
    f2, g2 = random_lens_chain(rng, 2)
    return lenses_equal(
        lens_tensor(lens_compose(f, g), lens_compose(f2, g2)),
        lens_compose(lens_tensor(f, f2), lens_tensor(g, g2)),
    )


def _law_continuation_transport(rng):
    f, g = random_lens_chain(rng, 2)
    k = random_continuation(rng, g.cod)
    return apply_continuation(f, apply_continuation(g, k)) == apply_continuation(
        lens_compose(f, g), k
    )


def _law_seq_assoc_cell(rng):
    disets = [random_diset(rng) for _ in range(4)]
    g, h, i = (
        random_game(rng, disets[j], disets[j + 1], max_strategies=2) for j in range(3)
    )
    cell = seq_assoc_cell(g, h, i)
    if not cell.globular or not check_morphism(cell):
        return False
    back = seq_assoc_cell(g, h, i, inverse=True)
    there = vcompose(cell, back)
    return morphisms_equal(there, identity_morphism(there.source_game))


def _law_unit_cells(rng):
    d = random_diset(rng)
    g = random_game(rng, random_diset(rng), d, max_strategies=2)
    lcell = seq_lunit_cell(g)
    split = unit_split_cell(d, random_diset(rng))
    return bool(check_morphism(lcell)) and bool(check_morphism(split))


def _law_interchange_cell(rng):
    top = [random_diset(rng) for _ in range(3)]
    bot = [random_diset(rng) for _ in range(3)]
    g1 = random_game(rng, top[0], top[1], max_strategies=2)
    h1 = random_game(rng, top[1], top[2], max_strategies=2)
    g2 = random_game(rng, bot[0], bot[1], max_strategies=2)
    h2 = random_game(rng, bot[1], bot[2], max_strategies=2)
    return bool(check_morphism(interchange_cell(g1, g2, h1, h2)))


_LAWS = [
    ("lens-identity", _law_lens_identity),
    ("lens-associativity", _law_lens_assoc),
    ("tensor-compose", _law_tensor_compose),
    ("continuation-transport", _law_continuation_transport),
    ("seq-assoc-cell", _law_seq_assoc_cell),
    ("unit-cells", _law_unit_cells),
    ("interchange-cell", _law_interchange_cell),
]


def _cmd_laws(args):
    rng = random.Random(args.seed)
    results = []
    failures = []
    for name, law in _LAWS:
        bad = 0
        for t in range(args.trials):
            if not law(rng):
                bad += 1
                failures.append({"law": name, "trial": t})
        results.append({"law": name, "trials": args.trials, "failures": bad})
    status = 1 if failures else 0
    return "-", results, failures, status


# ---------------------------------------------------------------------------
# demo and parse
# ---------------------------------------------------------------------------

_DEMO_PATH = "data/market_entry.og"


def bundled_document_text() -> str:
    return (resources.files("opengames") / _DEMO_PATH).read_text(encoding="utf-8")


def _cmd_demo(args):
    doc = parse_document(bundled_document_text())
    k = _expr_continuation(doc, "H", None)
    results = []
    for mode in ("states", "separable"):  # only the separable solve has witnesses
        profiles, witnesses = _rendered(solve("expr", doc.names["H"][1], mode, k), args.max_table)
        results.append({"mode": mode, "profiles": profiles})
    return _DEMO_PATH, results, witnesses, 0


def _cmd_parse(args):
    doc = parse_document(_read_input(args.input))
    results = [{"kind": kind, "name": name} for kind, name in doc.declarations]
    if args.format == "text":
        sys.stdout.write(format_document(doc.forms))
        return None, results, [], 0
    return args.input, results, [], 0


# Built once per process; `main` keeps no state between calls, so it may be called again.
_PARSER = build_parser()
_HANDLERS = {
    "solve": _cmd_solve,
    "laws": _cmd_laws,
    "demo": _cmd_demo,
    "parse": _cmd_parse,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        input_name, results, witnesses, status = _HANDLERS[args.command](args)
    except SourceError as e:
        where = getattr(args, "input", "<input>")
        print(f"{where}:{e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if input_name is None:  # textual parse output was already written
        return status
    elapsed = round((time.perf_counter() - started) * 1000, 3) if args.timing else None
    report = {
        "command": args.command,
        "input": input_name,
        "seed": args.seed,
        "bounds": {"max_table": args.max_table},
        "results": results,
        "witnesses": witnesses,
        "elapsed_ms": elapsed,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
