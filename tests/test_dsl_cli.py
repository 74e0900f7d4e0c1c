"""The document language and the `og` command line tool."""

import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opengames.classical import brute_nash
from opengames.cli import bundled_document_text, main
from opengames.dsl import (
    MAX_COMPOSITION,
    MAX_DEPTH,
    format_document,
    format_sexpr,
    parse_document,
    parse_sexprs,
    tokenize,
)
from opengames.errors import (
    DocumentTypeError,
    EmptyChoiceSet,
    NameResolutionError,
    ParseError,
    TypeMismatch,
)
from opengames.finite import Payoff, make_set
from opengames.lenses import (
    UNIT_DISET,
    Diset,
    assoc_lens,
    counit_lens,
    lenses_equal,
    swap_lens,
    unassoc_lens,
)
from opengames.solve import SOLVERS, nash_normal_form, solve
import goldens
from helpers import skeleton

PD_DOC = """\
(set MOVE (C D))
(payoff PD (MOVE MOVE) 2
  ((C C) -> (2 2))
  ((C D) -> (0 3))
  ((D C) -> (3 0))
  ((D D) -> (1 1)))
(normal-form PDGAME (MOVE MOVE) PD)
"""

CHAIN_DOC = PD_DOC + """\
(game FIRST (copy-decision MOVE))
(game SECOND (copy-decision MOVE MOVE))
(expr CHAIN (seq FIRST SECOND))
(continuation SCORE CHAIN
  ((pair C C) -> (vec 2 2))
  ((pair C D) -> (vec 0 3))
  ((pair D C) -> (vec 3 0))
  ((pair D D) -> (vec 1 1)))
(game CLOSE (utility PD))
(expr WHOLE (seq CHAIN CLOSE))
"""

TREE_DOC = """\
(extensive PICK 1
  (node r 1 (L (leaf a (1))) (R (leaf b (0)))))
"""


ALL_KINDS_DOC = TREE_DOC + PD_DOC.replace(
    "(normal-form", "(sequential STAGED (MOVE MOVE) PD)\n(normal-form"
) + """\
(game FIRST (copy-decision MOVE))
(game SECOND (copy-decision MOVE MOVE))
(game CLOSE (utility PD))
(expr WHOLE (seq (seq FIRST SECOND) CLOSE))
"""


def solvables(doc):
    """The declarations some `SOLVERS` entry can solve, in declaration order."""
    return [d for d in doc.declarations if d[0] in {kind for kind, _ in SOLVERS}]


# ---------- reading ----------


def test_tokenizer_tracks_positions():
    toks = tokenize("(set A (x))\n; ignored\n  next")
    assert toks[0] == ("(", 1, 1)
    assert toks[1] == ("set", 1, 2)
    text, line, col = toks[-1]
    assert text == "next"
    assert (line, col) == (3, 3)
    assert all(text != "ignored" for text, _, _ in toks)


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_sexprs("(a b))")
    assert (e.value.line, e.value.col) == (1, 6)
    with pytest.raises(ParseError) as e:
        parse_sexprs("(a (b c)")
    assert (e.value.line, e.value.col) == (1, 1)
    assert len(parse_sexprs("(" * MAX_DEPTH + ")" * MAX_DEPTH)) == 1
    with pytest.raises(ParseError) as e:
        parse_sexprs("\n " + "(" * (MAX_DEPTH + 1) + ")" * (MAX_DEPTH + 1))
    assert (e.value.line, e.value.col) == (2, MAX_DEPTH + 2)


def _reference_read(text):
    """A character-at-a-time reader with `parse_sexprs`'s semantics.

    Nodes are `(atom or tuple of nodes, line, col)`; an error is
    `(message, line, col)`.  Blanks are space, tab and CR; `;` starts a
    comment that runs to the end of the line; any other character that is
    not a paren belongs to an atom.
    """
    tokens, line, col, i = [], 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
        elif c in " \t\r":
            col, i = col + 1, i + 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                col, i = col + 1, i + 1
        elif c in "()":
            tokens.append((c, line, col))
            col, i = col + 1, i + 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            tokens.append((text[i:j], line, col))
            col, i = col + j - i, j

    class Failed(Exception):
        pass

    pos = 0

    def node(depth):
        nonlocal pos
        tok, tline, tcol = tokens[pos]
        pos += 1
        if tok == ")":
            raise Failed("unexpected ')'", tline, tcol)
        if tok != "(":
            return (tok, tline, tcol)
        if depth > MAX_DEPTH:
            raise Failed(f"nesting deeper than {MAX_DEPTH}", tline, tcol)
        items = []
        while True:
            if pos == len(tokens):
                raise Failed("unclosed '('", tline, tcol)
            if tokens[pos][0] == ")":
                pos += 1
                return (tuple(items), tline, tcol)
            items.append(node(depth + 1))

    forms = []
    try:
        while pos < len(tokens):
            forms.append(node(1))
    except Failed as e:
        return e.args
    return forms


def _positioned(node):
    inner = node.atom if node.is_atom else tuple(_positioned(i) for i in node.items)
    return (inner, node.line, node.col)


def test_reader_matches_a_reference_reader():
    rng = random.Random(1711)
    alphabet = " \t\r\n();ab*-1/2\x0c é"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(40)))
             for _ in range(3000)]
    texts += ["\n " + "(" * d + "a" + ")" * d for d in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1)]
    outcomes = {"read": 0, "error": 0}
    for text in texts:
        try:
            got = [_positioned(n) for n in parse_sexprs(text)]
        except ParseError as e:
            got = (e.message, e.line, e.col)
        outcomes["read" if isinstance(got, list) else "error"] += 1
        assert got == _reference_read(text), repr(text)
    assert min(outcomes.values()) > 500


sexpr_data = st.recursive(
    st.text(alphabet="abcdxyz*/-0123456789", min_size=1, max_size=5),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


def _render(node):
    if isinstance(node, str):
        return node
    return "(" + " ".join(_render(c) for c in node) + ")"


@given(st.lists(sexpr_data, max_size=4))
def test_reading_round_trips(forms):
    text = "\n".join(_render(f) for f in forms)
    parsed = parse_sexprs(text)
    assert [skeleton(n) for n in parsed] == forms
    again = parse_sexprs(format_document(parsed))
    assert [skeleton(n) for n in again] == forms


def test_format_sexpr_is_flat():
    (node,) = parse_sexprs("(a\n  (b   c))")
    assert format_sexpr(node) == "(a (b c))"


# ---------- analysis ----------


def test_document_tables_and_declaration_order():
    doc = parse_document(CHAIN_DOC)
    assert [d for d in doc.declarations] == [
        ("set", "MOVE"),
        ("payoff", "PD"),
        ("normal-form", "PDGAME"),
        ("game", "FIRST"),
        ("game", "SECOND"),
        ("expr", "CHAIN"),
        ("continuation", "SCORE"),
        ("game", "CLOSE"),
        ("expr", "WHOLE"),
    ]
    assert solvables(doc) == [
        ("normal-form", "PDGAME"),
        ("expr", "CHAIN"),
        ("expr", "WHOLE"),
    ]
    assert list(doc.names["MOVE"][1]) == ["C", "D"]
    assert doc.names["FIRST"][1].label == "FIRST"


def test_document_solves_like_the_programmatic_build():
    doc = parse_document(PD_DOC)
    nf = doc.names["PDGAME"][1]
    assert nash_normal_form(nf) == [("D", "D")]
    assert brute_nash(nf) == [("D", "D")]
    # The structure lens forms build what their library constructors build.
    lenses = parse_document(
        "(set A (a b))\n(set B (c))\n(diset DA A (real 1))\n(diset DB B (real 2))\n"
        "(lens AS (assoc DA DB I))\n(lens UN (unassoc DA DB I))\n"
        "(lens SW (swap DA DB))\n(lens CU (counit A))\n"
    ).names
    da = Diset(make_set(["a", "b"]), Payoff(1))
    db = Diset(make_set(["c"]), Payoff(2))
    for name, built in [
        ("AS", assoc_lens(da, db, UNIT_DISET)),
        ("UN", unassoc_lens(da, db, UNIT_DISET)),
        ("SW", swap_lens(da, db)),
        ("CU", counit_lens(da.forward)),
    ]:
        assert lenses_equal(lenses[name][1], built), name


def err_span(exc_info):
    return exc_info.value.line, exc_info.value.col


def test_unknown_declaration_span():
    with pytest.raises(DocumentTypeError) as e:
        parse_document("(bad)\n")
    assert err_span(e) == (1, 2)


def test_duplicate_name_span():
    with pytest.raises(NameResolutionError) as e:
        parse_document("(set MOVE (C D))\n(set MOVE (E))\n")
    assert err_span(e) == (2, 6)


def test_unknown_name_span():
    with pytest.raises(NameResolutionError) as e:
        parse_document("(diset D NOPE unit)\n")
    assert err_span(e) == (1, 10)


def test_wrong_kind_is_reported():
    with pytest.raises(NameResolutionError) as e:
        parse_document("(set A (x))\n(game G (utility A))\n")
    assert "`A` is a set, not a payoff" in e.value.message


def test_reserved_element_names():
    with pytest.raises(DocumentTypeError) as e:
        parse_document("(set B (1/2))\n")
    assert err_span(e) == (1, 9)
    with pytest.raises(DocumentTypeError):
        parse_document("(set B (*))\n")


def test_payoff_row_errors():
    with pytest.raises(DocumentTypeError) as e:
        parse_document(
            "(set M (C D))\n(payoff P (M) 1\n  ((C) -> (1))\n  ((C) -> (2))\n  ((D) -> (0)))\n"
        )
    assert "duplicate row" in e.value.message
    assert e.value.line == 4
    with pytest.raises(DocumentTypeError) as e:
        parse_document("(set M (C D))\n(payoff P (M) 1\n  ((C) -> (1)))\n")
    assert "missing row" in e.value.message
    with pytest.raises(DocumentTypeError) as e:
        parse_document("(set M (C D))\n(payoff P (M) 1\n  ((E) -> (1)))\n")
    assert "not in the domain" in e.value.message
    with pytest.raises(DocumentTypeError) as e:
        parse_document("(set M (C))\n(payoff P (M) 2\n  ((C) -> (1)))\n")
    assert "expected 2 rationals" in e.value.message
    # Rows over three sets are reported flat, as written, not as nested pairs.
    head = "(set A (a0 a1))\n(set B (b0))\n(set C (c0 c1))\n(payoff P (A B C) 3\n"
    rows = [f"  (({a} b0 {c}) -> (1 2 3))" for a in ("a0", "a1") for c in ("c0", "c1")]
    with pytest.raises(DocumentTypeError) as e:
        parse_document(head + "\n".join(rows[:1] + rows[2:]) + ")\n")
    assert e.value.message == "missing row for (a0 b0 c1)"
    with pytest.raises(DocumentTypeError) as e:
        parse_document(head + "\n".join(rows[:2] + rows[1:]) + ")\n")
    assert e.value.message == "duplicate row for (a0 b0 c1)"
    assert (e.value.line, e.value.col) == (7, 4)


def test_expression_boundary_errors_carry_spans():
    text = "(set MOVE (C D))\n(game A (decision unit MOVE))\n(expr BAD (seq A A))\n"
    with pytest.raises(DocumentTypeError) as e:
        parse_document(text)
    assert err_span(e) == (3, 11)


def test_continuation_errors():
    with pytest.raises(NameResolutionError):
        parse_document("(continuation K NOPE)\n")
    bad_row = CHAIN_DOC.replace("(vec 1 1)", "(vec 1)")
    with pytest.raises(DocumentTypeError) as e:
        parse_document(bad_row)
    assert "outside the backward carrier" in e.value.message


def test_row_errors_print_values_as_written():
    """Continuation and effect rows name their values in the document's own syntax."""
    market = bundled_document_text()
    row = "  ((pair * (pair F F)) -> (pair (vec -3) (pair (vec -3) (vec -1))))\n"
    assert row in market
    cases = [
        (market.replace(row, ""), "missing row for (pair * (pair F F))"),
        (market.replace("((pair * (pair F A)) ->", "((pair * (pair F F)) ->"),
         "duplicate row for (pair * (pair F F))"),
        (market.replace("((pair * (pair F A)) ->", "((pair * (pair F Z)) ->"),
         "(pair * (pair F Z)) is not in the domain"),
        (CHAIN_DOC.replace("  ((pair D D) -> (vec 1 1)))", ")"), "missing row for (pair D D)"),
    ]
    sums = "(set MOVE (C D))\n(set S (sum unit MOVE))\n(lens E (effect (diset S (real 1))\n"
    rows = ["  ((inl *) -> (vec 0))", "  ((inr C) -> (vec 1))", "  ((inr D) -> (vec 2/3))"]
    cases += [
        (sums + "\n".join(rows[1:]) + "))\n", "missing row for (inl *)"),
        (sums + "\n".join(rows + ["  ((vec 1 2/3) -> (vec 0))"]) + "))\n",
         "(vec 1 2/3) is not in the domain"),
    ]
    for text, message in cases:
        with pytest.raises(DocumentTypeError) as e:
            parse_document(text)
        assert e.value.message == message


def test_market_document_round_trips():
    text = bundled_document_text()
    doc = parse_document(text)
    assert solvables(doc)[-1] == ("extensive", "MARKET-TREE")
    original = [skeleton(n) for n in parse_sexprs(text)]
    reprinted = parse_sexprs(format_document(doc.forms))
    assert [skeleton(n) for n in reprinted] == original


# ---------- the command line tool ----------


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, text, name="doc.og"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_is_reentrant_in_one_interpreter(tmp_path, capsys):
    """`main` called again and again in one process answers as a fresh `og` does."""
    doc = write_doc(tmp_path, PD_DOC)
    broken = write_doc(tmp_path, "(set A (a a))\n", "broken.og")
    invocations = [
        ["solve", "--input", doc, "--mode", "nash", "--format", "text"],
        ["solve", "--input", doc, "--mode", "nash"],
        ["parse", "--input", doc],
        ["laws", "--trials", "1"],
        ["solve", "--input", doc, "--mode", "bogus"],
        ["parse", "--input", broken],
    ]
    fresh = [subprocess.Popen([sys.executable, "-m", "opengames.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in invocations]
    for argv, proc in zip(invocations, fresh):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = proc.communicate(timeout=60)
        assert (code, *capsys.readouterr()) == (proc.returncode, out, err), argv
    assert [p.returncode for p in fresh] == [0, 0, 0, 0, 2, 2]


def test_solve_normal_form_json(tmp_path, capsys):
    path = write_doc(tmp_path, PD_DOC)
    code, out, err = run_cli(capsys, ["solve", "--input", path, "--mode", "nash"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report) == [
        "command", "input", "seed", "bounds", "results", "witnesses", "elapsed_ms",
    ]
    assert report["command"] == "solve"
    assert report["input"] == path
    assert report["seed"] == 0
    assert report["bounds"] == {"max_table": 16}
    assert report["results"] == [["D", "D"]]
    assert report["witnesses"] == []
    assert report["elapsed_ms"] is None


def test_solve_output_is_reproducible(tmp_path, capsys):
    path = write_doc(tmp_path, CHAIN_DOC)
    argv = ["solve", "--input", path, "--mode", "separable",
            "--expr", "CHAIN", "--continuation", "SCORE"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_solve_expr_modes_and_witnesses(tmp_path, capsys):
    path = write_doc(tmp_path, CHAIN_DOC)
    code, out, _ = run_cli(
        capsys,
        ["solve", "--input", path, "--mode", "states",
         "--expr", "CHAIN", "--continuation", "SCORE"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"] == [["D", "[C->D, D->D]"]]
    code, out, _ = run_cli(
        capsys,
        ["solve", "--input", path, "--mode", "separable",
         "--expr", "CHAIN", "--continuation", "SCORE"],
    )
    report = json.loads(out)
    assert report["results"] == [["D", "[C->D, D->D]"]]
    assert len(report["witnesses"]) == 1
    assert report["witnesses"][0]["kind"] == "seq"


def test_solve_picks_the_last_compatible_target(tmp_path, capsys):
    path = write_doc(tmp_path, CHAIN_DOC)
    code, out, _ = run_cli(capsys, ["solve", "--input", path, "--mode", "states"])
    assert code == 0
    report = json.loads(out)
    assert report["results"] == [[["D", "[C->D, D->D]"], "*"]]


def test_each_mode_picks_its_last_compatible_kind(tmp_path, capsys):
    """The kinds a mode accepts, and so its default target, come from `SOLVERS`."""
    path = write_doc(tmp_path, ALL_KINDS_DOC)
    picks = {"states": "WHOLE", "separable": "WHOLE", "nash": "PDGAME", "spe": "STAGED"}
    for mode, name in picks.items():
        argv = ["solve", "--input", path, "--mode", mode]
        picked = run_cli(capsys, argv)
        assert picked[0] == 0
        assert picked == run_cli(capsys, argv + ["--expr", name])
    needs = {
        "states": "expr",
        "separable": "expr",
        "nash": "normal-form, sequential, extensive",
        "spe": "sequential, extensive",
    }
    for mode, kinds in needs.items():
        name, kind = ("PICK", "an extensive") if kinds == "expr" else ("WHOLE", "an expr")
        code, _, err = run_cli(
            capsys, ["solve", "--input", path, "--mode", mode, "--expr", name]
        )
        assert code == 2
        assert err == f"usage error: `{name}` is {kind}; mode {mode} needs one of: {kinds}\n"
    doc = parse_document(ALL_KINDS_DOC)
    with pytest.raises(TypeMismatch):
        solve("normal-form", doc.names["PDGAME"][1], "spe")


def test_solve_extensive_targets(tmp_path, capsys):
    path = write_doc(tmp_path, TREE_DOC)
    for mode in ("nash", "spe"):
        code, out, _ = run_cli(capsys, ["solve", "--input", path, "--mode", mode])
        assert code == 0
        assert json.loads(out)["results"] == [[["L"]]]


def test_solve_usage_errors(tmp_path, capsys):
    path = write_doc(tmp_path, PD_DOC)
    code, _, err = run_cli(
        capsys, ["solve", "--input", path, "--mode", "nash", "--expr", "NOPE"]
    )
    assert code == 2 and "usage error" in err
    code, _, err = run_cli(
        capsys, ["solve", "--input", path, "--mode", "spe", "--expr", "PDGAME"]
    )
    assert code == 2 and "is a normal-form" in err
    code, _, err = run_cli(capsys, ["solve", "--input", path, "--mode", "spe"])
    assert code == 2 and "nothing solvable" in err
    code, _, err = run_cli(
        capsys,
        ["solve", "--input", path, "--mode", "nash", "--continuation", "SCORE"],
    )
    assert code == 2 and "only applies" in err


def test_solve_domain_errors_exit_one(tmp_path, capsys):
    path = write_doc(tmp_path, CHAIN_DOC)
    code, _, err = run_cli(
        capsys, ["solve", "--input", path, "--mode", "states", "--expr", "CHAIN"]
    )
    assert code == 1 and err.startswith("error:")
    code, _, err = run_cli(
        capsys,
        ["solve", "--input", path, "--mode", "states",
         "--expr", "WHOLE", "--continuation", "SCORE"],
    )
    assert code == 1 and "declared for" in err


def test_parse_errors_exit_two_with_positions(tmp_path, capsys):
    past = f"composition depth {MAX_COMPOSITION + 1} exceeds {MAX_COMPOSITION}"
    cases = [
        ("(bad)\n", "1:2: unknown declaration"),
        ("(diset D unit (real -1))\n", "1:21: a payoff dimension cannot be negative"),
        ("(payoff P () -1 (() -> ()))\n", "1:14: a payoff dimension cannot be negative, found `-1`"),
        ("(payoff P () -1)\n", "1:14: a payoff dimension cannot be negative, found `-1`"),
        ("(extensive E -1 (leaf l ()))\n", "1:14: a player count cannot be negative"),
        ("(" * 5000 + ")" * 5000 + "\n", f"1:{MAX_DEPTH + 1}: nesting deeper than"),
        ("(set A (a b c d e f g h i j k))\n(payoff P (A A A A A A) 1)\n", "2:1: 1771561 tuples"),
        # More digits than the interpreter converts to an integer, on either side of the `/`.
        ("(payoff P () 1 (() -> (" + "1" * 5000 + ")))\n", "1:24: `1111111111111111...` has too many digits"),
        ("(payoff P () 1 (() -> (1/" + "1" * 5000 + ")))\n", "1:24: `1/11111111111111...` has too many digits"),
        # Depth built up through names, nested forms or `compose` parts, one past the bound.
        (_named_chain("seq", MAX_COMPOSITION + 1), f"{MAX_COMPOSITION + 2}:1: {past}"),
        (_inline_tensor(MAX_COMPOSITION + 1), f"2:1: {past}"),
        (_composed_lens(MAX_COMPOSITION + 1), f"3:1: {past}"),
        (_set_chain(MAX_COMPOSITION + 1), f"{MAX_COMPOSITION + 1}:1: {past}"),
        ("(set S (a))\n(payoff P (" + "S " * (MAX_COMPOSITION + 1) + ") 1)\n", f"2:1: {past}"),
        (_players("normal-form", MAX_COMPOSITION + 1), f"2:1: {past}"),
    ]
    for text, expected in cases:
        path = write_doc(tmp_path, text)
        code, _, err = run_cli(capsys, ["parse", "--input", path])
        assert code == 2
        assert err.startswith(f"{path}:{expected}")


def _named_chain(op, depth):
    """`(expr Ei (op Ei-1 U))` over the unit game, composed `depth` deep."""
    lines = ["(game U (unit I))", f"(expr E1 ({op} U U))"]
    lines += [f"(expr E{i} ({op} E{i - 1} U))" for i in range(2, depth + 1)]
    return "\n".join(lines) + "\n"


def _inline_tensor(depth):
    """`depth` tensors nested in one form, closed by a one-row continuation."""
    expr, value = "U", "*"
    for _ in range(depth):
        expr, value = f"(tensor {expr} U)", f"(pair {value} *)"
    return f"(game U (unit I))\n(expr E {expr})\n(continuation K E ({value} -> {value}))\n"


def _composed_lens(depth):
    """A `compose` of `(id D)` parts, `depth` deep, played inside a `seq`."""
    parts = " ".join(["(id D)"] * (depth - 2))  # `(id D)` is 3 deep; each part after the second adds 1
    return ("(set S (a b))\n(diset D S (real 1))\n"
            f"(lens L (compose {parts}))\n(game G (trivial-lens L))\n(game P (unit D))\n"
            "(expr E (seq P (seq G P)))\n(continuation K E (a -> (vec 1)) (b -> (vec 2)))\n")


def _set_chain(depth):
    """`(set Si (prod Si-1 S1))`, `depth` deep, under a payoff with no rows."""
    lines = ["(set S1 (a))"] + [f"(set S{i} (prod S{i - 1} S1))" for i in range(2, depth + 1)]
    return "\n".join(lines) + f"\n(payoff P (S{depth}) 1)\n"


def _players(kind, n):
    """A normal-form or sequential game of `n` players with one move each; the
    built-in `unit` adds no depth, so its payoff is within the bound at n = 129."""
    sets, moves, zeros = " unit" * n, " *" * n, " 0" * n
    return f"(payoff P ({sets[1:]}) {n} (({moves[1:]}) -> ({zeros[1:]})))\n({kind} N ({sets[1:]}) P)\n"


def test_composition_at_the_bound_still_solves(tmp_path, capsys):
    """The deepest chains the bound allows solve in-process, under pytest's own frames;
    the `product` chain takes longest, so it runs in one mode only."""
    depth = MAX_COMPOSITION
    k = ["--continuation", "K"]
    for text, argv in [
        (_named_chain("seq", depth), ["--mode", "separable"]),
        (_named_chain("product", depth), ["--mode", "states"]),
        (_inline_tensor(depth), ["--mode", "states"] + k),
        (_composed_lens(depth), ["--mode", "separable"] + k),
        (_players("normal-form", depth), ["--mode", "nash"]),
        (_players("sequential", depth), ["--mode", "spe"]),
    ]:
        code, out, err = run_cli(capsys, ["solve", "--input", write_doc(tmp_path, text)] + argv)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["results"]) == 1
    code, _, err = run_cli(capsys, ["parse", "--input", write_doc(tmp_path, _set_chain(depth))])
    assert code == 2 and err.startswith(f"{tmp_path / 'doc.og'}:{depth + 1}:1: missing row for ")


def test_readme_python_quick_start_runs(tmp_path, monkeypatch, capsys):
    """The README's document saved as `pd.og`, its Python example run beside it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = dict(re.findall(r"```(lisp|python)\n(.*?)```", readme, re.S))
    (tmp_path / "pd.og").write_text(blocks["lisp"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(blocks["python"], {})
    assert capsys.readouterr().out == "[('D', 'D')]\n"


def test_zero_denominators_exit_two_with_position(capsys, monkeypatch):
    """Every rational goes through one reader, so `1/0` is a document error, not a crash."""
    cases = [
        ("(payoff P () 1 (() -> (1/0)))\n", "1:24: `1/0` has a zero denominator"),
        ("(set A (a))\n(lens E (effect (diset A (real 1))\n  (a -> (vec 2/0))))\n",
         "3:14: `2/0` has a zero denominator"),
        ("(extensive T 1 (leaf x (-3/00)))\n", "1:25: `-3/00` has a zero denominator"),
    ]
    for text, expected in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, ["parse", "--input", "-"])
        assert (code, out) == (2, "")
        assert err == f"-:{expected}\n"


def test_payoff_row_of_the_wrong_arity_exits_two_with_position(tmp_path, capsys):
    text = PD_DOC.replace("((D C) -> (3 0))", "((D C) -> (3))")
    for command in (["parse"], ["solve", "--mode", "nash"]):
        path = write_doc(tmp_path, text)
        code, out, err = run_cli(capsys, command + ["--input", path])
        assert code == 2 and not out
        assert err.startswith(f"{path}:5:13: expected 2 rationals")


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(PD_DOC))
    code, out, _ = run_cli(capsys, ["solve", "--input", "-", "--mode", "nash"])
    assert code == 0
    assert json.loads(out)["input"] == "-"


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.og")
    not_utf8 = tmp_path / "bad.og"
    not_utf8.write_bytes(b"\xff\xfe(set A (a b))\n")
    for command in (["parse"], ["solve", "--mode", "nash"]):
        code, out, err = run_cli(capsys, command + ["--input", missing])
        assert code == 2 and out == ""
        assert err == f"usage error: cannot read {missing}: No such file or directory\n"
        code, out, err = run_cli(capsys, command + ["--input", str(not_utf8)])
        assert code == 2 and out == ""
        assert err == f"usage error: {not_utf8} is not UTF-8 text (byte 0)\n"


def test_laws_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["laws", "--trials", "-2"])
    assert exc_info.value.code == 2
    assert "--trials: expected a non-negative integer" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["laws", "--trials", "0"])
    assert code == 0
    assert all(r["trials"] == 0 for r in json.loads(out)["results"])


def test_negative_max_table_is_a_usage_error(capsys):
    for command in (["demo"], ["laws", "--trials", "1"]):
        with pytest.raises(SystemExit) as exc_info:
            main(command + ["--max-table", "-3"])
        assert exc_info.value.code == 2
        assert "--max-table: expected a non-negative integer" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["demo", "--max-table", "0"])
    assert code == 0
    assert json.loads(out)["bounds"] == {"max_table": 0}


def test_timing_and_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, PD_DOC)
    code, out, _ = run_cli(
        capsys, ["solve", "--input", path, "--mode", "nash", "--timing"]
    )
    assert code == 0
    assert isinstance(json.loads(out)["elapsed_ms"], float)
    code, out, _ = run_cli(
        capsys, ["solve", "--input", path, "--mode", "nash", "--format", "text"]
    )
    assert code == 0
    assert out.splitlines()[0] == "command: solve"


def test_laws_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["laws", "--trials", "2"])
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 7
    assert all(r["failures"] == 0 for r in report["results"])
    assert report["witnesses"] == []


def test_demo_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["demo"])
    assert code == 0
    report = json.loads(out)
    states, separable = report["results"]
    assert states["mode"] == "states"
    assert len(states["profiles"]) == 3
    assert separable["mode"] == "separable"
    assert len(separable["profiles"]) == 1
    assert len(report["witnesses"]) == 1


@pytest.mark.parametrize("doc, argv, golden", goldens.PINNED,
                         ids=[golden for _, _, golden in goldens.PINNED])
def test_pinned_reports_match_their_goldens(doc, argv, golden):
    """Reports are pinned byte for byte across commits, not only across runs;
    `tests/goldens.py` lists the runs, and CI diffs the same list."""
    assert goldens.diff(doc, argv, golden, goldens.in_process, "in-process") == []


def test_parse_subcommand_json_and_text(tmp_path, capsys):
    path = write_doc(tmp_path, PD_DOC)
    code, out, _ = run_cli(capsys, ["parse", "--input", path])
    assert code == 0
    report = json.loads(out)
    assert report["results"] == [
        {"kind": "set", "name": "MOVE"},
        {"kind": "payoff", "name": "PD"},
        {"kind": "normal-form", "name": "PDGAME"},
    ]
    code, out, _ = run_cli(capsys, ["parse", "--input", path, "--format", "text"])
    assert code == 0
    assert [skeleton(n) for n in parse_sexprs(out)] == [
        skeleton(n) for n in parse_sexprs(PD_DOC)
    ]


ZERO_PLAYERS = "(payoff P () 0 (() -> ()))\n"


@pytest.mark.parametrize("kind, mode", [
    ("sequential", "nash"), ("sequential", "spe"), ("normal-form", "nash"),
])
def test_zero_player_games_are_typed_errors(tmp_path, capsys, kind, mode):
    """A classical game with no player is an engine error, not a traceback."""
    text = ZERO_PLAYERS + f"({kind} G () P)\n"
    path = write_doc(tmp_path, text)
    code, out, err = run_cli(capsys, ["solve", "--input", path, "--mode", mode])
    assert code == 1 and out == ""
    assert err == f"error: {kind} game needs at least one player\n"
    game = parse_document(text).names["G"][1]
    with pytest.raises(EmptyChoiceSet, match="at least one player"):
        solve(kind, game, mode)
