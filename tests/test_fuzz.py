"""A document fuzzer: mutated `.og` token streams through the in-process `og`.

Whatever the document, `og` ends in a report or a typed error: exit code
0, 1 or 2, no escaping exception, and every exit-2 message is either a
usage error or pinned to a line and column of the input.
"""

import io
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from opengames.cli import bundled_document_text, main
from opengames.dsl import tokenize

SMALL_DOC = """\
(set MOVE (C D))
(payoff PD (MOVE MOVE) 2
  ((C C) -> (2 2)) ((C D) -> (0 3)) ((D C) -> (3 0)) ((D D) -> (1 1)))
(normal-form PDGAME (MOVE MOVE) PD)
(sequential STAGED (MOVE MOVE) PD)
(game FIRST (copy-decision MOVE))
(game SECOND (copy-decision MOVE MOVE))
(expr CHAIN (seq FIRST SECOND))
(continuation SCORE CHAIN
  ((pair C C) -> (vec 2 2)) ((pair C D) -> (vec 0 3))
  ((pair D C) -> (vec 3 0)) ((pair D D) -> (vec 1 1)))
(game CLOSE (utility PD))
(expr WHOLE (seq CHAIN CLOSE))
"""

SEEDS = [
    [tok for tok, _, _ in tokenize(text)]
    for text in (
        bundled_document_text(),
        (Path(__file__).parent / "golden" / "three_stage.og").read_text("utf-8"),
        SMALL_DOC,
    )
]

KEYWORDS = """( ) ( ) set sum prod payoff diset lens game expr continuation normal-form
sequential extensive infoset node leaf real id compose tensor assoc unassoc swap
lunit lunit-inv runit runit-inv counit effect decision copy-decision utility unit
trivial-lens seq product pair inl inr vec -> * I""".split()
NAMES = sorted({t for seed in SEEDS for t in seed if t[:1].isupper() and t != "I"})
LITERALS = ["0", "-0", "1", "-1", "2", "3", "2/3", "-1/2", "1/0", "-3/00", "999999"]
VOCABULARY = KEYWORDS + NAMES + LITERALS


def _sort(token):
    """The vocabulary a token belongs with: literals, names, or the token alone."""
    if re.match(r"-?\d", token):
        return LITERALS
    return NAMES if token in NAMES else [token]


def _form_end(tokens, i):
    """The end of the balanced form that starts at `i`; just past `i` for an atom."""
    depth = 0
    for j in range(i, len(tokens)):
        depth += {"(": 1, ")": -1}.get(tokens[j], 0)
        if depth <= 0:
            return j + 1
    return len(tokens)


@st.composite
def mutated_documents(draw):
    """A seed document's tokens after a few deletions, insertions, replacements,
    swaps and duplicated forms.  Edits mostly hit atoms.  Some documents only get
    atoms respelled as others of their sort, so that many still read and get solved."""
    rnd = draw(st.randoms(use_true_random=True))
    tokens = list(rnd.choice(SEEDS))
    ops = ["respell"] if rnd.random() < 0.4 else [
        "delete", "insert", "replace", "swap", "duplicate", "respell"]
    for _ in range(rnd.choice([1, 1, 2, 3])):
        atoms = [k for k, t in enumerate(tokens) if t not in "()"]
        i = rnd.choice(atoms) if rnd.random() < 0.8 else rnd.randrange(len(tokens))
        op = rnd.choice(ops)
        if op == "delete":
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, rnd.choice(VOCABULARY))
        elif op == "replace":
            tokens[i] = rnd.choice(VOCABULARY)
        elif op == "respell":  # a number or a name, as another of its sort
            i = rnd.choice(atoms)
            tokens[i] = rnd.choice(_sort(tokens[i]))
        elif op == "swap":
            j = rnd.choice(atoms)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            i = rnd.choice([k for k, t in enumerate(tokens) if t == "("])
            tokens[i:i] = tokens[i:_form_end(tokens, i)]
    return " ".join(tokens)


@st.composite
def commands(draw):
    """`og parse`, or `og solve` in some mode, sometimes naming a target or a continuation."""
    argv = ["--input", "-", "--format", draw(st.sampled_from(["json", "text"]))]
    if draw(st.booleans()):
        return ["parse"] + argv
    argv = ["solve"] + argv + ["--mode", draw(st.sampled_from(
        ["states", "separable", "nash", "spe"]))]
    if draw(st.booleans()):
        argv += ["--expr", draw(st.sampled_from(NAMES))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--continuation", draw(st.sampled_from(NAMES + ["trivial"]))]
    return argv


POSITIONED = re.compile(r"-:\d+:\d+: ")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(mutated_documents(), commands())
def test_og_ends_every_mutated_document_in_a_report_or_a_typed_error(text, argv):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert time.perf_counter() - started < 1.0
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code == 0:
        assert out.getvalue() and not message
    elif code == 1:
        assert message.startswith("error: ")
    else:
        assert message.startswith("usage error: ") or POSITIONED.match(message), message
