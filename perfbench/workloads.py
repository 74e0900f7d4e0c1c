"""The four benchmark workloads: seeded inputs, one op each, and its oracle.

A workload is a pool of rounds; a round is a fixed list of ops, one per
shape of the workload's mix, and the rounds run in order, cycling.  Each `Op` has a `run` callable (the timed
call into the engine) and a `check` callable that compares the answer
with an oracle that never consults the engine.  `corrupt` turns a correct
answer into a wrong one, so the gate can be shown to reject it.

Engine functions are looked up on their modules at call time
(`og_solve.nash_normal_form`, not a name imported into this file), so the
tracer's patched bindings are the ones the ops call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from opengames import classical as og_classical
from opengames import cli as og_cli
from opengames import finite as og_finite
from opengames import solve as og_solve

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Op:
    shape: str
    run: object
    check: object  # answer -> bool, computing the oracle's answer on first use
    corrupt: object  # answer -> a wrong answer of the same form
    oracle_s: list  # seconds the oracle took, appended by `check`


def _fraction(rng) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-5 * den, 5 * den), den)


def _choice_names(moves):
    return [tuple(f"{_LETTERS[i]}{j}" for j in range(m)) for i, m in enumerate(moves)]


def _payoff_table(rng, names):
    n = len(names)
    return {p: tuple(_fraction(rng) for _ in range(n)) for p in itertools.product(*names)}


def _shape_name(moves):
    if len(set(moves)) == 1:
        return f"{len(moves)}x{moves[0]}"
    return "-".join(str(m) for m in moves)


def _classical(build, names, table):
    sets = [og_finite.make_set(xs) for xs in names]
    return build(sets, lambda p: table[p])


def _oracle_check(oracle_s, oracle, compare):
    """A check that runs `oracle` once, timing it, then compares against it."""
    expected = []

    def check(answer):
        if not expected:
            started = time.perf_counter()
            expected.append(oracle())
            oracle_s.append(time.perf_counter() - started)
        return compare(answer, expected[0])

    return check


# ---------------------------------------------------------------------------
# nf-nash: normal-form ladder, engine vs the deviation-scan oracle.
# ---------------------------------------------------------------------------

NF_LADDER = [(8, 8), (16, 16), (4, 4, 4), (3, 3, 3, 3), (2,) * 5, (4,) * 4, (3,) * 5]


def _drop_or_pad(profiles, width):
    """A wrong answer: one profile fewer, or a made-up one when there are none."""
    profiles = list(profiles)
    return profiles[:-1] if profiles else [("?",) * width]


def _nf_op(rng, moves):
    names = _choice_names(moves)
    nf = _classical(og_classical.normal_form, names, _payoff_table(rng, names))
    oracle_s = []
    return Op(
        _shape_name(moves),
        lambda: og_solve.nash_normal_form(nf),
        _oracle_check(oracle_s, lambda: og_classical.brute_nash(nf),
                      lambda got, want: got == want),
        lambda answer: _drop_or_pad(answer, len(moves)),
        oracle_s,
    )


def nf_nash(seed, pool):
    rng = random.Random(f"nf-nash/{seed}")
    return [[_nf_op(rng, m) for m in NF_LADDER] for _ in range(pool)]


# ---------------------------------------------------------------------------
# seq-spe: staged-game ladder, Nash plus SPE vs the game-tree oracles.
# ---------------------------------------------------------------------------

SEQ_LADDER = [(3, 3), (4, 4), (2, 2, 2), (3, 2, 2), (2, 2, 3)]


def _spe_key(profile):
    return tuple(tuple(s.values) for s in profile)


def _seq_op(rng, moves):
    names = _choice_names(moves)
    sq = _classical(og_classical.sequential_game, names, _payoff_table(rng, names))

    def oracle():
        nash = set(og_classical.sequential_nash(sq))
        spe = set(og_classical.oracle_spe(og_classical.embed_sequential(sq)))
        return nash, spe

    def compare(answer, expected):
        nash, spe_pairs = answer
        want_nash, want_spe = expected
        got_spe = {_spe_key(p) for p, _ in spe_pairs}
        # Backward induction always finds a subgame-perfect profile.
        return set(nash) == want_nash and got_spe == want_spe and bool(got_spe)

    oracle_s = []
    return Op(
        _shape_name(moves),
        lambda: (og_solve.nash_sequential(sq), og_solve.spe_sequential(sq)),
        _oracle_check(oracle_s, oracle, compare),
        lambda answer: (list(answer[0])[:-1], answer[1]),
        oracle_s,
    )


def seq_spe(seed, pool):
    rng = random.Random(f"seq-spe/{seed}")
    return [[_seq_op(rng, m) for m in SEQ_LADDER] for _ in range(pool)]


# ---------------------------------------------------------------------------
# doc-cli: small documents through the in-process `og solve`.
# ---------------------------------------------------------------------------

# The bundled market entry document with the duopoly payoffs left open.
MARKET_TEMPLATE = """\
; Market entry with an outside option; duopoly payoffs drawn per variant.
(set MOVE (F A))
(set TWO (sum unit unit))
(payoff DUOPOLY (MOVE MOVE) 2
{duopoly})
(payoff STAY-OUT () 1
  (() -> (0)))
(diset PHI unit (real 1))
(diset DM MOVE (real 1))
(lens INTRO (compose (runit-inv PHI) (tensor (id PHI) (runit-inv I))))
(lens CLOSE (effect (tensor PHI (tensor DM DM))
{close}))
(game ENTRY (decision unit TWO))
(game WIRE-IN (trivial-lens INTRO))
(game WIRE-OUT (trivial-lens CLOSE))
(game PASS (unit PHI))
(game ENTRANT (decision unit MOVE))
(game INCUMBENT (decision unit MOVE))
(game OUT (utility STAY-OUT))
(expr STAGE (tensor PASS (tensor ENTRANT INCUMBENT)))
(expr ENTERED (seq WIRE-IN (seq STAGE WIRE-OUT)))
(expr BRANCHES (product OUT ENTERED))
(expr H (seq ENTRY BRANCHES))
"""

MOVES = ("F", "A")
ENTRY = ("inl(*)", "inr(*)")  # stay out, enter


def market_text(payoffs):
    duopoly = "\n".join(
        f"  (({e} {i}) -> ({payoffs[e, i][0]} {payoffs[e, i][1]}))"
        for e in MOVES
        for i in MOVES
    )
    close = "\n".join(
        f"  ((pair * (pair {e} {i})) -> (pair (vec {payoffs[e, i][0]}) "
        f"(pair (vec {payoffs[e, i][0]}) (vec {payoffs[e, i][1]}))))"
        for e in MOVES
        for i in MOVES
    )
    return MARKET_TEMPLATE.format(duopoly=duopoly, close=close)


def market_expected(payoffs, mode):
    """Profiles of H by brute force over (entry, entrant move, incumbent move).

    Staying out pays the entrant 0.  In `states` mode the duopoly moves
    only have to be mutual best responses when the entrant enters; in
    `separable` mode they must be an equilibrium of the duopoly either way.
    Entering must be weakly better than staying out, and vice versa.
    """
    def nash(e, i):
        ue, ui = payoffs[e, i]
        return all(payoffs[d, i][0] <= ue for d in MOVES) and all(
            payoffs[e, d][1] <= ui for d in MOVES
        )

    out = []
    for entry in ENTRY:
        for e in MOVES:
            for i in MOVES:
                ue = payoffs[e, i][0]
                if entry == ENTRY[0]:
                    ok = ue <= 0 and (mode == "states" or nash(e, i))
                else:
                    ok = ue >= 0 and nash(e, i)
                if ok:
                    out.append([entry, ["*", ["*", [["*", [e, i]], "*"]]]])
    return out


def _sets_and_payoff(names, table):
    lines = [f"(set S{i} ({' '.join(xs)}))" for i, xs in enumerate(names)]
    sets = " ".join(f"S{i}" for i in range(len(names)))
    rows = "\n".join(
        f"  (({' '.join(p)}) -> ({' '.join(str(q) for q in v)}))" for p, v in table.items()
    )
    lines.append(f"(payoff P ({sets}) {len(names)}\n{rows})")
    return "\n".join(lines) + "\n", sets


def classical_text(kind, names, table):
    body, sets = _sets_and_payoff(names, table)
    return body + f"({kind} G ({sets}) P)\n"


def render_stage(dom, values):
    """A stage strategy as `og` prints it: the move, or a history table."""
    if len(dom) == 1:
        return str(values[0])
    return "[" + ", ".join(
        f"({', '.join(h)})->{v}" for h, v in zip(dom, values)
    ) + "]"


def _histories(names, i):
    return list(itertools.product(*names[:i]))


def _canon(results):
    return sorted(json.dumps(r) for r in results)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = og_cli.main(argv)
    return code, out.getvalue()


def _report_ok(answer, expected, ordered, witnessed):
    code, text = answer
    if code != 0:
        return False
    report = json.loads(text)
    results = report["results"]
    if witnessed and len(report["witnesses"]) != len(results):
        return False
    if ordered:
        return results == expected
    return _canon(results) == _canon(expected)


def _corrupt_report(answer):
    code, text = answer
    report = json.loads(text)
    report["results"] = _drop_or_pad(report["results"], 1)
    return code, json.dumps(report)


def _doc_op(path, shape, mode, expect, ordered, witnessed):
    argv = ["solve", "--input", str(path), "--mode", mode]
    oracle_s = []
    return Op(
        shape,
        lambda: _run_cli(argv),
        _oracle_check(oracle_s, expect,
                      lambda got, want: _report_ok(got, want, ordered, witnessed)),
        _corrupt_report,
        oracle_s,
    )


DOC_NF = [(3, 3), (3, 3, 3), (2, 2, 2)]
DOC_SEQ = [(2, 2), (3, 3)]


def _doc_round(rng, workdir, r):
    ops = []
    payoffs = {(e, i): (_fraction(rng), _fraction(rng)) for e in MOVES for i in MOVES}
    path = workdir / f"market-{r}.og"
    path.write_text(market_text(payoffs), encoding="utf-8")
    for mode in ("states", "separable"):
        ops.append(
            _doc_op(path, f"market-{mode}", mode,
                    lambda mode=mode: market_expected(payoffs, mode),
                    ordered=True, witnessed=mode == "separable")
        )
    for moves in DOC_NF:
        names = _choice_names(moves)
        table = _payoff_table(rng, names)
        path = workdir / f"nf-{_shape_name(moves)}-{r}.og"
        path.write_text(classical_text("normal-form", names, table), encoding="utf-8")

        def expect(names=names, table=table):
            nf = _classical(og_classical.normal_form, names, table)
            return [list(p) for p in og_classical.brute_nash(nf)]

        ops.append(_doc_op(path, f"nf-{_shape_name(moves)}", "nash", expect,
                           ordered=True, witnessed=False))
    for moves in DOC_SEQ:
        names = _choice_names(moves)
        table = _payoff_table(rng, names)
        path = workdir / f"seq-{_shape_name(moves)}-{r}.og"
        path.write_text(classical_text("sequential", names, table), encoding="utf-8")

        def expect_nash(names=names, table=table):
            sq = _classical(og_classical.sequential_game, names, table)
            return [
                [render_stage(s.dom.elements, s.values) for s in p]
                for p in og_classical.sequential_nash(sq)
            ]

        def expect_spe(names=names, table=table):
            sq = _classical(og_classical.sequential_game, names, table)
            return [
                [render_stage(_histories(names, i), acts) for i, acts in enumerate(p)]
                for p in og_classical.oracle_spe(og_classical.embed_sequential(sq))
            ]

        shape = _shape_name(moves)
        ops.append(_doc_op(path, f"seq-{shape}-nash", "nash", expect_nash,
                           ordered=False, witnessed=False))
        ops.append(_doc_op(path, f"seq-{shape}-spe", "spe", expect_spe,
                           ordered=False, witnessed=True))
    return ops


def doc_cli(seed, pool, workdir):
    rng = random.Random(f"doc-cli/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return [_doc_round(rng, workdir, r) for r in range(pool)]


# ---------------------------------------------------------------------------
# laws: the in-process `og laws` on a fixed pool of law seeds.
# ---------------------------------------------------------------------------

LAW_TRIALS = 5


def _law_op(law_seed):
    argv = ["laws", "--trials", str(LAW_TRIALS), "--seed", str(law_seed)]

    def check(answer):
        code, text = answer
        if code != 0:
            return False
        report = json.loads(text)
        return bool(report["results"]) and not report["witnesses"] and all(
            r["trials"] == LAW_TRIALS and r["failures"] == 0 for r in report["results"]
        )

    def corrupt(answer):
        code, text = answer
        report = json.loads(text)
        report["results"][0]["failures"] = 1
        return code, json.dumps(report)

    return Op("laws", lambda: _run_cli(argv), check, corrupt, [])


def laws(seed, pool):
    """One round runs every law seed of the pool once, in a seeded order.

    The pool itself does not depend on the workload seed: the cost of a
    law trial is heavy-tailed (median ~5 ms, a few take over 1 s), so a
    seed-dependent sample of the size one run can afford would move
    `ops_per_s` by about 20% from seed to seed.
    """
    law_seeds = list(range(pool))
    random.Random(f"laws/{seed}").shuffle(law_seeds)
    return [[_law_op(s) for s in law_seeds]]


def build(name, seed, workdir):
    """The named workload's rounds; pools give about one pass per ten-second run."""
    if name == "nf-nash":
        return nf_nash(seed, pool=12)
    if name == "seq-spe":
        return seq_spe(seed, pool=24)
    if name == "doc-cli":
        return doc_cli(seed, pool=48, workdir=workdir)
    if name == "laws":
        return laws(seed, pool=64)
    raise ValueError(f"unknown workload {name!r}")
