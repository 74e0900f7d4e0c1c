"""Composition trees and the solvers built on them."""

import random
from fractions import Fraction
from itertools import product

import pytest

from opengames.classical import (
    normal_form,
    sequential_game,
    sequential_nash,
    sequential_spe,
)
from opengames.errors import TypeMismatch
from opengames.expr import (
    Atom,
    CertAtom,
    CertProduct,
    CertSeq,
    CertTensor,
    Product,
    Seq,
    Tensor,
    certificate_to_json,
    describe,
    eval_expr,
    separable_states_over,
    states_over,
)
from opengames.finite import (
    Payoff,
    UNIT,
    UNIT_SET,
    format_value,
    make_set,
    total_fn,
)
from opengames.games import copy_decision, decision
from opengames.solve import (
    build_sequential_expr,
    nash_normal_form,
    nash_sequential,
    solve,
    spe_sequential,
)
from helpers import random_normal_form, random_sequential

MOVES = make_set(["C", "D"])
Q = Fraction


def two_player(table):
    return normal_form([MOVES, MOVES], {k: (Q(a), Q(b)) for k, (a, b) in table.items()})


PD = two_player({("C", "C"): (2, 2), ("C", "D"): (0, 3), ("D", "C"): (3, 0), ("D", "D"): (1, 1)})
PENNIES = two_player(
    {("C", "C"): (1, -1), ("C", "D"): (-1, 1), ("D", "C"): (-1, 1), ("D", "D"): (1, -1)}
)


# ---------- normal-form solving ----------


def test_prisoners_dilemma():
    assert nash_normal_form(PD) == [("D", "D")]


def test_matching_pennies_has_no_pure_equilibrium():
    assert nash_normal_form(PENNIES) == []


def test_three_player_coordination():
    sides = make_set(["A", "B"])
    nf = normal_form(
        [sides, sides, sides],
        lambda p: (Q(1),) * 3 if len(set(p)) == 1 else (Q(0),) * 3,
    )
    assert nash_normal_form(nf) == [("A", "A", "A"), ("B", "B", "B")]


def test_nash_matches_brute_force(rng):
    from opengames.classical import brute_nash

    for _ in range(25):
        nf = random_normal_form(rng)
        assert nash_normal_form(nf) == brute_nash(nf)


def test_solve_normal_form_report():
    profiles, certificates = solve("normal-form", PD, "nash")
    assert [format_value(p) for p in profiles] == ["(D, D)"]
    assert len(profiles) == 1
    assert certificates == ()


# ---------- sequential solving ----------


def ultimatum():
    offers = make_set(["lo", "hi"])
    replies = make_set(["acc", "rej"])
    values = {
        ("lo", "acc"): (Q(3), Q(1)),
        ("hi", "acc"): (Q(2), Q(2)),
        ("lo", "rej"): (Q(0), Q(0)),
        ("hi", "rej"): (Q(0), Q(0)),
    }
    return sequential_game([offers, replies], values)


def test_ultimatum_nash_and_spe():
    sq = ultimatum()
    nash = nash_sequential(sq)
    assert len(nash) == 3
    assert set(nash) == set(sequential_nash(sq))
    spe = spe_sequential(sq)
    assert len(spe) == 1
    (profile, cert) = spe[0]
    proposer, responder = profile
    assert proposer(()) == "lo"
    assert responder(("lo",)) == "acc"
    assert responder(("hi",)) == "acc"
    assert isinstance(cert, CertSeq)


def test_sequential_matches_direct_oracles(rng):
    for _ in range(15):
        sq = random_sequential(rng)
        assert set(nash_sequential(sq)) == set(sequential_nash(sq))
        engine_spe = {p for p, _ in spe_sequential(sq)}
        assert engine_spe == set(sequential_spe(sq))


def test_refined_solutions_are_solutions(rng):
    for _ in range(10):
        sq = random_sequential(rng)
        nash = set(nash_sequential(sq))
        for profile, _ in spe_sequential(sq):
            assert profile in nash


# Strictly increasing maps of exact payoffs; -1/(x + 100) needs x > -100.
MONOTONE = (
    lambda x: 3 * x ** 3 + 1,
    lambda x: -1 / (x + 100),
    lambda x: 7 * x - Q(1, 3),
    lambda x: x ** 5,
)


def test_solutions_are_invariant_under_increasing_payoff_maps():
    """Each player's payoffs through one strictly increasing map leave every
    Nash and subgame-perfect answer as it was, order included."""
    def remapped(game, build, rng):
        maps = [rng.choice(MONOTONE) for _ in game.choices]
        return build(game.choices, lambda p: tuple(
            f(v) for f, v in zip(maps, game.payoff(p))))

    for seed in range(200):
        rng = random.Random(f"monotone/{seed}")
        nf = random_normal_form(rng)
        assert nash_normal_form(remapped(nf, normal_form, rng)) == nash_normal_form(nf), seed
        sq = random_sequential(rng)
        moved = remapped(sq, sequential_game, rng)
        assert nash_sequential(moved) == nash_sequential(sq), seed
        assert [p for p, _ in spe_sequential(moved)] == [p for p, _ in spe_sequential(sq)], seed


# The nf-nash ladder of the benchmark, as moves per player.
LADDER = [(8, 8), (16, 16), (4, 4, 4), (3, 3, 3, 3), (2,) * 5, (4,) * 4, (3,) * 5]


def _ladder_normal_form(rng, moves):
    """Payoffs in 0..3, so ties are common."""
    choices = [make_set([f"{chr(97 + i)}{j}" for j in range(m)]) for i, m in enumerate(moves)]
    return normal_form(choices, lambda p: tuple(Q(rng.randint(0, 3)) for _ in moves))


def test_player_permutations_permute_nash_profiles():
    """Permuting the players, payoff coordinates included, permutes the Nash
    profiles, which are then listed in canonical order."""
    from opengames.classical import brute_nash

    def permuted(nf, perm):  # player j of the result is player perm[j] of nf
        back = [perm.index(m) for m in range(len(perm))]
        return normal_form([nf.choices[m] for m in perm], lambda p: tuple(
            nf.payoff(tuple(p[j] for j in back))[m] for m in perm))

    def canonical(nf, profiles):
        return sorted(profiles, key=lambda p: [xs.index(x) for xs, x in zip(nf.choices, p)])

    rng = random.Random("permute")
    games = [random_normal_form(random.Random(f"permute/{seed}"), max_players=4) for seed in range(200)]
    ladder = [_ladder_normal_form(rng, moves) for moves in LADDER for _ in range(2)]
    for nf in ladder:
        assert nash_normal_form(nf) == brute_nash(nf)
    for n, nf in enumerate(games + ladder):
        perm = rng.sample(range(nf.players), nf.players)
        want = canonical(permuted(nf, perm), [tuple(p[m] for m in perm) for p in nash_normal_form(nf)])
        assert nash_normal_form(permuted(nf, perm)) == want, (n, perm)


def test_one_player_and_tied_normal_forms_match_brute_force():
    from opengames.classical import brute_nash

    solo = normal_form([make_set(["a", "b", "c"])], {("a",): (Q(1),), ("b",): (Q(2),), ("c",): (Q(2),)})
    assert nash_normal_form(solo) == brute_nash(solo) == [("b",), ("c",)]
    flat = normal_form([MOVES, make_set(["x", "y", "z"]), MOVES], lambda p: (Q(0),) * 3)  # all tie
    assert nash_normal_form(flat) == brute_nash(flat) == list(flat.payoff.dom)
    rng = random.Random("ties")
    for moves in [(1,), (3,), (2, 1), (2, 3), (3, 2, 2), (2, 2, 2, 2), (1, 3, 1, 2)] * 5:
        choices = [make_set([f"{chr(97 + i)}{j}" for j in range(m)]) for i, m in enumerate(moves)]
        nf = normal_form(choices, lambda p: tuple(Q(rng.randint(0, 1)) for _ in moves))
        assert nash_normal_form(nf) == brute_nash(nf), moves


def test_solve_sequential_modes():
    sq = ultimatum()
    profiles, certificates = solve("sequential", sq, "nash")
    assert len(profiles) == 3 and certificates == ()
    profiles, certificates = solve("sequential", sq, "spe")
    assert len(profiles) == len(certificates) == 1
    with pytest.raises(TypeMismatch):
        solve("sequential", sq, "minimax")


# ---------- structural properties of the tree solvers ----------


def _assoc_pair(nf):
    """The same three-way tensor nested both ways, with matched continuations."""
    atoms = [Atom(decision(UNIT_SET, xs)) for xs in nf.choices]
    left = Tensor(Tensor(atoms[0], atoms[1]), atoms[2])
    rights = [Atom(decision(UNIT_SET, xs)) for xs in nf.choices]
    right = Tensor(rights[0], Tensor(rights[1], rights[2]))
    gl, gr = eval_expr(left), eval_expr(right)

    def pack_left(q):
        return ((q[0:1], q[1:2]), q[2:3])

    def pack_right(q):
        return (q[0:1], (q[1:2], q[2:3]))

    kl = total_fn(
        gl.dst.forward,
        gl.dst.backward,
        lambda y: pack_left(nf.payoff(((y[0][0], y[0][1], y[1])))),
    )
    kr = total_fn(
        gr.dst.forward,
        gr.dst.backward,
        lambda y: pack_right(nf.payoff(((y[0], y[1][0], y[1][1])))),
    )
    return (left, kl), (right, kr)


def _flat_choices(profile, shape):
    if shape == "left":
        return (profile[0][0](UNIT), profile[0][1](UNIT), profile[1](UNIT))
    return (profile[0](UNIT), profile[1][0](UNIT), profile[1][1](UNIT))


def test_states_survive_reassociation(rng):
    for _ in range(10):
        nf = random_normal_form(rng)
        if nf.players != 3:
            continue
        (left, kl), (right, kr) = _assoc_pair(nf)
        from_left = {_flat_choices(p, "left") for p in states_over(left, kl)}
        from_right = {_flat_choices(p, "right") for p in states_over(right, kr)}
        assert from_left == from_right


def test_separable_certificate_shapes():
    expr, k = build_sequential_expr(ultimatum())
    pairs = separable_states_over(expr, k)
    assert len(pairs) == 1
    cert = pairs[0][1]
    assert isinstance(cert, CertSeq)
    assert isinstance(cert.first, CertAtom)
    assert isinstance(cert.second, CertAtom)
    second = eval_expr(expr.second)
    from opengames.lenses import apply_continuation

    t = second.strategies.index(cert.second.profile)
    assert cert.cut == apply_continuation(second.play(t), k)


def test_tensor_certificates_cover_partner_histories():
    a = Atom(copy_decision([MOVES]))
    b = Atom(copy_decision([MOVES]))
    expr = Tensor(a, b)
    g = eval_expr(expr)
    k = total_fn(
        g.dst.forward,
        g.dst.backward,
        lambda y: ((Q(1),) if y[0] == "C" else (Q(0),), (Q(1),) if y[1] == "D" else (Q(0),)),
    )
    pairs = separable_states_over(expr, k)
    assert len(pairs) == 1
    profile, cert = pairs[0]
    assert profile[0](UNIT) == "C"
    assert profile[1](UNIT) == "D"
    assert isinstance(cert, CertTensor)
    assert [h for h, _ in cert.left] == list(eval_expr(b).src.forward)
    assert all(isinstance(c, CertAtom) for _, c in cert.left)


def test_product_certificates_split_by_tag():
    a = Atom(decision(UNIT_SET, MOVES))
    b = Atom(decision(MOVES, MOVES))
    expr = Product((a, b))
    g = eval_expr(expr)
    k = total_fn(
        g.dst.forward,
        Payoff(1),
        lambda t: (Q(1),) if (t.side == 0) == (t.value == "C") else (Q(0),),
    )
    pairs = separable_states_over(expr, k)
    assert len(pairs) == 1
    profile, cert = pairs[0]
    assert isinstance(cert, CertProduct)
    assert len(cert.children) == 2
    assert cert.children[0].continuation("C") == (Q(1),)
    assert cert.children[1].continuation("C") == (Q(0),)
    assert {p for p, _ in pairs} <= set(states_over(expr, k))


def test_factor_continuations_are_built_once(rng, monkeypatch):
    """No (continuation, partner move) pair reaches a factor's builder twice."""
    import opengames.expr as og_expr
    import opengames.games as og_games
    from opengames.classical import brute_nash
    from helpers import random_fraction

    built = []
    build = og_games.factor_continuation

    def recording(k, side, move, dst):
        built.append((side, k, move))
        return build(k, side, move, dst)

    monkeypatch.setattr(og_games, "factor_continuation", recording)

    moves = make_set(["a", "b", "c", "d"])
    nf = normal_form([moves] * 3, lambda p: tuple(random_fraction(rng) for _ in range(3)))
    assert nash_normal_form(nf) == brute_nash(nf)
    assert built and len(set(built)) == len(built)

    # Below, every payoff coordinate is injective, so no two partner moves give
    # equal factor tables; without a Seq node each (subexpression,
    # continuation) pair must then reach the separable recursion once.
    separable_calls = []
    separable = og_expr._separable

    def recording_separable(expr, k, memo):
        separable_calls.append((expr, k))
        return separable(expr, k, memo)

    monkeypatch.setattr(og_expr, "_separable", recording_separable)
    built.clear()
    expr = Product((
        Tensor(Atom(decision(MOVES, MOVES)), Atom(decision(make_set([0, 1, 2]), MOVES))),
        Tensor(Atom(decision(UNIT_SET, MOVES)), Atom(decision(UNIT_SET, MOVES))),
    ))
    g = eval_expr(expr)
    ranks = [list(range(len(g.dst.forward))) for _ in range(2)]
    for r in ranks:
        rng.shuffle(r)
    k = total_fn(
        g.dst.forward,
        g.dst.backward,
        lambda y: tuple((Q(r[g.dst.forward.index(y)]),) for r in ranks),
    )
    states = states_over(expr, k)
    assert built and len(set(built)) == len(built)
    separable_profiles = [p for p, _ in separable_states_over(expr, k)]
    assert set(separable_profiles) <= set(states)
    assert len(set(separable_calls)) == len(separable_calls) > 3


def test_nash_never_tests_a_composite_best_response(rng, monkeypatch):
    """Composite states come from their parts' states, not from `best`."""
    import opengames.games as og_games
    from opengames.classical import brute_nash
    from helpers import random_fraction

    calls = {}
    best = og_games.OpenGame.best

    def counting(self, *args):
        calls[self.label] = calls.get(self.label, 0) + 1
        return best(self, *args)

    monkeypatch.setattr(og_games.OpenGame, "best", counting)
    sets = [make_set(["a0", "a1", "a2"]), make_set(["b0", "b1"]), make_set(["c0", "c1"])]
    table = {p: tuple(random_fraction(rng) for _ in range(3)) for p in product(*sets)}
    sq = sequential_game(sets, lambda p: table[p])
    assert set(nash_sequential(sq)) == set(sequential_nash(sq))
    moves = make_set(["m0", "m1", "m2"])
    nf = normal_form([moves] * 4, lambda p: tuple(random_fraction(rng) for _ in range(4)))
    assert nash_normal_form(nf) == brute_nash(nf)
    assert not {"seq", "tensor", "product"} & set(calls), calls


def test_nash_states_derive_factor_tables_without_scans_or_hashes(monkeypatch):
    """On a prebuilt 5-player tensor, states neither re-check payoff tables nor
    hash any table, a strategy included: plays are asked by index.

    Each factor table is built once per state search (one continuation),
    side and fibre of partner moves.
    """
    import random

    import opengames.finite as og_finite
    import opengames.games as og_games
    from opengames.classical import brute_nash
    from opengames.finite import TotalFn
    from helpers import random_fraction
    from opengames.solve import build_normal_form_expr

    rng = random.Random(5)
    nf = normal_form([MOVES] * 5, lambda p: tuple(random_fraction(rng) for _ in range(5)))
    expr, k = build_normal_form_expr(nf)
    eval_expr(expr)

    scans, hashed, built, seen = [], [], {}, []
    contains = og_finite.carrier_contains
    table_hash = TotalFn.__hash__

    def scanning(carrier, v):
        scans.append(carrier)
        return contains(carrier, v)

    def hashing(fn):
        hashed.append(fn.cod)
        return table_hash(fn)

    build = og_games.factor_continuation

    def recording(k, side, partners, dst):
        seen.append(k)  # keeps each id unique while counting
        key = (id(k), side, partners)
        built[key] = built.get(key, 0) + 1
        return build(k, side, partners, dst)

    monkeypatch.setattr(og_finite, "carrier_contains", scanning)
    monkeypatch.setattr(TotalFn, "__hash__", hashing)
    monkeypatch.setattr(og_games, "factor_continuation", recording)
    profiles = states_over(expr, k)
    monkeypatch.undo()

    assert [tuple(s(UNIT) for s in p) for p in profiles] == brute_nash(nf)
    assert not scans, scans[:3]
    assert not hashed, hashed[:3]
    assert built and max(built.values()) == 1


def test_nash_states_read_payoff_tables_by_index(monkeypatch):
    """On a prebuilt 5-player, 3-move tensor of decisions, states look up no row of
    a payoff table: factor tables are strides and blocks, argmaxes read rows in
    order.  Views, tables into finite sets, may still be called."""
    import random

    from opengames.classical import brute_nash
    from opengames.finite import FiniteSet, TotalFn
    from helpers import random_fraction
    from opengames.solve import build_normal_form_expr

    rng = random.Random(17)
    moves = make_set(["m0", "m1", "m2"])
    nf = normal_form([moves] * 5, lambda p: tuple(random_fraction(rng) for _ in range(5)))
    expr, k = build_normal_form_expr(nf)
    eval_expr(expr)

    looked_up = []
    call = TotalFn.__call__

    def recording(fn, x):
        if not isinstance(fn.cod, FiniteSet):
            looked_up.append(fn.cod)
        return call(fn, x)

    monkeypatch.setattr(TotalFn, "__call__", recording)
    profiles = states_over(expr, k)
    monkeypatch.undo()

    assert not looked_up, looked_up[:3]
    assert [tuple(s(UNIT) for s in p) for p in profiles] == brute_nash(nf)


def _staged(rng, moves):
    from helpers import random_fraction

    sets = [make_set([f"{'abc'[i]}{j}" for j in range(m)]) for i, m in enumerate(moves)]
    table = {p: tuple(random_fraction(rng) for _ in moves) for p in product(*sets)}
    return sequential_game(sets, lambda p: table[p])


def _patch_everywhere(monkeypatch, name, wrap):
    """Replace `name` in every engine module that binds it."""
    import sys

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("opengames") and hasattr(mod, name):
            monkeypatch.setattr(mod, name, wrap(getattr(mod, name)))


@pytest.mark.parametrize("moves", [(3, 2, 2), (2, 2, 3)])
def test_sequential_solves_build_no_composite_play_lens(rng, monkeypatch, moves):
    """Cuts are pulled back stage by stage, through each stage's own lens."""
    sq = _staged(rng, moves)
    composed = []

    def counting(compose):
        def wrapped(*args):
            composed.append(args)
            return compose(*args)

        return wrapped

    _patch_everywhere(monkeypatch, "lens_compose", counting)
    assert set(nash_sequential(sq)) == set(sequential_nash(sq))
    assert set(p for p, _ in spe_sequential(sq)) == set(sequential_spe(sq))
    assert not composed


@pytest.mark.parametrize("moves", [(3, 2, 2), (2, 2, 3)])
def test_build_sequential_expr_hashes_no_strategy(rng, monkeypatch, moves):
    """Stage and composite strategy sets are distinct by construction; none is rehashed."""
    from opengames.finite import TotalFn

    sq = _staged(rng, moves)
    hashed = []
    table_hash = TotalFn.__hash__

    def hashing(fn):
        hashed.append(fn)
        return table_hash(fn)

    monkeypatch.setattr(TotalFn, "__hash__", hashing)
    build_sequential_expr(sq)
    assert not hashed


def test_nash_sequential_checks_tables_only_in_apply_continuation(rng, monkeypatch):
    """Stage strategies, play views and flattened profiles are derived tables."""
    import sys

    import opengames.finite as og_finite

    sq = _staged(rng, (3, 2, 2))
    outside = []
    contains = og_finite.carrier_contains

    def scanning(carrier, v):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "apply_continuation":
            frame = frame.f_back
        if frame is None:
            outside.append((carrier, v))
        return contains(carrier, v)

    monkeypatch.setattr(og_finite, "carrier_contains", scanning)
    profiles = nash_sequential(sq)
    monkeypatch.undo()
    assert set(profiles) == set(sequential_nash(sq))
    assert not outside, outside[:3]


def test_separable_checks_the_continuation_boundary():
    expr = Atom(decision(UNIT_SET, MOVES))
    bad = total_fn(UNIT_SET, Payoff(1), lambda _: (Q(0),))
    with pytest.raises(TypeMismatch):
        separable_states_over(expr, bad)


def test_solve_expr_modes():
    expr = Atom(decision(UNIT_SET, MOVES))
    k = total_fn(MOVES, Payoff(1), {"C": (Q(0),), "D": (Q(1),)})
    profiles, _ = solve("expr", expr, "states", k)
    assert len(profiles) == 1
    _, certificates = solve("expr", expr, "separable", k)
    assert len(certificates) == 1
    with pytest.raises(TypeMismatch):
        solve("expr", expr, "nash", k)


# ---------- rendering ----------


def test_describe_spells_out_the_tree():
    expr = Seq(Atom(decision(UNIT_SET, MOVES)), Atom(copy_decision([MOVES, MOVES])))
    assert describe(expr) == "seq(decision, copy-decision)"


def test_certificate_json_truncates_big_tables():
    expr, k = build_sequential_expr(ultimatum())
    (_, cert), = separable_states_over(expr, k)
    body = certificate_to_json(cert, max_table=16)
    assert body["kind"] == "seq"
    assert body["first"]["kind"] == "atom"
    assert isinstance(body["cut"], list)
    tiny = certificate_to_json(cert, max_table=1)
    assert tiny["cut"] == {"size": 2}


def test_separable_profiles_come_in_composite_strategy_order(rng):
    """Ranks from the expression's parts order profiles as the composite lists them."""
    moves, xs = make_set(["C", "D"]), make_set(["x0", "x1"])
    chain = Seq(Atom(copy_decision([moves])), Seq(Atom(copy_decision([moves, moves])),
                                                  Atom(copy_decision([moves, moves, moves]))))
    split = Product((
        Tensor(Atom(decision(xs, moves)), Atom(decision(UNIT_SET, moves))),
        Tensor(Atom(decision(UNIT_SET, moves)), Atom(decision(moves, moves))),
    ))

    def value(carrier, tie):
        if isinstance(carrier, Payoff):
            return tuple(Fraction(0 if tie else rng.randint(0, 1)) for _ in range(carrier.dim))
        return (value(carrier.parts[0], tie), value(carrier.parts[1], tie))

    for expr in (chain, split):
        game = eval_expr(expr)
        for tie in (True, False):
            back = game.dst.backward
            k = total_fn(game.dst.forward, back, lambda _: value(back, tie))
            got = [p for p, _ in separable_states_over(expr, k)]
            assert len(got) > 1
            assert got == sorted(got, key=game.strategies.index)


def test_flat_and_nested_products_list_histories_in_one_order(rng):
    """A stage strategy keeps its table when relabelled from nested to flat histories."""
    from opengames.finite import flat_product, nest_value, nested_product

    for n in range(5):
        for _ in range(10):  # sets of 0 to 3 elements, the empty set included
            sets = [make_set(tuple(f"h{i}{j}" for j in range(rng.randint(0, 3))))
                    for i in range(n)]
            assert [nest_value(xs) for xs in flat_product(sets)] == list(nested_product(sets))


@pytest.mark.parametrize("moves", [(3, 3), (4, 4), (2, 2, 2), (3, 2, 2), (2, 2, 3)])
def test_sequential_profiles_read_each_history_as_before(rng, moves):
    """Relabelled stage strategies equal a checked lookup at each nested history."""
    from opengames.finite import flat_product, nest_value
    from opengames.solve import sequential_profiles

    def by_history(sq, nested):
        n = sq.players
        out = []
        for p in nested:
            stages = []
            for _ in range(n - 1):
                stages.append(p[0])
                p = p[1]
            stages.append(p)
            out.append(tuple(
                total_fn(flat_product(sq.choices[:i]), sq.choices[i], lambda xs: s(nest_value(xs)))
                for i, s in enumerate(stages)
            ))
        return out

    sq = _staged(rng, moves)
    expr, k = build_sequential_expr(sq)
    for nested in (states_over(expr, k), [p for p, _ in separable_states_over(expr, k)]):
        assert nested
        assert sequential_profiles(sq, nested) == by_history(sq, nested)
