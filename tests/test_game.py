"""Open games: atomic builders, composition operators, state computation."""

import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opengames.classical import brute_nash, normal_form
from opengames.errors import EmptyChoiceSet, EnumerationBound, TypeMismatch
from opengames.finite import (
    FiniteSet,
    PairCarrier,
    Payoff,
    Tag,
    TotalFn,
    UNIT,
    UNIT_SET,
    _derived_fn,
    _derived_set,
    format_fn,
    flatten_value,
    format_value,
    make_set,
    nest_value,
    total_fn,
)
from opengames.games import (
    OpenGame,
    _argmax,
    best_response,
    copy_decision,
    copy_decision_composite,
    decision,
    game_states,
    product_games,
    reindex_source,
    reindex_strategies,
    reindex_target,
    seq_compose,
    tensor_games,
    trivial_game,
    unit_game,
    utility_game,
)
from opengames.lenses import (
    Context,
    Diset,
    UNIT_DISET,
    apply_continuation,
    branch_continuation,
    diset_tensor,
    factor_continuation,
    left_context,
    lens_identity,
    right_context,
    runit_inv_lens,
    swap_lens,
)
from opengames.sampling import random_diset, random_finite_set, random_game, random_lens

MOVES = make_set(["C", "D"])
Q = lambda n: (Fraction(n),)


def const_strategy(game, choice):
    """The constant strategy of a one-shot decision."""
    for s in game.strategies:
        if s(UNIT) == choice:
            return s
    raise AssertionError(f"no constant strategy for {choice!r}")


# ---------- atomic games ----------


def test_decision_best_is_argmax():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(1), "D": Q(4)})
    sc, sd = const_strategy(g, "C"), const_strategy(g, "D")
    assert g.best(UNIT, k, sc, sd)
    assert not g.best(UNIT, k, sc, sc)
    assert game_states(g, k) == [sd]
    tie = total_fn(MOVES, Payoff(1), {"C": Q(2), "D": Q(2)})
    assert game_states(g, tie) == [sc, sd]


class _Score:
    """A score that counts the comparisons made on it."""

    made = {">": 0, "==": 0}

    def __init__(self, v):
        self.v = v

    def __gt__(self, other):
        _Score.made[">"] += 1
        return self.v > other.v

    def __eq__(self, other):
        _Score.made["=="] += 1
        return self.v == other.v


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=1))
def test_argmax_is_the_indices_of_the_top_scores(scores):
    """One pass: the ties of the maximum, in order, with one `>` and at most one
    `==` per score after the first."""
    assert _argmax(scores) == [j for j, v in enumerate(scores) if v >= max(scores)]
    _Score.made.update({">": 0, "==": 0})
    assert _argmax(list(map(_Score, scores))) == _argmax(scores)
    assert _Score.made[">"] == len(scores) - 1 and _Score.made["=="] <= len(scores) - 1


def test_argmax_edges():
    assert _argmax([Fraction(3)]) == [0]
    assert _argmax([Fraction(2)] * 4) == [0, 1, 2, 3]
    assert _argmax([1, 5, 2, 5, 5, 0]) == [1, 3, 4]
    assert _argmax([5, 1, 6, 6]) == [2, 3]


def test_one_shot_states_reject_a_continuation_on_another_domain():
    """A decision and a copy decision read their continuation by row index, so
    one on any other domain is a type error, also when its rows would look up."""
    g = decision(MOVES, MOVES)
    wider = make_set(["C", "D", "E"])
    for dom in (wider, make_set(["D", "C"]), UNIT_SET):
        with pytest.raises(TypeMismatch):
            g.states(["C"], total_fn(dom, Payoff(1), lambda _: Q(0)))
    for sets in ([MOVES], [MOVES, MOVES]):
        c = copy_decision(sets)
        out = c.dst.forward
        other = MOVES if len(sets) > 1 else UNIT_SET
        for dom in (make_set(list(out) + [("E", "E")]), make_set(reversed(out.elements)), other):
            k = total_fn(dom, Payoff(len(sets)), lambda _: (Fraction(0),) * len(sets))
            with pytest.raises(TypeMismatch):
                c.states(list(c.src.forward), k)
    # The same tables on the right domain are read; a tie keeps every index.
    k = total_fn(MOVES, Payoff(1), lambda _: Q(0))
    assert g.states(["C"], k) == list(range(len(g.strategies)))


def test_one_shot_states_reject_a_continuation_off_their_payoff_carrier():
    """A continuation on the right domain whose values are not payoffs of the
    game's dimension is a type error wherever states or best responses are
    asked, also through a tensor: a Q^2 table is not scored by its first
    coordinate, strings are not compared as strings, and ints do not end in
    a raw `TypeError`."""
    from opengames.expr import Atom, Tensor, eval_expr, separable_states_over, states_over

    g = decision(UNIT_SET, MOVES)
    wide = total_fn(MOVES, Payoff(2), {"C": Q(1) + Q(0), "D": Q(2) + Q(-5)})
    ints = total_fn(MOVES, make_set([5, 6]), {"C": 5, "D": 6})
    strs = total_fn(MOVES, make_set(["x10", "x9"]), {"C": "x10", "D": "x9"})
    probes = [
        lambda g, k: game_states(g, k),
        lambda g, k: separable_states_over(Atom(g), k),
        lambda g, k: g.relation(next(iter(g.src.forward)), k, {}),
        lambda g, k: g.responses(next(iter(g.src.forward)), k, next(iter(g.strategies))),
        lambda g, k: best_response(g, Context(next(iter(g.src.forward)), k),
                                   *[next(iter(g.strategies))] * 2),
    ]
    for k in (wide, ints, strs):
        for probe in probes:
            with pytest.raises(TypeMismatch):
                probe(g, k)
    c = copy_decision([MOVES, MOVES])
    out = c.dst.forward
    for k in (
        total_fn(out, Payoff(3), lambda _: (Fraction(0),) * 3),
        total_fn(out, make_set([5]), lambda _: 5),
        total_fn(out, make_set(["ab"]), lambda _: "ab"),
    ):
        for probe in probes:
            with pytest.raises(TypeMismatch):
                probe(c, k)
    both = Tensor(Atom(decision(UNIT_SET, MOVES)), Atom(decision(UNIT_SET, MOVES)))
    joint = eval_expr(both).dst.forward
    for dom in (joint, make_set(joint.elements)):  # factor tables by index, then by lookup
        for k in (total_fn(dom, make_set([5]), lambda _: 5),
                  total_fn(dom, make_set(["x"]), lambda _: "x"),
                  total_fn(dom, make_set([(Q(0),)]), lambda _: (Q(0),))):  # no right part
            with pytest.raises(TypeMismatch):
                states_over(both, k)
    # A table into an equal carrier, or checked values in a wider one, is read.
    same = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(1)})
    loose = total_fn(MOVES, make_set([Q(0), Q(1)]), {"C": Q(0), "D": Q(1)})
    assert game_states(g, same) == game_states(g, loose) == [const_strategy(g, "D")]


def test_decision_play_lens():
    g = decision(MOVES, MOVES)
    flip = total_fn(MOVES, MOVES, {"C": "D", "D": "C"})
    lens = g.play(g.strategies.index(flip))
    assert lens.view == flip
    assert lens.update_at("C", Q(7)) == UNIT


def test_decision_best_ignores_current_strategy_argument():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(9)})
    sc, sd = const_strategy(g, "C"), const_strategy(g, "D")
    assert g.best(UNIT, k, sd, sd)
    assert g.best(UNIT, k, sc, sd)


def test_empty_choice_set_is_rejected():
    with pytest.raises(EmptyChoiceSet):
        decision(UNIT_SET, make_set([]))
    with pytest.raises(EmptyChoiceSet):
        copy_decision([])
    with pytest.raises(EmptyChoiceSet):
        copy_decision([MOVES, make_set([])])


def test_copy_decision_boundaries_and_play():
    g = copy_decision([MOVES, MOVES])
    assert g.src == Diset(MOVES, Payoff(1))
    assert g.dst == Diset(make_set([(a, b) for a in MOVES for b in MOVES]), Payoff(2))
    copycat = total_fn(MOVES, MOVES, {"C": "C", "D": "D"})
    lens = g.play(g.strategies.index(copycat))
    assert lens.view("C") == ("C", "C")
    assert lens.update_at("D", (Fraction(5), Fraction(6))) == (Fraction(5),)


def test_copy_decision_single_stage_is_plain_view():
    g = copy_decision([MOVES])
    assert g.src == Diset(UNIT_SET, Payoff(0))
    s = const_strategy(g, "D")
    assert g.play(g.strategies.index(s)).view(UNIT) == "D"


def test_copy_decision_best_looks_only_at_own_coordinate():
    g = copy_decision([MOVES, MOVES])
    k = total_fn(
        g.dst.forward,
        Payoff(2),
        {
            ("C", "C"): (Fraction(9), Fraction(0)),
            ("C", "D"): (Fraction(0), Fraction(1)),
            ("D", "C"): (Fraction(0), Fraction(1)),
            ("D", "D"): (Fraction(9), Fraction(0)),
        },
    )
    flip = total_fn(MOVES, MOVES, {"C": "D", "D": "C"})
    copycat = total_fn(MOVES, MOVES, {"C": "C", "D": "D"})
    assert g.best("C", k, copycat, flip)
    assert not g.best("C", k, flip, copycat)
    assert game_states(g, k) == [flip]


def test_unit_and_trivial_games_are_always_best():
    d = Diset(MOVES, Payoff(1))
    u = unit_game(d)
    assert u.play(0).view("C") == "C"
    assert u.best("C", None, UNIT, UNIT)
    t = trivial_game(runit_inv_lens(d), label="plumbing")
    assert t.label == "plumbing"
    assert t.best("C", None, UNIT, UNIT)


def test_utility_game_closes_the_boundary():
    payout = total_fn(MOVES, Payoff(1), {"C": Q(1), "D": Q(2)})
    g = utility_game(payout)
    lens = g.play(0)
    assert lens.cod.forward == UNIT_SET
    assert lens.update_at("D", UNIT) == Q(2)


# ---------- composition ----------


def test_seq_requires_matching_boundary():
    g = decision(UNIT_SET, MOVES)
    with pytest.raises(TypeMismatch):
        seq_compose(g, g)


def test_seq_decision_then_utility():
    payout = total_fn(MOVES, Payoff(1), {"C": Q(2), "D": Q(5)})
    g = seq_compose(decision(UNIT_SET, MOVES), utility_game(payout))
    k = total_fn(UNIT_SET, UNIT_SET, lambda _: UNIT)
    states = game_states(g, k)
    assert len(states) == 1
    assert states[0][0](UNIT) == "D"


def test_tensor_prisoners_dilemma():
    g = tensor_games(decision(UNIT_SET, MOVES), decision(UNIT_SET, MOVES))
    table = {
        ("C", "C"): (Q(2), Q(2)),
        ("C", "D"): (Q(0), Q(3)),
        ("D", "C"): (Q(3), Q(0)),
        ("D", "D"): (Q(1), Q(1)),
    }
    k = total_fn(g.dst.forward, g.dst.backward, table)
    states = game_states(g, k)
    assert [(a(UNIT), b(UNIT)) for a, b in states] == [("D", "D")]
    nf = normal_form(
        [MOVES, MOVES],
        {p: (v[0][0], v[1][0]) for p, v in table.items()},
    )
    assert brute_nash(nf) == [("D", "D")]


def test_tensor_coordination_matches_brute_force():
    g = tensor_games(decision(UNIT_SET, MOVES), decision(UNIT_SET, MOVES))
    table = {
        ("C", "C"): (Q(2), Q(2)),
        ("C", "D"): (Q(0), Q(0)),
        ("D", "C"): (Q(0), Q(0)),
        ("D", "D"): (Q(1), Q(1)),
    }
    k = total_fn(g.dst.forward, g.dst.backward, table)
    got = [(a(UNIT), b(UNIT)) for a, b in game_states(g, k)]
    assert got == [("C", "C"), ("D", "D")]


def test_nary_tensor_agrees_with_the_left_nested_binary_tensor():
    """`tensor_games(g1, ..., gn)` is `((g1 x g2) x ...) x gn` up to reassociation:
    the same strategy indices, and values that nest the flat tuples to the left
    (one factor's tensor holds 1-tuples).  States, rows, transport and reach agree
    at random histories, on random games and on decisions with histories."""
    rng = random.Random("n-ary tensor")
    for trial in range(60):
        n = trial % 4 + 1
        if trial % 3:
            games = [random_game(rng) for _ in range(n)]
        else:
            games = [decision(random_finite_set(rng, prefix=f"x{j}"),
                              random_finite_set(rng, max_size=3, prefix=f"y{j}")) for j in range(n)]
        flat, nested = tensor_games(*games), functools.reduce(tensor_games, games)
        assert [nest_value(s) for s in flat.strategies] == list(nested.strategies)
        assert [nest_value(x) for x in flat.src.forward] == list(nested.src.forward)
        for _ in range(3):
            k = total_fn(flat.dst.forward, flat.dst.backward,
                         lambda y: _random_value(rng, flat.dst.backward))
            kn = total_fn(nested.dst.forward, nested.dst.backward,
                          lambda y: nest_value(k(flatten_value(y, n))))
            hists = rng.sample(flat.src.forward.elements, rng.randint(1, len(flat.src.forward)))
            nhists = [nest_value(h) for h in hists]
            assert flat.states(hists, k) == nested.states(nhists, kn), trial
            for h in hists:
                assert flat.rows(h, k) == nested.rows(nest_value(h), kn), trial
            for i in range(len(flat.strategies)):
                assert [nest_value(r) for r in flat.transport(i, k).values] == list(
                    nested.transport(i, kn).values), trial
                assert [nest_value(y) for y in flat.reach(i, hists)] == nested.reach(i, nhists)


def test_tensor_best_with_histories_matches_the_definition():
    """Many partner strategies make the same move at a history; each must still count."""
    left = decision(MOVES, MOVES)
    right = decision(make_set([0, 1, 2]), MOVES)
    g = tensor_games(left, right)
    rng = random.Random(20240611)

    def argmax(payoff, move):
        return all(payoff(move) >= payoff(alt) for alt in MOVES)

    for _ in range(6):
        k = total_fn(
            g.dst.forward,
            g.dst.backward,
            lambda y: (Q(rng.randint(0, 2)), Q(rng.randint(0, 2))),
        )

        def best(h, s, d):
            (h1, h2), (s1, s2), (d1, d2) = h, s, d
            return argmax(lambda y1: k((y1, s2(h2)))[0], d1(h1)) and argmax(
                lambda y2: k((s1(h1), y2))[1], d2(h2)
            )

        memo = {}
        for h in g.src.forward:
            expected = {s: tuple(d for d in g.strategies if best(h, s, d)) for s in g.strategies}
            assert g.relation(h, k, memo) == expected
        expected = [
            s for s in g.strategies if all(best(h, s, s) for h in g.src.forward)
        ]
        assert game_states(g, k) == expected


# ---------- reference best responses ----------
#
# Each constructor's best-response predicate best(h, k, s, d), written
# pairwise from its definition.  References read plays, views and
# continuation builders only, never a game's `best`, `relation`,
# `responses` or `states`, so the differential tests below check the
# engine against something other than itself.  The builders return each
# game together with its reference.  Atoms cache their answers and
# composites the continuations they build, as both recur below a composite.


def _always(h, k, s, d):
    """Unit and trivial games: the one strategy is always a best response."""
    return True


def _decision_best(y):
    """decision(x, y): `d` plays into the argmax of `k` at `h`."""

    @functools.cache
    def best(h, k, s, d):
        return all(k(d(h)) >= k(alt) for alt in y)

    return best


def _copy_decision_best(sets):
    """copy_decision(sets): `d` maximizes the last payoff coordinate at `h`."""
    n, last = len(sets), sets[-1]

    def own(h, k, choice):
        return k(choice if n == 1 else (h, choice))[n - 1]

    @functools.cache
    def best(h, k, s, d):
        return all(own(h, k, d(h)) >= own(h, k, alt) for alt in last)

    return best


def _atom_best(g, kind):
    """`random_game`'s rule: the top rank of where `k` lands, or an md5 coin per pair."""
    if kind == "argmax":

        def score(h, k, t):
            return g.dst.backward.index(k(g.play(g.strategies.index(t)).view(h)))

        def best(h, k, s, d):
            return all(score(h, k, d) >= score(h, k, t) for t in g.strategies)

    else:

        def best(h, k, s, d):
            text = "|".join((g.label, format_value(h), format_fn(k), format_value(s), format_value(d)))
            return int(hashlib.md5(text.encode()).hexdigest(), 16) % 2 == 0

    return functools.cache(best)


def _seq_best(g, gb, h, hb):
    """seq: g against the cut h's strategy leaves, h at the history g hands on."""

    @functools.cache
    def cut(t, k):
        return apply_continuation(h.play(h.strategies.index(t)), k)

    def best(hist, k, st, dd):
        (s, t), (s2, t2) = st, dd
        reached = g.play(g.strategies.index(s)).view(hist)
        return gb(hist, cut(t, k), s, s2) and hb(reached, k, t, t2)

    return best


def _tensor_best(g1, b1, g2, b2):
    """tensor: each factor against the context its partner's play leaves."""

    @functools.cache
    def left(hist, k, s2):
        return left_context(g2.play(g2.strategies.index(s2)), Context(hist, k), g1.dst)

    @functools.cache
    def right(hist, k, s1):
        return right_context(g1.play(g1.strategies.index(s1)), Context(hist, k), g2.dst)

    def best(hist, k, ss, dd):
        (s1, s2), (d1, d2) = ss, dd
        c1 = left(hist, k, s2)
        if not b1(c1.history, c1.continuation, s1, d1):
            return False
        c2 = right(hist, k, s1)
        return b2(c2.history, c2.continuation, s2, d2)

    return best


def _product_best(games, bests):
    """product: only the tagged child is judged, against its branch of `k`."""

    @functools.cache
    def branch(k, j):
        return branch_continuation(k, j, games[j].dst)

    def best(hist, k, sigma, dev):
        j = hist.side
        return bests[j](hist.value, branch(k, j), sigma[j], dev[j])

    return best


def _decision(x, y):
    return decision(x, y), _decision_best(y)


def _copy_decision(sets):
    return copy_decision(sets), _copy_decision_best(sets)


def _seq(first, second):
    (g, gb), (h, hb) = first, second
    return seq_compose(g, h), _seq_best(g, gb, h, hb)


def _tensor(left, right):
    (g1, b1), (g2, b2) = left, right
    return tensor_games(g1, g2), _tensor_best(g1, b1, g2, b2)


def _product(children):
    games, bests = zip(*children)
    return product_games(games), _product_best(games, bests)


def _reindex_source(pair, lens):
    g, gb = pair
    return reindex_source(g, lens), lambda h, k, s, d: gb(lens.view(h), k, s, d)


def _reindex_target(pair, lens):
    g, gb = pair
    return reindex_target(g, lens), lambda h, k, s, d: gb(h, apply_continuation(lens, k), s, d)


def _reindex_strategies(pair, f):
    g, gb = pair
    return reindex_strategies(g, f), lambda h, k, s, d: gb(h, k, f(s), f(d))


def _definition_states(g, best, k):
    """States by the definition: every strategy filtered through the reference."""
    return [s for s in g.strategies if all(best(h, k, s, s) for h in g.src.forward)]


def _random_value(rng, carrier):
    """A value of a finite, payoff or pair carrier; payoffs tie often."""
    if isinstance(carrier, FiniteSet):
        return rng.choice(carrier.elements)
    if isinstance(carrier, Payoff):
        return tuple(Fraction(rng.randint(0, 2)) for _ in range(carrier.dim))
    return tuple(_random_value(rng, c) for c in carrier.parts)


def _random_atom(rng, src=None, dst=None, max_strategies=3):
    kind = rng.choice(["argmax", "hash"])
    g = random_game(rng, src, dst, max_strategies=max_strategies, kind=kind)
    return g, _atom_best(g, kind)


def _random_composite(rng, depth, src=None):
    """A game over finite boundaries: random atoms under seq, tensor and product.

    With `src` given, a tensor or product is reached through a random atom,
    so it is asked only at the histories that atom's strategies reach.
    Returns the game with its reference best response.
    """
    if depth == 0:
        return _random_atom(rng, src)
    op = rng.choice(["seq", "tensor", "product"])
    if op == "seq":
        first = _random_composite(rng, depth - 1, src)
        return _seq(first, _random_composite(rng, depth - 1, first[0].dst))
    if op == "tensor":
        out = _tensor(_random_composite(rng, depth - 1), _random_composite(rng, depth - 1))
    else:
        back_src, back_dst = random_finite_set(rng, prefix="s"), random_finite_set(rng, prefix="r")
        children = []
        for j in range(rng.randint(1, 3)):
            x = Diset(random_finite_set(rng, prefix=f"x{j}"), back_src)
            y = Diset(random_finite_set(rng, prefix=f"y{j}"), back_dst)
            if depth > 1 and rng.random() < 0.5:
                first = _random_atom(rng, x)
                children.append(_seq(first, _random_atom(rng, first[0].dst, y)))
            else:
                children.append(_random_atom(rng, x, y))
        out = _product(children)
    if src is None:
        return out
    return _seq(_random_atom(rng, src, out[0].src), out)


def _decision_composites(rng):
    """Decisions and copy decisions at several histories, alone and composed."""
    xs, ys, zs = make_set(["x0", "x1", "x2"]), MOVES, make_set([0, 1, 2])
    chain = _seq(
        _copy_decision([ys]), _seq(_copy_decision([ys, ys]), _copy_decision([ys, ys, ys]))
    )
    pair = _tensor(_decision(xs, ys), _decision(ys, ys))
    subset = total_fn(
        make_set(range(4)), pair[0].strategies, lambda _: rng.choice(pair[0].strategies.elements)
    )
    moved = _reindex_source(_decision(xs, zs), random_lens(rng, Diset(zs, UNIT_SET),
                                                           Diset(xs, UNIT_SET)))
    return [
        _decision(xs, zs),
        _copy_decision([ys, zs, ys]),
        chain,
        pair,
        _tensor(pair, _random_atom(rng)),
        # A seq in front: the tensor is asked at the non-product subsets reached.
        _seq(_random_atom(rng, dst=pair[0].src), pair),
        _product([_decision(xs, ys), _decision(zs, ys), _decision(UNIT_SET, zs)]),
        _reindex_strategies(pair, subset),
        moved,
        _tensor(moved, _decision(UNIT_SET, ys)),
    ]


def test_states_match_the_definition_on_random_composites():
    for seed in range(200):
        rng = random.Random(f"states/{seed}")
        games = [_random_composite(rng, rng.randint(1, 2))]
        if seed % 10 == 0:
            games += _decision_composites(rng)
        for g, best in games:
            for _ in range(3):
                k = total_fn(
                    g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
                )
                states = game_states(g, k)
                assert states == _definition_states(g, best, k), (seed, g)
                # The engine answers by ascending index and decodes only in `game_states`.
                assert g.states(g.src.forward, k) == list(map(g.strategies.index, states))


class _OnlySize:
    """A strategy set reduced to its size: it can be asked nothing else."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


def _engine_answers(expr, k):
    """The states, the separable states and the rows at every history of `expr` at `k`."""
    from opengames import expr as og_expr

    g = og_expr.eval_expr(expr)
    return (g.states(g.src.forward, k), og_expr._separable(expr, k, {}),
            [g.rows(h, k) for h in g.src.forward])


def _sizes_only(expr):
    """Replace the strategy set of every non-atom node of `expr` by its size."""
    from opengames.expr import Atom, Product, Seq, eval_expr

    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Atom):
            continue
        eval_expr(node).strategies = _OnlySize(len(eval_expr(node).strategies))
        todo += (node.children if isinstance(node, Product) else
                 (node.first, node.second) if isinstance(node, Seq) else (node.left, node.right))


def test_the_engine_reads_composite_strategy_sets_only_by_size(monkeypatch):
    """States, separable states and rows name strategies by index and decode only
    at atoms: with every composite's strategy set cut down to `len`, they answer
    as before, on the market, a normal form, a chain and random trees."""
    from opengames.classical import sequential_game
    from opengames.cli import bundled_document_text
    from opengames.dsl import parse_document
    from opengames.expr import Atom, Product, Seq, Tensor, eval_expr
    from opengames.sampling import random_fraction
    from opengames.solve import build_normal_form_expr, build_sequential_expr

    rng = random.Random(11)
    market = parse_document(bundled_document_text()).names["H"][1]
    cases = [
        (market, total_fn(eval_expr(market).dst.forward, UNIT_SET, lambda _: UNIT)),
        build_normal_form_expr(normal_form([MOVES] * 3, lambda p: tuple(
            random_fraction(rng) for _ in range(3)))),
        build_sequential_expr(sequential_game([MOVES] * 3, lambda p: tuple(
            random_fraction(rng) for _ in range(3)))),
    ]
    # `_random_composite`'s trees, each composite recorded as an expression node.
    nodes = {}

    def recording(node):
        def build(*parts):
            lift = lambda g: nodes.get(g) or Atom(g)
            expr = Product(list(map(lift, parts[0]))) if node is Product else node(*map(lift, parts))
            nodes[eval_expr(expr)] = expr
            return eval_expr(expr)
        return build

    for name, node in (("seq_compose", Seq), ("tensor_games", Tensor), ("product_games", Product)):
        monkeypatch.setitem(globals(), name, recording(node))
    for seed in range(60):
        rng = random.Random(f"sizes/{seed}")
        g, _ = _random_composite(rng, rng.randint(1, 2))
        cases.append((nodes[g], total_fn(g.dst.forward, g.dst.backward,
                                         lambda _: _random_value(rng, g.dst.backward))))
    monkeypatch.undo()

    for expr, k in cases:
        before = _engine_answers(expr, k)
        _sizes_only(expr)
        assert _engine_answers(expr, k) == before, expr


def _plumbing_games(rng):
    """Unit and trivial games, and a game reindexed along its target."""
    xs, ys = make_set(["x0", "x1", "x2"]), make_set(["y0", "y1"])
    atom = _random_atom(rng)
    return [
        (unit_game(Diset(xs, Payoff(1))), _always),
        (trivial_game(random_lens(rng, Diset(xs, ys), Diset(ys, xs))), _always),
        _reindex_target(atom, random_lens(rng, atom[0].dst, Diset(xs, ys))),
        _reindex_target(_decision(xs, ys), runit_inv_lens(Diset(ys, Payoff(1)))),
        _seq((unit_game(Diset(ys, UNIT_SET)), _always), _decision(ys, xs)),
    ]


def test_responses_match_the_definition_on_random_composites():
    """Each constructor's best-response set equals filtering every deviation by the reference."""
    for seed in range(150):
        rng = random.Random(f"responses/{seed}")
        games = [_random_composite(rng, rng.randint(1, 2))]
        if seed % 10 == 0:
            games += _decision_composites(rng) + _plumbing_games(rng)
        for g, best in games:
            for _ in range(2):
                k = total_fn(
                    g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
                )
                for h in g.src.forward:
                    for s in rng.sample(g.strategies.elements, min(3, len(g.strategies))):
                        expected = tuple(d for d in g.strategies if best(h, k, s, d))
                        assert g.responses(h, k, s) == expected, (seed, g, h, s)


def _tree_leaf(rng, src, dst, seen):
    """A random atom, a one-strategy random game, or a unit or trivial game."""
    leaf = rng.choice(["atom", "one", "trivial", "unit"])
    if leaf == "unit" and src == dst:
        seen.add("unit")
        return (unit_game(src), _always), True
    if leaf in ("trivial", "unit"):
        seen.add("trivial")
        return (trivial_game(random_lens(rng, src, dst)), _always), True
    if leaf == "one":
        seen.add("one")
        return _random_atom(rng, src, dst, max_strategies=1), False
    return _random_atom(rng, src, dst), False


def _fit(rng, pair, trivial, src, dst):
    """Reindex a game onto the boundaries asked for, when they are fixed."""
    if src is not None and pair[0].src != src:
        pair = _reindex_source(pair, random_lens(rng, src, pair[0].src))
    if dst is not None and pair[0].dst != dst:
        pair = _reindex_target(pair, random_lens(rng, pair[0].dst, dst))
    return pair, trivial


def _random_tree(rng, depth, seen, src=None, dst=None):
    """A random game tree with its reference best response and expected `trivial` flag.

    Leaves are random atoms, one-strategy random games and unit or trivial
    games; inner nodes are seq, tensor, product and the three reindexings.
    A tree is trivial exactly when it is built from unit and trivial games
    by seq, tensor, product and reindexing of its boundaries.
    """
    if depth == 0:
        src = src if src is not None else random_diset(rng)
        dst = dst if dst is not None else (src if rng.random() < 0.3 else random_diset(rng))
        return _tree_leaf(rng, src, dst, seen)
    op = rng.choice(["seq", "tensor", "product", "strategies"])
    seen.add(op)
    if op == "seq":
        g, tg = _random_tree(rng, depth - 1, seen, src)
        h, th = _random_tree(rng, depth - 1, seen, g[0].dst, dst)
        return _seq(g, h), tg and th
    if op == "tensor":
        (g, tg), (h, th) = (_random_tree(rng, depth - 1, seen) for _ in range(2))
        return _fit(rng, _tensor(g, h), tg and th, src, dst)
    if op == "product":
        back_src, back_dst = random_finite_set(rng, prefix="s"), random_finite_set(rng, prefix="r")
        children = [
            _random_tree(
                rng, depth - 1, seen,
                Diset(random_finite_set(rng, prefix=f"x{j}"), back_src),
                Diset(random_finite_set(rng, prefix=f"y{j}"), back_dst),
            )
            for j in range(rng.randint(1, 3))
        ]
        out = _product([c for c, _ in children])
        return _fit(rng, out, all(t for _, t in children), src, dst)
    (g, gb), _ = _random_tree(rng, depth - 1, seen, src, dst)
    picks = total_fn(make_set(range(3)), g.strategies, lambda _: rng.choice(g.strategies.elements))
    return _reindex_strategies((g, gb), picks), False


def test_relation_matches_the_definition_on_random_trees():
    """Each constructor's relation equals filtering every pair by the reference.

    Keys, their order and the order inside each tuple must all agree, with
    one memo shared across every context of a tree, as a check shares it.
    """
    seen = set()
    trivial_trees = 0
    for seed in range(160):
        rng = random.Random(f"relation/{seed}")
        (g, best), trivial = _random_tree(rng, rng.randint(1, 3), seen)
        assert g.trivial == trivial, (seed, g)
        trivial_trees += trivial
        memo = {}
        for _ in range(2):
            k = total_fn(
                g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
            )
            for h in g.src.forward:
                expected = {
                    s: tuple(d for d in g.strategies if best(h, k, s, d)) for s in g.strategies
                }
                for got in (g.relation(h, k, memo), g.relation(h, k)):
                    assert got == expected, (seed, g, h)
                    assert list(got) == list(g.strategies), (seed, g, h)
    assert seen >= {"seq", "tensor", "product", "strategies", "unit", "trivial", "one"}, seen
    assert trivial_trees > 5, trivial_trees


def test_rows_have_no_width_limit():
    """A tensor and a seq with more than 64 strategies and a three-child product
    answer by the definition, responses past index 64 included."""
    nine, six = make_set([f"n{i}" for i in range(9)]), make_set([f"m{i}" for i in range(6)])
    games = [
        _tensor(_decision(MOVES, make_set([0, 1, 2])), _decision(UNIT_SET, nine)),  # 9 * 9
        _seq(_copy_decision([MOVES]), _copy_decision([MOVES, six])),  # 2 * 36
        _product([_decision(UNIT_SET, make_set("abcd")), _decision(MOVES, MOVES),
                  _decision(UNIT_SET, make_set("vwxyz"))]),  # 4 * 4 * 5
    ]
    rng = random.Random(64)
    for g, best in games:
        assert len(g.strategies) > 64
        wide = False
        for _ in range(3):
            k = total_fn(
                g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
            )
            for h in g.src.forward:
                expected = {
                    s: tuple(d for d in g.strategies if best(h, k, s, d)) for s in g.strategies
                }
                assert g.relation(h, k) == expected, (g, h)
                for s in rng.sample(g.strategies.elements, 5):
                    assert g.responses(h, k, s) == expected[s], (g, h, s)
                wide |= any(g.strategies.index(row[-1]) >= 64 for row in expected.values() if row)
        assert wide, g


def test_responses_are_rows_of_the_relation():
    g = tensor_games(decision(MOVES, MOVES), unit_game(Diset(MOVES, UNIT_SET)))
    rng = random.Random(3)
    k = total_fn(g.dst.forward, g.dst.backward, lambda _: (_random_value(rng, Payoff(1)), UNIT))
    for h in g.src.forward:
        table = g.relation(h, k)
        for s in g.strategies:
            assert g.responses(h, k, s) == table[s]
    with pytest.raises(TypeMismatch):
        g.responses(("C", "C"), k, "not a strategy")


def _random_reindexed(rng, depth):
    """A random composite reindexed along its source, target or strategies.

    The reindexed game sits alone, before an atom or after one, so seq
    transports through a game without a transport of its own.
    """
    g, _ = _random_composite(rng, depth)
    op = rng.choice(["source", "target", "strategies"])
    if op == "source":
        g = reindex_source(g, random_lens(rng, random_diset(rng), g.src))
    elif op == "target":
        g = reindex_target(g, random_lens(rng, g.dst, random_diset(rng)))
    else:
        picks = total_fn(
            make_set(range(3)), g.strategies, lambda _: rng.choice(g.strategies.elements)
        )
        g = reindex_strategies(g, picks)
    place = rng.choice(["alone", "first", "second"])
    if place == "first":
        return seq_compose(g, _random_atom(rng, g.dst)[0])
    if place == "second":
        return seq_compose(_random_atom(rng, dst=g.src)[0], g)
    return g


def test_transport_matches_apply_continuation_on_random_trees():
    """Stage-wise transport equals pulling back along the whole play lens."""
    for seed in range(200):
        rng = random.Random(f"transport/{seed}")
        depth = rng.randint(1, 2)
        g = _random_composite(rng, depth)[0] if seed % 2 else _random_reindexed(rng, depth)
        games = [g]
        if seed % 10 == 0:
            games += [g for g, _ in _decision_composites(rng) + _plumbing_games(rng)]
        for g in games:
            for _ in range(3):
                k = total_fn(
                    g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
                )
                for s in range(len(g.strategies)):
                    assert g.transport(s, k) == apply_continuation(g.play(s), k), (seed, g, s)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_copy_decision_transport_is_the_pulled_back_continuation(n):
    """A copy decision's table-lookup cut equals `apply_continuation` along its play
    lens, for derived and checked tables into Q^n, and rejects what it rejects."""
    rng = random.Random(f"copy-transport/{n}")
    for _ in range(4):
        sets = [random_finite_set(rng, 3, prefix=f"m{i}") for i in range(n)]
        g = copy_decision(sets)
        out, qn = g.dst.forward, Payoff(n)
        for _ in range(3):
            values = tuple(_random_value(rng, qn) for _ in out)
            for k in (_derived_fn(out, qn, values), TotalFn(out, qn, values)):
                for s in range(len(g.strategies)):
                    assert g.transport(s, k) == apply_continuation(g.play(s), k), (sets, s)

    s, k = 0, _derived_fn(out, qn, values)
    wrong_dom = total_fn(make_set(["w"]), qn, lambda _: values[0])
    words = make_set(["ab"])
    not_vectors = total_fn(out, words, lambda _: "ab")
    # A strategy value, even a table on another domain, is no strategy index.
    first = g.strategies.elements[0]
    other = make_set([f"o{i}" for i in range(len(first.dom))])
    elsewhere = total_fn(other, first.cod, lambda x: first.values[other.index(x)])
    for sigma, kk in [(s, wrong_dom), ("not a strategy", k), ([1], k), (s, not_vectors),
                      (elsewhere, k), (first, k)]:
        with pytest.raises(TypeMismatch):
            g.transport(sigma, kk)
        # A one-stage play lens keeps no payoff coordinate, so it reads no value.
        if n > 1 or kk is not not_vectors:
            with pytest.raises(TypeMismatch):
                apply_continuation(g.play(sigma), kk)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_copy_decision_play_rejects_values_that_are_not_vectors(n):
    """Along a copy decision's play lens, a continuation into a set of atoms is a
    type error as soon as the update reads a payoff coordinate (n >= 2); one
    stage reads none, so it hands any value on."""
    sets = [make_set([f"m{i}", f"n{i}"]) for i in range(n)]
    g = copy_decision(sets)
    s = 0
    for atoms in (make_set([5]), make_set(["ab"])):
        k = total_fn(g.dst.forward, atoms, lambda _: atoms.elements[0])
        if n == 1:
            assert apply_continuation(g.play(s), k).values == ((),)
        else:
            with pytest.raises(TypeMismatch, match="has no coordinate"):
                apply_continuation(g.play(s), k)


def test_reach_matches_the_play_view_on_random_trees():
    """Stage-wise reach equals the whole play lens's view at each history, in order."""
    for seed in range(200):
        rng = random.Random(f"reach/{seed}")
        depth = rng.randint(1, 2)
        g = _random_composite(rng, depth)[0] if seed % 2 else _random_reindexed(rng, depth)
        games = [g]
        if seed % 10 == 0:
            games += [g for g, _ in _decision_composites(rng) + _plumbing_games(rng)]
        for g in games:
            hists = list(g.src.forward)
            rng.shuffle(hists)
            for s in range(len(g.strategies)):
                assert g.reach(s, hists) == list(map(g.play(s).view, hists)), (seed, g, s)


@given(st.lists(
    st.one_of(st.integers(), st.text(max_size=3), st.tuples(st.integers(), st.text(max_size=2))),
    unique=True,
    max_size=12,
))
def test_derived_set_equals_the_checked_set(values):
    checked, derived = make_set(values), _derived_set(tuple(values))
    assert derived == checked and checked == derived
    assert hash(derived) == hash(checked)
    assert list(derived) == list(checked) and len(derived) == len(checked)
    assert repr(derived) == repr(checked)
    for v in values:
        assert v in derived
        assert derived.index(v) == checked.index(v)
    assert ("absent",) not in derived
    with pytest.raises(TypeMismatch):
        derived.index(("absent",))


def test_decision_states_at_history_subsets_match_the_definition():
    """Product-built decision states equal filtering every strategy, ties included."""
    rng = random.Random("decision-states")
    xs, zs = make_set(["x0", "x1", "x2"]), make_set([0, 1, 2])
    games = [
        _decision(xs, zs),
        _decision(UNIT_SET, zs),
        _decision(zs, MOVES),
        _copy_decision([MOVES]),
        _copy_decision([MOVES, zs]),
        _copy_decision([zs, MOVES, MOVES]),
    ]
    for g, best in games:
        histories = g.src.forward.elements
        for _ in range(6):
            k = total_fn(
                g.dst.forward, g.dst.backward, lambda _: _random_value(rng, g.dst.backward)
            )
            for r in range(1, len(histories) + 1):
                for hs in itertools.combinations(histories, r):
                    expected = [i for i, s in enumerate(g.strategies)
                                if all(best(h, k, s, s) for h in hs)]
                    assert g.states(hs, k) == expected, (g, hs)
                    assert g.states(hs[::-1] + hs[:1], k) == expected, (g, hs)
            for off in [("off",), (histories[0], "off")]:
                with pytest.raises(TypeMismatch):
                    g.states(off, k)


def test_product_requires_shared_backward_carriers():
    a = decision(UNIT_SET, MOVES)
    b = copy_decision([MOVES, MOVES])
    with pytest.raises(TypeMismatch):
        product_games([a, b])
    with pytest.raises(TypeMismatch):
        product_games([])


def test_composite_strategy_sets_respect_the_bound():
    class Unlisted(FiniteSet):
        """A set of known size whose elements are listed only to build a product."""

        def __iter__(self):
            raise AssertionError("the strategy product was built before the bound check")

    wide = OpenGame(UNIT_DISET, UNIT_DISET, Unlisted(tuple(range(1001))), None, None)
    for compose in (seq_compose, tensor_games, lambda g, h: product_games([g, h])):
        with pytest.raises(EnumerationBound):
            compose(wide, wide)


def test_product_games_split_by_tag():
    a = decision(UNIT_SET, MOVES)
    b = decision(MOVES, MOVES)
    g = product_games([a, b])
    k = total_fn(
        g.dst.forward,
        Payoff(1),
        lambda t: Q(1) if (t.side == 0) == (t.value == "C") else Q(0),
    )
    states = game_states(g, k)
    assert [(s[0](UNIT), s[1]("C"), s[1]("D")) for s in states] == [("C", "D", "D")]
    lens = g.play(g.strategies.index(states[0]))
    assert lens.view(Tag(0, UNIT)) == Tag(0, "C")
    assert lens.view(Tag(1, "C")) == Tag(1, "D")


def test_states_check_a_continuation_off_the_target_carrier():
    """A factor or branch table read from a continuation of the wrong carrier is checked."""
    two = lambda *_: (Fraction(0), Fraction(0))
    g = tensor_games(decision(UNIT_SET, MOVES), decision(UNIT_SET, MOVES))
    wrong = PairCarrier(Payoff(2), Payoff(1))
    k = total_fn(g.dst.forward, wrong, lambda y: (two(), Q(0)))
    with pytest.raises(TypeMismatch):
        game_states(g, k)
    p = product_games([decision(UNIT_SET, MOVES), decision(MOVES, MOVES)])
    with pytest.raises(TypeMismatch):
        game_states(p, total_fn(p.dst.forward, Payoff(2), two))


def _long_lived_games():
    """Games asked at many fresh continuations by the two tests below.

    Besides a tensor: seq games over a tensor and over a product, whose
    second stages have no transport of their own, so cuts are pulled back
    along their play lenses, and a game reindexed along a target lens.  A
    seq game's first stage is not trivial, so its relation builds cuts too.
    """
    moves = make_set(["a", "b", "c", "d"])
    one = decision(UNIT_SET, moves)
    t = tensor_games(one, decision(UNIT_SET, moves))
    p = product_games([one, decision(UNIT_SET, moves)])
    rng = random.Random(7)

    def before(d):  # a first stage with one strategy that is still not trivial
        return random_game(rng, Diset(make_set(["x"]), UNIT_SET), d, max_strategies=1,
                           kind="argmax")

    return {
        "tensor": t,
        "seq over tensor": seq_compose(before(t.src), t),
        "seq over product": seq_compose(before(p.src), p),
        "reindexed target": reindex_target(t, swap_lens(one.dst, one.dst)),
    }


def _fresh_continuation(rng, d):
    """A continuation on `d` whose payoffs are drawn afresh."""
    from opengames.sampling import random_fraction

    def value(c):
        if isinstance(c, Payoff):
            return tuple(random_fraction(rng) for _ in range(c.dim))
        if isinstance(c, PairCarrier):
            return value(c.parts[0]), value(c.parts[1])
        return rng.choice(c.elements)

    return total_fn(d.forward, d.backward, lambda _: value(d.backward))


def _retained(ask, fresh) -> int:
    """Bytes still held after asking at 400 fresh continuations; the first ask
    fills the play caches, bounded by the strategies."""
    import gc
    import tracemalloc

    ask(fresh())
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(400):
            ask(fresh())
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_tensor_states_keep_no_continuation_tables():
    """Fresh continuations through long-lived games leave nothing behind."""
    import inspect

    rng = random.Random(400)
    for name, g in _long_lived_games().items():
        retained = _retained(functools.partial(game_states, g),
                             lambda: _fresh_continuation(rng, g.dst))
        assert retained < 0.1 * 2**20, (name, retained)
        # No table of cuts, factor continuations or relations lives on the game
        # or its play lenses.
        assert not any(isinstance(v, dict) for v in vars(g).values())
        for rule in (g._relation, g._states):
            if rule is not None:
                assert not any(isinstance(v, dict)
                               for v in inspect.getclosurevars(rule).nonlocals.values()), name
        for i in range(len(g.strategies)):
            assert not any(isinstance(v, dict) for v in vars(g.play(i)).values()), name


def test_relations_keep_no_tables_across_calls():
    """The relation, responses and best paths, and morphism checks, leave
    nothing behind once a call returns."""
    from opengames.cells import tensor_runit_cell
    from opengames.morphisms import check_morphism

    rng = random.Random(400)

    def ask(g, k):
        for h in g.src.forward:
            g.relation(h, k)
            g.best(h, k, g.strategies.elements[0], g.strategies.elements[-1])  # via `responses`

    for name, g in _long_lived_games().items():
        retained = _retained(functools.partial(ask, g), lambda: _fresh_continuation(rng, g.dst))
        assert retained < 0.1 * 2**20, (name, retained)
    cell = tensor_runit_cell(decision(UNIT_SET, MOVES))
    assert not cell.t_lens.is_identity
    retained = _retained(lambda k: check_morphism(cell, continuations=[k]),
                         lambda: _fresh_continuation(rng, cell.source_game.dst))
    assert retained < 0.1 * 2**20, ("check", retained)


def test_tensor_relation_builds_one_factor_continuation_per_partner_move(monkeypatch):
    """Partner strategies making the same move share one factor continuation."""
    import opengames.games as og_games

    built = []

    def recording(k, side, partners, dst):
        built.append((side, *partners))
        return factor_continuation(k, side, partners, dst)

    monkeypatch.setattr(og_games, "factor_continuation", recording)
    xs = make_set(["x0", "x1"])
    g = tensor_games(decision(xs, MOVES), decision(xs, MOVES))  # four strategies a side
    k = total_fn(g.dst.forward, g.dst.backward, lambda y: (Q(y[0] == "C"), Q(y[1] == "D")))
    for h in g.src.forward:
        built.clear()
        g.relation(h, k)
        assert sorted(built) == [(0, "C"), (0, "D"), (1, "C"), (1, "D")], (h, built)
    # A trivial factor needs no continuation at all.
    g = tensor_games(trivial_game(lens_identity(Diset(xs, Payoff(1)))), decision(xs, MOVES))
    k = total_fn(g.dst.forward, g.dst.backward, lambda y: (Q(0), Q(y[1] == "D")))
    built.clear()
    g.relation(("x0", "x1"), k)
    assert sorted(built) == [(1, "x0")], built


def test_seq_relation_builds_no_cut_for_a_trivial_first_stage(monkeypatch):
    rng = random.Random(8)
    chooser = decision(MOVES, MOVES)
    xs = make_set(["x0", "x1", "x2"])
    first = trivial_game(random_lens(rng, Diset(xs, UNIT_SET), chooser.src))
    g, best = _seq((first, _always), (chooser, _decision_best(MOVES)))
    assert not g.trivial
    k = total_fn(g.dst.forward, g.dst.backward, lambda y: Q(y == "D"))
    expected = {
        h: {s: tuple(d for d in g.strategies if best(h, k, s, d)) for s in g.strategies}
        for h in g.src.forward
    }

    def no_cut(*args):
        raise AssertionError("a cut was built for a trivial first stage")

    monkeypatch.setattr(OpenGame, "transport", no_cut)
    for h in g.src.forward:
        assert g.relation(h, k) == expected[h]


def test_composite_copy_decision_shares_boundaries():
    direct = copy_decision([MOVES, MOVES])
    composite = copy_decision_composite([MOVES, MOVES])
    assert composite.src == direct.src
    assert composite.dst == direct.dst
    assert len(composite.strategies) == len(direct.strategies)
    with pytest.raises(TypeMismatch):
        copy_decision_composite([MOVES])


# ---------- reindexing and the public evaluator ----------


def test_reindex_strategies_restricts_the_search():
    g = decision(UNIT_SET, MOVES)
    sc = const_strategy(g, "C")
    only_c = total_fn(make_set(["c"]), g.strategies, {"c": sc})
    h = reindex_strategies(g, only_c)
    k = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(1)})
    assert game_states(g, k) != []
    assert game_states(h, k) == []
    with pytest.raises(TypeMismatch):
        reindex_strategies(g, total_fn(MOVES, MOVES, {"C": "C", "D": "D"}))


def test_reindex_boundaries_compose_with_play():
    g = decision(MOVES, MOVES)
    lens = lens_identity(g.src)
    h = reindex_source(g, lens)
    assert h.play(0).view("C") == g.play(0).view("C")
    with pytest.raises(TypeMismatch):
        reindex_source(g, lens_identity(g.dst))
    out = runit_inv_lens(Diset(MOVES, Payoff(1)))
    assert out.dom == g.dst
    t = reindex_target(g, out)
    assert t.dst == out.cod
    with pytest.raises(TypeMismatch):
        reindex_target(g, lens_identity(g.src))


def test_best_response_checks_the_context():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(1)})
    sd = const_strategy(g, "D")
    assert best_response(g, Context(UNIT, k), sd, sd)
    with pytest.raises(TypeMismatch):
        best_response(g, Context("C", k), sd, sd)
    bad_k = total_fn(UNIT_SET, Payoff(1), lambda _: Q(0))
    with pytest.raises(TypeMismatch):
        best_response(g, Context(UNIT, bad_k), sd, sd)
    for sigma, deviation in [("junk", sd), (sd, "junk"), ([1], sd), (sd, [1])]:
        with pytest.raises(TypeMismatch):
            best_response(g, Context(UNIT, k), sigma, deviation)
    with pytest.raises(TypeMismatch):
        best_response(g, Context([1], k), sd, sd)


def test_unknown_strategy_is_rejected():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(1)})
    for sigma in ["not a strategy", [1]]:
        with pytest.raises(TypeMismatch):
            g.responses(UNIT, k, sigma)
    # Plays, transports and reaches take a strategy's index: a value, a bool or an
    # index out of range is rejected before any lookup, with or without a rule of its own.
    rng = random.Random(5)
    for game in (g, copy_decision([MOVES, MOVES]), tensor_games(g, g)):
        kk = total_fn(game.dst.forward, game.dst.backward,
                      lambda _: _random_value(rng, game.dst.backward))
        value = game.strategies.elements[0]
        for i in ["not a strategy", [1], -1, len(game.strategies), True, value]:
            for call in (game.play, lambda i: game.transport(i, kk),
                         lambda i: game.reach(i, list(game.src.forward))):
                with pytest.raises(TypeMismatch, match="not a strategy index"):
                    call(i)


def test_unhashable_history_is_rejected():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(1)})
    s = g.strategies.elements[0]
    with pytest.raises(TypeMismatch):
        g.relation([1], k)
    with pytest.raises(TypeMismatch):
        g.responses([1], k, s)
