"""Game morphisms: the two axioms, composition, states as morphisms."""

import random
from fractions import Fraction

import pytest

from opengames.errors import BoundaryMismatch, EnumerationBound, NotAState, TypeMismatch
from opengames.finite import Payoff, UNIT, UNIT_SET, make_set, total_fn
from opengames.cells import interchange_cell, seq_assoc_cell, tensor_assoc_cell, unit_split_cell
from opengames.games import (
    OpenGame,
    copy_decision,
    copy_decision_composite,
    decision,
    game_states,
    product_games,
    reindex_strategies,
    seq_compose,
    tensor_games,
    trivial_game,
    unit_game,
    utility_game,
)
from opengames.lenses import (
    Diset,
    Lens,
    UNIT_DISET,
    USecond,
    apply_continuation,
    default_continuations,
    effect_lens,
    leaf,
    lens_compose,
    lens_identity,
    lenses_equal,
)
from opengames.morphisms import (
    GameMorphism,
    StateCert,
    check_morphism,
    find_globular_iso,
    hcompose,
    identity_morphism,
    is_state,
    morphism_to_state,
    morphisms_equal,
    product_mediator,
    state_to_morphism,
    tensor_morphisms,
    vcompose,
)
from opengames.sampling import random_diset, random_game

MOVES = make_set(["C", "D"])
XY = make_set(["X", "Y"])
Q = lambda n: (Fraction(n),)


def const_strategy(game, choice):
    for s in game.strategies:
        if s(UNIT) == choice:
            return s
    raise AssertionError


def relabel_morphism():
    """decision over {C, D} mapped onto its relabeling over {X, Y}."""
    g = decision(UNIT_SET, MOVES)
    g2 = decision(UNIT_SET, XY)
    back = total_fn(XY, MOVES, {"X": "C", "Y": "D"})
    t = Lens(Diset(XY, Payoff(1)), Diset(MOVES, Payoff(1)), back, USecond(leaf()))
    sigma = total_fn(
        g.strategies, g2.strategies, lambda s: const_strategy(g2, {"C": "X", "D": "Y"}[s(UNIT)])
    )
    return g, g2, GameMorphism(g, g2, lens_identity(UNIT_DISET), t, sigma)


# ---------- the axioms ----------


def test_identity_morphism_is_valid():
    g = decision(MOVES, MOVES)
    assert check_morphism(identity_morphism(g))


def test_relabeling_is_a_morphism():
    _, _, m = relabel_morphism()
    report = check_morphism(m)
    assert report.ok
    assert report.axiom is None


def test_axiom_one_failure_carries_a_witness():
    g, g2, relabel = relabel_morphism()
    crossed = total_fn(
        g.strategies, g2.strategies, lambda s: const_strategy(g2, {"C": "Y", "D": "X"}[s(UNIT)])
    )
    m = GameMorphism(g, g2, relabel.s_lens, relabel.t_lens, crossed)
    report = check_morphism(m)
    assert not report.ok
    assert report.axiom == 1
    assert report.witness[0] in g.strategies


def test_axiom_two_failure_carries_a_witness():
    g = decision(UNIT_SET, MOVES)
    sour = OpenGame(
        g.src, g.dst, g.strategies, g.play, lambda h, k, memo: (0,) * len(g.strategies),
        label="sour",
    )
    m = GameMorphism(
        g,
        sour,
        lens_identity(g.src),
        lens_identity(g.dst),
        total_fn(g.strategies, sour.strategies, lambda s: s),
    )
    report = check_morphism(m)
    assert not report.ok
    assert report.axiom == 2
    s, s2, h, k = report.witness
    assert g.best(h, k, s, s2)


def test_morphism_constructor_checks_legs():
    g = decision(UNIT_SET, MOVES)
    with pytest.raises(TypeMismatch):
        GameMorphism(
            g,
            g,
            lens_identity(g.dst),
            lens_identity(g.dst),
            total_fn(g.strategies, g.strategies, lambda s: s),
        )
    with pytest.raises(TypeMismatch):
        GameMorphism(
            g,
            g,
            lens_identity(g.src),
            lens_identity(g.dst),
            total_fn(UNIT_SET, g.strategies, lambda _: next(iter(g.strategies))),
        )


def test_supplied_continuations_must_match_the_source_target():
    g = decision(UNIT_SET, MOVES)
    bad = total_fn(XY, Payoff(1), lambda _: Q(0))
    with pytest.raises(TypeMismatch):
        check_morphism(identity_morphism(g), continuations=[bad])


def test_check_morphism_respects_the_bound():
    big = make_set(list(range(8)))
    g = trivial_game(lens_identity(Diset(big, big)))
    with pytest.raises(EnumerationBound):  # 8^8 continuations > 10^6
        check_morphism(identity_morphism(g))


# ---------- composition of morphisms ----------


def test_vertical_composition():
    g, g2, m = relabel_morphism()
    comp = vcompose(m, identity_morphism(g2))
    assert morphisms_equal(comp, m)
    assert check_morphism(comp)
    with pytest.raises(TypeMismatch):
        vcompose(m, identity_morphism(g))


def test_horizontal_composition_of_identities():
    payout = total_fn(MOVES, Payoff(1), {"C": Q(1), "D": Q(0)})
    g = decision(UNIT_SET, MOVES)
    h = utility_game(payout)
    comp = hcompose(identity_morphism(g), identity_morphism(h))
    assert morphisms_equal(comp, identity_morphism(seq_compose(g, h)))
    with pytest.raises(BoundaryMismatch):
        hcompose(identity_morphism(g), identity_morphism(g))


def test_tensor_of_identities():
    g = decision(UNIT_SET, MOVES)
    h = decision(UNIT_SET, XY)
    m = tensor_morphisms(identity_morphism(g), identity_morphism(h))
    assert morphisms_equal(m, identity_morphism(tensor_games(g, h)))


# ---------- states as morphisms ----------


def test_state_round_trip():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(1), "D": Q(3)})
    (sigma,) = game_states(g, k)
    cert = StateCert(sigma, k)
    m = state_to_morphism(g, cert)
    assert check_morphism(m)
    back = morphism_to_state(m)
    assert back.sigma == sigma
    assert back.continuation == k
    with pytest.raises(TypeMismatch):
        check_morphism(m, continuations=[k])


def test_morphism_to_state_rejects_wrong_source():
    g = decision(UNIT_SET, MOVES)
    with pytest.raises(NotAState):
        morphism_to_state(identity_morphism(g))


def test_morphism_to_state_rejects_tampered_source_leg():
    g = copy_decision([MOVES, MOVES])
    k = total_fn(
        g.dst.forward,
        Payoff(2),
        lambda ab: (
            (Fraction(7),) if ab[1] == "C" else (Fraction(2),)
        ) + ((Fraction(1),) if ab[1] == "D" else (Fraction(0),)),
    )
    sigma = total_fn(MOVES, MOVES, {"C": "D", "D": "D"})
    assert is_state(g, sigma, k)
    other = total_fn(MOVES, MOVES, {"C": "C", "D": "C"})
    m = state_to_morphism(g, StateCert(sigma, k))
    assert morphism_to_state(m).sigma == sigma
    eff = effect_lens(g.dst, k)
    bad = GameMorphism(
        m.source_game,
        g,
        lens_compose(g.play(g.strategies.index(other)), eff),
        eff,
        m.sigma_map,
    )
    with pytest.raises(NotAState):
        morphism_to_state(bad)


def test_morphism_to_state_rejects_non_equilibria():
    g = decision(UNIT_SET, MOVES)
    k = total_fn(MOVES, Payoff(1), {"C": Q(1), "D": Q(3)})
    loser = const_strategy(g, "C")
    assert not is_state(g, loser, k)
    m = state_to_morphism(g, StateCert(loser, k))
    with pytest.raises(NotAState):
        morphism_to_state(m)


# ---------- product mediators ----------


def shared_state_morphism(shared, game, sigma, k):
    eff = effect_lens(game.dst, k)
    return GameMorphism(
        shared,
        game,
        lens_compose(game.play(game.strategies.index(sigma)), eff),
        eff,
        total_fn(UNIT_SET, game.strategies, lambda _: sigma),
    )


def test_product_mediator_is_a_morphism():
    g0 = decision(UNIT_SET, MOVES)
    g1 = decision(MOVES, MOVES)
    prod = product_games([g0, g1])
    k0 = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(2)})
    k1 = total_fn(MOVES, Payoff(1), {"C": Q(5), "D": Q(1)})
    (s0,) = game_states(g0, k0)
    (s1,) = game_states(g1, k1)
    shared = unit_game(UNIT_DISET)
    med = product_mediator(
        [shared_state_morphism(shared, g0, s0, k0), shared_state_morphism(shared, g1, s1, k1)],
        prod,
    )
    assert med.sigma_map(UNIT) == (s0, s1)
    assert check_morphism(med)


def test_product_mediator_requires_a_shared_source():
    g0 = decision(UNIT_SET, MOVES)
    k0 = total_fn(MOVES, Payoff(1), {"C": Q(0), "D": Q(2)})
    (s0,) = game_states(g0, k0)
    m1 = state_to_morphism(g0, StateCert(s0, k0))
    m2 = state_to_morphism(g0, StateCert(s0, k0))
    with pytest.raises(TypeMismatch):
        product_mediator([m1, m2], product_games([g0, g0]))
    with pytest.raises(TypeMismatch):
        product_mediator([], product_games([g0, g0]))


# ---------- globular isomorphism search ----------


def test_find_globular_iso_on_relabeled_strategies():
    g = decision(UNIT_SET, MOVES)
    names = make_set(["n0", "n1"])
    relabel = total_fn(
        names, g.strategies, {"n0": const_strategy(g, "D"), "n1": const_strategy(g, "C")}
    )
    h = reindex_strategies(g, relabel)
    iso = find_globular_iso(g, h)
    assert iso is not None
    assert iso.globular
    assert check_morphism(iso)
    assert iso.sigma_map(const_strategy(g, "C")) == "n1"


def test_find_globular_iso_failure_modes():
    g = decision(UNIT_SET, MOVES)
    assert find_globular_iso(g, decision(UNIT_SET, XY)) is None
    smaller = reindex_strategies(
        g,
        total_fn(make_set(["only"]), g.strategies, {"only": const_strategy(g, "C")}),
    )
    assert find_globular_iso(g, smaller) is None


def _playing(prefix, moves):
    """`decision(unit, MOVES)` with one strategy `{prefix}{i}` playing `moves[i]`."""
    g = decision(UNIT_SET, MOVES)
    names = make_set(tuple(f"{prefix}{i}" for i in range(len(moves))))
    return reindex_strategies(
        g, total_fn(names, g.strategies, lambda s: const_strategy(g, moves[int(s[1:])]))
    )


def test_find_globular_iso_takes_the_first_candidate_in_class_order():
    pattern = "CDCDC"  # classes (0 2 4) and (1 3) on both sides
    iso = find_globular_iso(_playing("a", pattern), _playing("b", pattern))
    assert [iso.sigma_map(f"a{i}") for i in range(5)] == [f"b{i}" for i in range(5)]


def test_find_globular_iso_builds_candidates_one_at_a_time():
    import tracemalloc

    nine = _playing("s", "C" * 9)  # 9! = 362,880 candidates; the first, the identity, holds
    ten = _playing("s", "C" * 10)  # 10! > 10^6
    tracemalloc.start()
    try:
        iso = find_globular_iso(nine, nine)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(EnumerationBound):
            find_globular_iso(ten, ten)
        bound_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(iso.sigma_map(s) == s for s in nine.strategies)
    assert peak < 4 * 2**20, peak
    assert bound_peak < 2**20, bound_peak


# ---------- the continuation list and the per-strategy axiom 2 ----------


def _count_calls(monkeypatch, name):
    """Count calls of an `OpenGame` method, keyed by the game's label."""
    calls = {}
    method = getattr(OpenGame, name)

    def counting(self, *args):
        calls[self.label] = calls.get(self.label, 0) + 1
        return method(self, *args)

    monkeypatch.setattr(OpenGame, name, counting)
    return calls


def test_supplied_continuations_are_validated_and_deduplicated(monkeypatch):
    g = decision(UNIT_SET, make_set(["X", "Y", "Z"]))
    wrong = total_fn(MOVES, Payoff(1), lambda _: Q(0))
    with pytest.raises(TypeMismatch, match="target boundary"):
        find_globular_iso(g, g, continuations=[wrong])
    k = total_fn(g.dst.forward, Payoff(1), {"X": Q(3), "Y": Q(5), "Z": Q(5)})
    calls = _count_calls(monkeypatch, "rows")
    counts = []
    for supplied in (None, [k], [k, k, k]):
        calls.clear()
        assert check_morphism(identity_morphism(g), continuations=supplied)
        counts.append(sum(calls.values()))
    assert counts[0] < counts[1] == counts[2]


def test_morphism_checks_never_test_a_composite_best_response(monkeypatch):
    """Axiom 2 and the iso search compare relations built from the atoms' relations.

    No `best` is called at all, and the random atoms are asked for their
    relations, so the checks reach the leaves through relations alone.  The
    first atom of each cell is always asked; a later one only once a stage
    before it has a best response.
    """
    rng = random.Random(5)
    top = [random_diset(rng) for _ in range(3)]
    bot = [random_diset(rng) for _ in range(3)]
    g1, h1 = (random_game(rng, top[j], top[j + 1], max_strategies=2) for j in range(2))
    g2, h2 = (random_game(rng, bot[j], bot[j + 1], max_strategies=2) for j in range(2))
    chain = [random_diset(rng) for _ in range(4)]
    g, h, i = (random_game(rng, chain[j], chain[j + 1], max_strategies=2) for j in range(3))
    moves = make_set(["L", "R"])
    best_calls = _count_calls(monkeypatch, "best")
    relation_calls = _count_calls(monkeypatch, "rows")
    assert check_morphism(interchange_cell(g1, g2, h1, h2))
    assert check_morphism(seq_assoc_cell(g, h, i))
    direct, staged = copy_decision([moves, moves]), copy_decision_composite([moves, moves])
    assert find_globular_iso(direct, staged)
    assert not best_calls, best_calls
    assert {g1.label, g.label} <= set(relation_calls), relation_calls


def _pairwise_axiom_two(m):
    """Axiom 2 by the definition: every pair of strategies, in canonical order."""
    g, g2 = m.source_game, m.target_game
    for h in g2.src.forward:
        h_up = m.s_lens.view(h)
        for k in default_continuations(g.dst):
            k_down = apply_continuation(m.t_lens, k)
            for s in g.strategies:
                for s2 in g.strategies:
                    if g.best(h_up, k, s, s2) and not g2.best(
                        h, k_down, m.sigma_map(s), m.sigma_map(s2)
                    ):
                        return (s, s2, h, k)
    return None


def test_axiom_two_witness_is_the_first_failing_pair():
    """Scrambled seq-assoc cells: strategies go to any target with the same play."""
    failures = 0
    for seed in range(120):
        rng = random.Random(f"scrambled/{seed}")
        disets = [random_diset(rng, max_size=rng.choice([1, 2])) for _ in range(4)]
        g, h, i = (random_game(rng, disets[j], disets[j + 1], max_strategies=2) for j in range(3))
        cell = seq_assoc_cell(g, h, i)
        target = cell.target_game
        scrambled = {}
        for s in cell.source_game.strategies:
            lens = target.play(target.strategies.index(cell.sigma_map(s)))
            same = [t for j, t in enumerate(target.strategies)
                    if lenses_equal(target.play(j), lens)]
            scrambled[s] = rng.choice(same)
        m = GameMorphism(
            cell.source_game,
            target,
            cell.s_lens,
            cell.t_lens,
            total_fn(cell.source_game.strategies, target.strategies, scrambled),
        )
        expected = _pairwise_axiom_two(m)
        report = check_morphism(m)
        assert report.axiom == (None if expected is None else 2), seed
        assert report.witness == expected, seed
        failures += expected is not None
    assert failures >= 20


def _scrambled(cell, rng):
    """`cell` with each strategy sent to any target strategy with the same play."""
    target = cell.target_game
    scrambled = {}
    for s in cell.source_game.strategies:
        lens = target.play(target.strategies.index(cell.sigma_map(s)))
        same = [t for j, t in enumerate(target.strategies)
                if lenses_equal(target.play(j), lens)]
        scrambled[s] = rng.choice(same)
    return GameMorphism(
        cell.source_game,
        target,
        cell.s_lens,
        cell.t_lens,
        total_fn(cell.source_game.strategies, target.strategies, scrambled),
    )


def test_axiom_two_witness_is_the_first_failing_pair_on_tensor_cells():
    """Scrambled interchange and tensor-assoc cells; the second has non-identity legs."""
    failures = {"interchange": 0, "tensor-assoc": 0}
    for seed in range(24):
        rng = random.Random(f"scrambled-tensor/{seed}")
        disets = [random_diset(rng, max_size=rng.choice([1, 2])) for _ in range(6)]
        g1, h1, g2, h2 = (
            random_game(rng, disets[a], disets[b], max_strategies=2)
            for a, b in ((0, 1), (1, 2), (3, 4), (4, 5))
        )
        cells = {"interchange": interchange_cell(g1, g2, h1, h2),
                 "tensor-assoc": tensor_assoc_cell(g1, g2, h2)}
        for name, cell in cells.items():
            m = _scrambled(cell, rng)
            expected = _pairwise_axiom_two(m)
            report = check_morphism(m)
            assert report.axiom == (None if expected is None else 2), (seed, name)
            assert report.witness == expected, (seed, name)
            failures[name] += expected is not None
    assert min(failures.values()) >= 5, failures


# ---------- relations per context, one memo per check ----------


def test_one_memo_tells_the_games_of_a_check_apart():
    """Two games with the same boundaries, strategies and plays but other preferences."""
    g = decision(UNIT_SET, make_set(["X", "Y", "Z"]))
    lax = OpenGame(
        g.src, g.dst, g.strategies, g.play,
        lambda h, k, memo: ((1 << len(g.strategies)) - 1,) * len(g.strategies), label="lax",
    )
    same = total_fn(g.strategies, g.strategies, lambda s: s)
    legs = (lens_identity(g.src), lens_identity(g.dst))
    loose = GameMorphism(lax, g, *legs, same)
    expected = _pairwise_axiom_two(loose)
    assert expected is not None
    report = check_morphism(loose)
    assert (report.axiom, report.witness) == (2, expected)
    assert check_morphism(GameMorphism(g, lax, *legs, same))
    assert find_globular_iso(lax, g) is None
    assert find_globular_iso(g, g) is not None


def test_unit_split_checks_build_no_factor_continuation(monkeypatch):
    """Unit games are strategically trivial, so no factor table is ever read."""
    import opengames.expr as og_expr
    import opengames.games as og_games
    import opengames.lenses as og_lenses

    built = []
    original = og_lenses.factor_continuation

    def recording(*args):
        built.append(args)
        return original(*args)

    for module in (og_lenses, og_games, og_expr):
        monkeypatch.setattr(module, "factor_continuation", recording, raising=False)
    d1 = Diset(make_set(["a", "b"]), make_set(["r", "s"]))
    d2 = Diset(make_set(["x"]), Payoff(1))
    cells = [unit_split_cell(d1, d2, inverse=inverse) for inverse in (False, True)]
    for cell in cells:
        assert check_morphism(cell)
    assert built == []
    assert all(c.source_game.trivial and c.target_game.trivial for c in cells)


def test_a_check_builds_each_factor_table_and_pullback_once(monkeypatch):
    """Within one `check_morphism` of `og laws`, each tensor factor table
    `(k, side, partner move, dst)` is built once, and each continuation is
    pulled back along the target leg once, however many histories ask."""
    import contextlib
    import io

    import opengames.cli as og_cli
    import opengames.games as og_games
    import opengames.morphisms as og_morphisms
    from opengames.lenses import factor_continuation

    factors, pullbacks, per_check = [], [], []

    def factor(*args):
        factors.append(args)
        return factor_continuation(*args)

    def pullback(lens, k):
        pullbacks.append((lens, k))
        return apply_continuation(lens, k)

    def check(m, continuations=None):
        factors.clear()
        pullbacks.clear()
        out = check_morphism(m, continuations)
        per_check.append((list(factors), list(pullbacks)))
        return out

    monkeypatch.setattr(og_games, "factor_continuation", factor)
    monkeypatch.setattr(og_morphisms, "apply_continuation", pullback)
    monkeypatch.setattr(og_cli, "check_morphism", check)
    for seed in range(8):
        with contextlib.redirect_stdout(io.StringIO()):
            assert og_cli.main(["laws", "--trials", "5", "--seed", str(seed)]) == 0
    assert sum(len(built) for built, _ in per_check) > 1000
    for built, pulled in per_check:
        assert len(built) == len(set(built))
        assert len(pulled) == len(set(pulled))


def test_a_check_builds_each_pullback_and_branch_table_once(monkeypatch):
    """Within one check, a `reindex_target` game pulls each continuation back
    along its lens once and a product builds each branch table `(k, j, dst)`
    once, however many histories ask."""
    import opengames.games as og_games
    from opengames.lenses import branch_continuation, swap_lens

    built = {}

    def record(fn):
        calls = built[fn.__name__] = []

        def recording(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(og_games, fn.__name__, recording)

    record(apply_continuation)
    record(branch_continuation)
    xs = make_set([0, 1, 2])
    d = decision(xs, MOVES)
    t = tensor_games(d, decision(xs, MOVES))
    for game, name, distinct in (
        (og_games.reindex_target(t, swap_lens(d.dst, d.dst)), "apply_continuation", 6561),
        (product_games([d, decision(xs, MOVES)]), "branch_continuation", 162),
    ):
        built[name].clear()
        assert check_morphism(identity_morphism(game))
        assert len(built[name]) == len(set(built[name])) == distinct


def test_a_check_says_whether_probes_stood_in_for_the_continuations():
    """On a payoff target the check runs on probe continuations only, which
    rank outcomes alike in every coordinate: a chain of two copy decisions
    against itself with its two payoffs swapped is not checked completely,
    and one continuation where the two players disagree breaks axiom 2."""
    from opengames.finite import identity_fn
    from opengames.lenses import _rearrange_lens, leaf

    ab = make_set(["a", "b"])
    g = seq_compose(copy_decision([ab]), copy_decision([ab, ab]))
    swap = _rearrange_lens(g.dst, g.dst, leaf(), leaf((), take=(1, 0)))
    m = GameMorphism(g, g, lens_identity(g.src), swap, identity_fn(g.strategies))
    assert check_morphism(m).complete is False
    # The first player wants the second to play "a", the second wants "b".
    k = total_fn(g.dst.forward, g.dst.backward,
                 lambda y: (Fraction(y[1] == "a"), Fraction(y[1] == "b")))
    got = check_morphism(m, [k])
    assert (got.ok, got.axiom, got.complete) == (False, 2, False)
    s, deviation, h, witness_k = got.witness
    assert s in g.strategies and deviation in g.strategies and witness_k == k
    assert check_morphism(identity_morphism(unit_game(UNIT_DISET))).complete is True
