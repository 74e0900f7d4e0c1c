"""Structure cells: validity, two-sided inverses, coherence figures."""

import random

import pytest

from opengames.cells import (
    interchange_cell,
    seq_assoc_cell,
    seq_lunit_cell,
    seq_runit_cell,
    structure_cell,
    symmetry_cell,
    tensor_assoc_cell,
    tensor_lunit_cell,
    tensor_runit_cell,
    unit_split_cell,
)
from opengames.errors import TypeMismatch
from opengames.finite import UNIT_SET, make_set
from opengames.games import (
    copy_decision,
    copy_decision_composite,
    game_states,
    seq_compose,
    tensor_games,
    unit_game,
)
from opengames.lenses import Diset, UNIT_DISET, lenses_equal
from opengames.morphisms import (
    check_morphism,
    find_globular_iso,
    hcompose,
    identity_morphism,
    morphisms_equal,
    tensor_morphisms,
    vcompose,
)
from opengames.sampling import random_diset, random_game, sample_continuations

D21 = lambda tag: Diset(make_set([f"{tag}0", f"{tag}1"]), UNIT_SET)
D22 = lambda tag: Diset(make_set([f"{tag}0", f"{tag}1"]), make_set([f"{tag}r", f"{tag}s"]))
D11 = lambda tag: Diset(make_set([f"{tag}0"]), UNIT_SET)
D12 = lambda tag: Diset(make_set([f"{tag}0"]), make_set([f"{tag}r", f"{tag}s"]))


def seq_chain(rng, *disets):
    """Composable games along the given boundary chain."""
    return [
        random_game(rng, src=disets[i], dst=disets[i + 1], max_strategies=2)
        for i in range(len(disets) - 1)
    ]


def assert_inverse_pair(fwd, bwd):
    assert morphisms_equal(vcompose(fwd, bwd), identity_morphism(fwd.source_game))
    assert morphisms_equal(vcompose(bwd, fwd), identity_morphism(fwd.target_game))


# ---------- validity ----------


def test_seq_cells_are_morphisms(rng):
    for _ in range(5):
        g, h, i = seq_chain(rng, D21("a"), D22("b"), D22("c"), D22("d"))
        assert check_morphism(seq_assoc_cell(g, h, i))
        assert check_morphism(seq_assoc_cell(g, h, i, inverse=True))
        assert check_morphism(seq_lunit_cell(g))
        assert check_morphism(seq_runit_cell(g, inverse=True))


def test_tensor_cells_are_morphisms(rng):
    for _ in range(5):
        a = random_game(rng, src=D11("a"), dst=D12("p"), max_strategies=2)
        b = random_game(rng, src=D21("b"), dst=D21("q"), max_strategies=2)
        c = random_game(rng, src=D11("c"), dst=D11("r"), max_strategies=2)
        assert check_morphism(tensor_assoc_cell(a, b, c))
        assert check_morphism(tensor_assoc_cell(a, b, c, inverse=True))
        assert check_morphism(tensor_lunit_cell(a))
        assert check_morphism(tensor_runit_cell(a, inverse=True))
        assert check_morphism(symmetry_cell(a, b))


def test_interchange_and_unit_split_are_morphisms(rng):
    for _ in range(5):
        g1, h1 = seq_chain(rng, D21("a"), D22("b"), D22("c"))
        g2, h2 = seq_chain(rng, D11("d"), D12("e"), D11("f"))
        assert check_morphism(interchange_cell(g1, g2, h1, h2))
        assert check_morphism(interchange_cell(g1, g2, h1, h2, inverse=True))
    assert check_morphism(unit_split_cell(D22("x"), D21("y")))
    assert check_morphism(unit_split_cell(D22("x"), D21("y"), inverse=True))


# ---------- inverses ----------


def test_seq_cell_inverses(rng):
    g, h, i = seq_chain(rng, D21("a"), D22("b"), D22("c"), D22("d"))
    assert_inverse_pair(seq_assoc_cell(g, h, i), seq_assoc_cell(g, h, i, inverse=True))
    assert_inverse_pair(seq_lunit_cell(g), seq_lunit_cell(g, inverse=True))
    assert_inverse_pair(seq_runit_cell(g), seq_runit_cell(g, inverse=True))


def test_tensor_cell_inverses(rng):
    a = random_game(rng, src=D11("a"), dst=D12("p"), max_strategies=2)
    b = random_game(rng, src=D21("b"), dst=D21("q"), max_strategies=2)
    c = random_game(rng, src=D11("c"), dst=D11("r"), max_strategies=2)
    assert_inverse_pair(tensor_assoc_cell(a, b, c), tensor_assoc_cell(a, b, c, inverse=True))
    assert_inverse_pair(tensor_lunit_cell(a), tensor_lunit_cell(a, inverse=True))
    assert_inverse_pair(tensor_runit_cell(a), tensor_runit_cell(a, inverse=True))
    assert_inverse_pair(unit_split_cell(D22("x"), D21("y")),
                        unit_split_cell(D22("x"), D21("y"), inverse=True))


def test_interchange_inverse(rng):
    g1, h1 = seq_chain(rng, D21("a"), D22("b"), D22("c"))
    g2, h2 = seq_chain(rng, D11("d"), D12("e"), D11("f"))
    assert_inverse_pair(
        interchange_cell(g1, g2, h1, h2),
        interchange_cell(g1, g2, h1, h2, inverse=True),
    )


def test_symmetry_is_self_inverse(rng):
    g = random_game(rng, src=D11("a"), dst=D12("p"), max_strategies=2)
    h = random_game(rng, src=D21("b"), dst=D21("q"), max_strategies=2)
    assert_inverse_pair(symmetry_cell(g, h), symmetry_cell(h, g))


# ---------- coherence figures ----------


def test_seq_pentagon(rng):
    g, h, i, j = seq_chain(rng, D21("a"), D22("b"), D22("c"), D22("d"), D21("e"))
    short = vcompose(
        seq_assoc_cell(g, h, seq_compose(i, j)),
        seq_assoc_cell(seq_compose(g, h), i, j),
    )
    long = vcompose(
        vcompose(
            hcompose(identity_morphism(g), seq_assoc_cell(h, i, j)),
            seq_assoc_cell(g, seq_compose(h, i), j),
        ),
        hcompose(seq_assoc_cell(g, h, i), identity_morphism(j)),
    )
    assert morphisms_equal(short, long)


def test_seq_triangle(rng):
    (g,) = seq_chain(rng, D21("a"), D22("b"))
    (h,) = seq_chain(rng, D22("b"), D22("c"))
    u = unit_game(g.dst)
    one = vcompose(
        seq_assoc_cell(g, u, h),
        hcompose(seq_lunit_cell(g), identity_morphism(h)),
    )
    other = hcompose(identity_morphism(g), seq_runit_cell(h))
    assert morphisms_equal(one, other)


def _tensor_quad(rng):
    a = random_game(rng, src=D11("a"), dst=D12("p"), max_strategies=2)
    b = random_game(rng, src=D21("b"), dst=D21("q"), max_strategies=2)
    c = random_game(rng, src=D11("c"), dst=D11("r"), max_strategies=2)
    d = random_game(rng, src=D12("d"), dst=D21("s"), max_strategies=2)
    return a, b, c, d


def test_tensor_pentagon(rng):
    a, b, c, d = _tensor_quad(rng)
    short = vcompose(
        tensor_assoc_cell(tensor_games(a, b), c, d),
        tensor_assoc_cell(a, b, tensor_games(c, d)),
    )
    long = vcompose(
        vcompose(
            tensor_morphisms(tensor_assoc_cell(a, b, c), identity_morphism(d)),
            tensor_assoc_cell(a, tensor_games(b, c), d),
        ),
        tensor_morphisms(identity_morphism(a), tensor_assoc_cell(b, c, d)),
    )
    assert morphisms_equal(short, long)


def test_tensor_triangle(rng):
    a, b, _, _ = _tensor_quad(rng)
    u = unit_game(UNIT_DISET)
    one = vcompose(
        tensor_assoc_cell(a, u, b),
        tensor_morphisms(identity_morphism(a), tensor_lunit_cell(b)),
    )
    other = tensor_morphisms(tensor_runit_cell(a), identity_morphism(b))
    assert morphisms_equal(one, other)


def test_symmetry_hexagon(rng):
    a, b, c, _ = _tensor_quad(rng)
    one = vcompose(
        vcompose(
            tensor_assoc_cell(a, b, c),
            symmetry_cell(a, tensor_games(b, c)),
        ),
        tensor_assoc_cell(b, c, a),
    )
    other = vcompose(
        vcompose(
            tensor_morphisms(symmetry_cell(a, b), identity_morphism(c)),
            tensor_assoc_cell(b, a, c),
        ),
        tensor_morphisms(identity_morphism(b), symmetry_cell(a, c)),
    )
    assert morphisms_equal(one, other)


def test_interchange_against_unit_splitting(rng):
    """Interchanging with units on one side reduces to boundary plumbing."""
    g1, h1 = seq_chain(rng, D21("a"), D22("b"), D22("c"))
    u = unit_game(D12("e"))
    cell = interchange_cell(g1, u, h1, u)
    assert check_morphism(cell)
    seq_side = cell.source_game
    assert seq_side.src.forward == tensor_games(g1, u).src.forward
    tensor_side = cell.target_game
    assert tensor_side.dst == seq_side.dst


# ---------- dispatch and the copy-decision pair ----------


def test_structure_cell_dispatch(rng):
    g, h, i = seq_chain(rng, D21("a"), D22("b"), D22("c"), D22("d"))
    by_name = structure_cell("seq-assoc", g, h, i)
    assert morphisms_equal(by_name, seq_assoc_cell(g, h, i))
    inv = structure_cell("seq-assoc-inv", g, h, i)
    assert morphisms_equal(inv, seq_assoc_cell(g, h, i, inverse=True))
    a = random_game(rng, src=D11("x"), dst=D12("p"), max_strategies=2)
    b = random_game(rng, src=D21("y"), dst=D21("q"), max_strategies=2)
    assert morphisms_equal(structure_cell("symmetry-inv", a, b), symmetry_cell(b, a))
    with pytest.raises(TypeMismatch):
        structure_cell("no-such-cell", g)


def test_copy_decision_pair_is_globularly_isomorphic():
    moves = make_set(["L", "R"])
    direct = copy_decision([moves, moves])
    composite = copy_decision_composite([moves, moves])
    iso = find_globular_iso(direct, composite)
    assert iso is not None
    assert iso.globular
    for s in direct.strategies:
        assert lenses_equal(direct.play(s), composite.play(iso.sigma_map(s)))


# ---------- states travel along cells ----------


def _law_cells(rng):
    """One of each globular cell on fresh random games, with the name it is known by."""
    def chain(n):
        ds = [random_diset(rng) for _ in range(n + 1)]
        return [random_game(rng, ds[j], ds[j + 1], max_strategies=2) for j in range(n)]

    g, h, i = chain(3)
    (one,) = chain(1)
    g1, h1 = chain(2)
    g2, h2 = chain(2)
    return [
        ("seq-assoc", seq_assoc_cell(g, h, i)),
        ("seq-lunit", seq_lunit_cell(one)),
        ("seq-runit", seq_runit_cell(one)),
        ("unit-split", unit_split_cell(random_diset(rng), random_diset(rng))),
        ("interchange", interchange_cell(g1, g2, h1, h2)),
    ]


def _states_transport(cell, ks):
    """The continuations of `ks` at which `sigma` does not carry states onto states."""
    return [
        k for k in ks
        if {cell.sigma_map(s) for s in game_states(cell.source_game, k)}
        != set(game_states(cell.target_game, k))
    ]


def test_globular_isos_carry_states_onto_states():
    """Morphisms preserve best responses, so a globular iso maps the states of
    its source exactly onto those of its target, at every continuation."""
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        for name, cell in _law_cells(rng):
            assert cell.globular
            ks = sample_continuations(rng, cell.target_game.dst, 4)
            assert _states_transport(cell, ks) == [], (seed, name)
            checked += len(ks)
    sets = [make_set(["L", "R"])] * 2
    iso = find_globular_iso(copy_decision(sets), copy_decision_composite(sets))
    ks = sample_continuations(random.Random(0), iso.target_game.dst, 8)
    assert _states_transport(iso, ks) == []
    assert checked + len(ks) > 700


def test_copy_decision_over_three_choices_is_its_staged_build():
    """`find_globular_iso` pairs the 2x3 copy decision with its composite, and
    the iso carries states onto states."""
    sets = [make_set(["L", "R"]), make_set(["a", "b", "c"])]
    iso = find_globular_iso(copy_decision(sets), copy_decision_composite(sets))
    assert iso is not None
    ks = sample_continuations(random.Random(3), iso.target_game.dst, 8)
    assert _states_transport(iso, ks) == []
    assert any(game_states(iso.source_game, k) for k in ks)
