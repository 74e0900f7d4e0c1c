"""End-to-end acceptance checks.

Each test prints one `criterion N: PASS/FAIL` line.  All comparisons are
exact: payoffs are rationals, solution sets are compared as whole lists
or sets, and the report determinism check compares raw bytes.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from opengames.cells import (
    seq_assoc_cell,
    seq_lunit_cell,
    seq_runit_cell,
    structure_cell,
    symmetry_cell,
    tensor_assoc_cell,
    tensor_lunit_cell,
    tensor_runit_cell,
)
from opengames.classical import (
    brute_nash,
    embed_sequential,
    oracle_spe,
    sequential_nash,
)
from opengames.cli import bundled_document_text
from opengames.dsl import parse_document
from opengames.errors import NotAState
from opengames.expr import (
    Atom,
    Product,
    eval_expr,
    separable_states_over,
    states_over,
)
from opengames.finite import (
    Tag,
    UNIT,
    UNIT_SET,
    flat_product,
    format_value,
    make_set,
    total_fn,
)
from opengames.games import (
    copy_decision,
    copy_decision_composite,
    game_states,
    product_games,
    seq_compose,
    tensor_games,
    unit_game,
)
from opengames.lenses import (
    Diset,
    Lens,
    UNIT_DISET,
    UTable,
    apply_continuation,
    lens_compose,
    lens_identity,
    lens_tensor,
    lenses_equal,
)
from opengames.morphisms import (
    check_morphism,
    find_globular_iso,
    hcompose,
    identity_morphism,
    morphism_to_state,
    morphisms_equal,
    state_to_morphism,
    tensor_morphisms,
    vcompose,
    StateCert,
)
from opengames.sampling import (
    random_game,
    random_normal_form,
    random_sequential,
    random_shared_boundary_games,
    random_total_fn,
    sample_continuations,
)
from opengames.solve import nash_normal_form, nash_sequential, spe_sequential


def criterion(n, note):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL - {note}")
                raise
            print(f"criterion {n}: PASS - {note}")

        return run

    return wrap


# ---------------------------------------------------------------------------
# 1. The bundled market entry document.
# ---------------------------------------------------------------------------


def _market_profile(profile):
    """Flatten a profile of the H composite to (entry, entrant, incumbent)."""
    entry, (_, entered) = profile
    entrant, incumbent = entered[1][0][1]
    return f"({format_value(entry(UNIT))}, {entrant(UNIT)}, {incumbent(UNIT)})"


@criterion(1, "market entry: 3 states, 1 separable, branch values 0 and 3, under 1s")
def test_c1_market_entry():
    started = time.perf_counter()
    doc = parse_document(bundled_document_text())
    expr = doc.names["H"][1]
    game = eval_expr(expr)
    assert len(game.strategies) == 8
    k = total_fn(game.dst.forward, UNIT_SET, lambda _: UNIT)

    states = states_over(expr, k)
    assert sorted(_market_profile(p) for p in states) == [
        "(inl(*), A, F)",
        "(inl(*), F, F)",
        "(inr(*), A, A)",
    ]

    pairs = separable_states_over(expr, k)
    assert len(pairs) == 1
    profile, _ = pairs[0]
    assert _market_profile(profile) == "(inr(*), A, A)"

    # The branch composite reports each branch's value back to the first
    # mover: 0 for staying out, 3 for entering against accommodation.
    mediator = eval_expr(doc.names["BRANCHES"][1]).play(profile[1])
    assert mediator.update_at(Tag(0, UNIT), UNIT) == (Fraction(0),)
    assert mediator.update_at(Tag(1, UNIT), UNIT) == (Fraction(3),)

    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Random normal forms against the deviation-scan oracle.
# ---------------------------------------------------------------------------


@criterion(2, "200 random normal forms match the deviation oracle, under 30s")
def test_c2_normal_forms():
    rng = random.Random(1002)
    started = time.perf_counter()
    found = 0
    for _ in range(200):
        nf = random_normal_form(rng)
        assert len(nf.choices) <= 3
        assert all(len(c) <= 3 for c in nf.choices)
        assert all(
            abs(u) <= 5 and u.denominator <= 4
            for vec in nf.payoff.values
            for u in vec
        )
        got = nash_normal_form(nf)
        assert got == brute_nash(nf)
        found += len(got)
    assert found > 0
    assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 3. Random staged games against the game-tree oracles.
# ---------------------------------------------------------------------------


@criterion(3, "100 random staged games match the tree oracles, under 60s")
def test_c3_sequential():
    rng = random.Random(1003)
    started = time.perf_counter()
    refined = 0
    for _ in range(100):
        sq = random_sequential(rng)
        assert set(nash_sequential(sq)) == set(sequential_nash(sq))
        engine = {
            tuple(tuple(s.values) for s in prof) for prof, _ in spe_sequential(sq)
        }
        tree = set(oracle_spe(embed_sequential(sq)))
        assert engine == tree
        assert engine, "backward induction always finds a profile"
        refined += len(engine)
    assert refined >= 100
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 4. Lens laws: exhaustive on small carriers, randomized on larger ones.
# ---------------------------------------------------------------------------

_SHAPES = [(f, b) for f in (0, 1, 2) for b in (0, 1, 2)]


def _table_lenses(sa, sb):
    """Every lens between table shapes, as (view row, flat update table).

    Empty components are included: a lens out of an empty forward set is
    the empty function, and no lens exists into an empty forward set
    from a nonempty one.  `itertools.product` counts both correctly.
    """
    fa, ba = sa
    fb, bb = sb
    return [
        (view, update)
        for view in itertools.product(range(fb), repeat=fa)
        for update in itertools.product(range(ba), repeat=fa * bb)
    ]


def _table_identity(shape):
    f, b = shape
    return (tuple(range(f)), tuple(r for _ in range(f) for r in range(b)))


def _table_compose(sa, sb, sc, l1, l2):
    fa, _ = sa
    _, bb = sb
    _, bc = sc
    v1, u1 = l1
    v2, u2 = l2
    view = tuple(v2[v1[x]] for x in range(fa))
    update = tuple(
        u1[x * bb + u2[v1[x] * bc + q]] for x in range(fa) for q in range(bc)
    )
    return (view, update)


def _shape_diset(shape, tag):
    f, b = shape
    return Diset(
        make_set([f"{tag}f{i}" for i in range(f)]),
        make_set([f"{tag}b{i}" for i in range(b)]),
    )


def _lens_from_table(rep, a: Diset, b: Diset):
    view_row, update_row = rep
    fwd_a = list(a.forward)
    back_a = list(a.backward)
    fwd_b = list(b.forward)
    back_b = list(b.backward)
    view = total_fn(
        a.forward, b.forward, lambda x: fwd_b[view_row[fwd_a.index(x)]]
    )
    entries = {
        (x, r): back_a[update_row[i * len(back_b) + j]]
        for i, x in enumerate(fwd_a)
        for j, r in enumerate(back_b)
    }
    return Lens(a, b, view, UTable(entries))


@criterion(4, "lens laws hold: exhaustive on carriers of size at most 2")
def test_c4_lens_laws_exhaustive():
    disets = {s: _shape_diset(s, f"c{_SHAPES.index(s)}") for s in _SHAPES}

    # Identity laws, checked on every lens via the engine itself.
    lens_count = 0
    for sa in _SHAPES:
        for sb in _SHAPES:
            a, b = disets[sa], disets[sb]
            for rep in _table_lenses(sa, sb):
                lens_count += 1
                l = _lens_from_table(rep, a, b)
                assert lenses_equal(lens_compose(lens_identity(a), l), l)
                assert lenses_equal(lens_compose(l, lens_identity(b)), l)
                assert _table_compose(sa, sa, sb, _table_identity(sa), rep) == rep
                assert _table_compose(sa, sb, sb, rep, _table_identity(sb)) == rep
    assert lens_count == 185

    # Associativity over every composable triple of table lenses, with a
    # strided cross-check that the table composite agrees with the engine.
    triples = 0
    cross_checked = 0
    for sa, sb, sc, sd in itertools.product(_SHAPES, repeat=4):
        lab = _table_lenses(sa, sb)
        lbc = _table_lenses(sb, sc)
        lcd = _table_lenses(sc, sd)
        for g in lbc:
            gh_all = [_table_compose(sb, sc, sd, g, h) for h in lcd]
            for f in lab:
                fg = _table_compose(sa, sb, sc, f, g)
                for h, gh in zip(lcd, gh_all):
                    left = _table_compose(sa, sc, sd, fg, h)
                    right = _table_compose(sa, sb, sd, f, gh)
                    assert left == right
                    triples += 1
                    if triples % 9973 == 0:
                        la = _lens_from_table(f, disets[sa], disets[sb])
                        lb = _lens_from_table(g, disets[sb], disets[sc])
                        lc = _lens_from_table(h, disets[sc], disets[sd])
                        engine = lens_compose(lens_compose(la, lb), lc)
                        assert lenses_equal(
                            engine, lens_compose(la, lens_compose(lb, lc))
                        )
                        assert lenses_equal(
                            engine,
                            _lens_from_table(left, disets[sa], disets[sd]),
                        )
                        cross_checked += 1
    assert triples == 641965
    assert cross_checked == triples // 9973


@criterion(4, "lens laws hold on 300 random chains over carriers of size 3")
def test_c4_lens_laws_random():
    from opengames.sampling import random_lens_chain

    rng = random.Random(1004)
    for _ in range(300):
        l1, l2, l3 = random_lens_chain(rng, 3, max_size=3)
        left = lens_compose(lens_compose(l1, l2), l3)
        right = lens_compose(l1, lens_compose(l2, l3))
        assert lenses_equal(left, right)
        assert lenses_equal(lens_compose(lens_identity(l1.dom), l1), l1)
        assert lenses_equal(lens_compose(l1, lens_identity(l1.cod)), l1)
        assert lenses_equal(
            lens_tensor(lens_compose(l1, l2), lens_compose(l1, l2)),
            lens_compose(lens_tensor(l1, l1), lens_tensor(l2, l2)),
        )
        for k in sample_continuations(rng, l2.cod, 3):
            via_composite = apply_continuation(lens_compose(l1, l2), k)
            via_steps = apply_continuation(l1, apply_continuation(l2, k))
            assert via_composite == via_steps


# ---------------------------------------------------------------------------
# 5. Structure cells over random games.
# ---------------------------------------------------------------------------

_D21 = lambda tag: Diset(make_set([f"{tag}0", f"{tag}1"]), UNIT_SET)
_D22 = lambda tag: Diset(
    make_set([f"{tag}0", f"{tag}1"]), make_set([f"{tag}r", f"{tag}s"])
)
_D11 = lambda tag: Diset(make_set([f"{tag}0"]), UNIT_SET)
_D12 = lambda tag: Diset(make_set([f"{tag}0"]), make_set([f"{tag}r", f"{tag}s"]))


def _chain(rng, *disets):
    return [
        random_game(rng, src=disets[i], dst=disets[i + 1], max_strategies=2)
        for i in range(len(disets) - 1)
    ]


def _tensor_triple(rng):
    a = random_game(rng, src=_D11("a"), dst=_D12("p"), max_strategies=2)
    b = random_game(rng, src=_D21("b"), dst=_D21("q"), max_strategies=2)
    c = random_game(rng, src=_D11("c"), dst=_D11("r"), max_strategies=2)
    return a, b, c


def _cell_args(rng, kind):
    """Arguments for a structure cell of the given kind over small boundaries."""
    if kind == "seq-assoc":
        return tuple(_chain(rng, _D21("a"), _D22("b"), _D22("c"), _D22("d")))
    if kind in ("seq-lunit", "seq-runit", "tensor-lunit", "tensor-runit"):
        return tuple(_chain(rng, _D21("a"), _D22("b")))
    if kind == "tensor-assoc":
        return _tensor_triple(rng)
    if kind == "symmetry":
        a, b, _ = _tensor_triple(rng)
        return (a, b)
    if kind == "interchange":
        g1, h1 = _chain(rng, _D21("a"), _D22("b"), _D22("c"))
        g2, h2 = _chain(rng, _D11("d"), _D12("e"), _D11("f"))
        return (g1, g2, h1, h2)
    assert kind == "unit-split"
    return (_D22("x"), _D21("y"))


_CELL_KINDS = [
    "seq-assoc",
    "seq-lunit",
    "seq-runit",
    "tensor-assoc",
    "tensor-lunit",
    "tensor-runit",
    "symmetry",
    "interchange",
    "unit-split",
]


def _coherence_figure(rng, which):
    if which == 0:
        g, h, i, j = _chain(
            rng, _D21("a"), _D22("b"), _D22("c"), _D22("d"), _D21("e")
        )
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
    elif which == 1:
        (g,) = _chain(rng, _D21("a"), _D22("b"))
        (h,) = _chain(rng, _D22("b"), _D22("c"))
        u = unit_game(g.dst)
        one = vcompose(
            seq_assoc_cell(g, u, h),
            hcompose(seq_lunit_cell(g), identity_morphism(h)),
        )
        assert morphisms_equal(one, hcompose(identity_morphism(g), seq_runit_cell(h)))
    elif which == 2:
        a, b, c = _tensor_triple(rng)
        d = random_game(rng, src=_D12("d"), dst=_D21("s"), max_strategies=2)
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
    elif which == 3:
        a, b, _ = _tensor_triple(rng)
        u = unit_game(UNIT_DISET)
        one = vcompose(
            tensor_assoc_cell(a, u, b),
            tensor_morphisms(identity_morphism(a), tensor_lunit_cell(b)),
        )
        assert morphisms_equal(
            one, tensor_morphisms(tensor_runit_cell(a), identity_morphism(b))
        )
    else:
        a, b, c = _tensor_triple(rng)
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


@criterion(5, "structure cells are invertible morphisms on 100 random games")
def test_c5_structure_cells():
    rng = random.Random(1005)
    for i in range(100):
        kind = _CELL_KINDS[i % len(_CELL_KINDS)]
        args = _cell_args(rng, kind)
        fwd = structure_cell(kind, *args)
        bwd = structure_cell(kind + "-inv", *args)
        assert check_morphism(fwd)
        assert check_morphism(bwd)
        assert morphisms_equal(
            vcompose(fwd, bwd), identity_morphism(fwd.source_game)
        )
        assert morphisms_equal(
            vcompose(bwd, fwd), identity_morphism(fwd.target_game)
        )
        if i % 10 == 9:
            _coherence_figure(rng, (i // 10) % 5)


# ---------------------------------------------------------------------------
# 6. States are exactly the morphisms out of the trivial game.
# ---------------------------------------------------------------------------


@criterion(6, "state/morphism round trips on 50 random games")
def test_c6_states_as_morphisms():
    rng = random.Random(1006)
    trips = 0
    rejected = 0
    for _ in range(50):
        g = random_game(rng)
        for k in sample_continuations(rng, g.dst, 8):
            states = game_states(g, k)
            morphs = []
            for sigma in states:
                m = state_to_morphism(g, StateCert(sigma, k))
                assert check_morphism(m)
                back = morphism_to_state(m)
                assert back.sigma == sigma
                assert back.continuation == k
                morphs.append(m)
                trips += 1
            for m1, m2 in itertools.combinations(morphs, 2):
                assert not morphisms_equal(m1, m2)
            missing = [s for s in g.strategies if s not in states]
            if missing:
                bad = state_to_morphism(g, StateCert(missing[0], k))
                with pytest.raises(NotAState):
                    morphism_to_state(bad)
                rejected += 1
    assert trips >= 50
    assert rejected >= 1


# ---------------------------------------------------------------------------
# 7. Product states decompose into factor states.
# ---------------------------------------------------------------------------


@criterion(7, "product equilibria factor through the components, 20 families")
def test_c7_product_factorization():
    rng = random.Random(1007)
    nonempty = 0
    for _ in range(20):
        count = rng.randint(2, 3)
        factors = random_shared_boundary_games(rng, count)
        prod = product_games(factors)
        k = random_total_fn(rng, prod.dst.forward, prod.dst.backward)
        factor_states = [
            game_states(
                g,
                total_fn(
                    g.dst.forward, g.dst.backward, lambda y, j=j: k(Tag(j, y))
                ),
            )
            for j, g in enumerate(factors)
        ]
        expected = [
            p
            for p in flat_product([g.strategies for g in factors])
            if all(p[j] in factor_states[j] for j in range(count))
        ]
        got = game_states(prod, k)
        assert got == expected
        assert len(got) == math.prod(len(fs) for fs in factor_states)
        sep = separable_states_over(Product([Atom(g) for g in factors]), k)
        assert [p for p, _ in sep] == got
        nonempty += bool(got)
    assert nonempty >= 10


# ---------------------------------------------------------------------------
# 8. The two copy-decision builds are the same game up to strategy renaming.
# ---------------------------------------------------------------------------


@criterion(8, "direct and staged copy-decisions are globularly isomorphic")
def test_c8_copy_decision_iso():
    bits = make_set([0, 1])
    direct = copy_decision([bits, bits])
    staged = copy_decision_composite([bits, bits])
    assert direct.src == staged.src
    assert direct.dst == staged.dst

    iso = find_globular_iso(direct, staged)
    assert iso is not None
    assert lenses_equal(iso.s_lens, lens_identity(direct.src))
    assert lenses_equal(iso.t_lens, lens_identity(direct.dst))
    assert check_morphism(iso)

    back = find_globular_iso(staged, direct)
    assert back is not None
    assert check_morphism(back)
    for sigma in direct.strategies:
        assert back.sigma_map(iso.sigma_map(sigma)) == sigma


# ---------------------------------------------------------------------------
# 9. Identical invocations produce identical report bytes.
# ---------------------------------------------------------------------------


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "opengames.cli", *args],
        capture_output=True,
        timeout=120,
    )


@criterion(9, "repeated solver runs produce byte-identical reports")
def test_c9_report_determinism(tmp_path):
    market = tmp_path / "market.og"
    market.write_text(bundled_document_text(), encoding="utf-8")
    invocations = [
        ["demo"],
        ["solve", "--input", str(market), "--mode", "separable"],
        ["solve", "--input", str(market), "--mode", "states", "--format", "text"],
        ["laws", "--trials", "3", "--seed", "7"],
    ]
    for argv in invocations:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first.returncode == 0, first.stderr.decode()
        assert second.returncode == 0
        assert first.stderr == b"" and second.stderr == b""
        assert first.stdout == second.stdout
        assert first.stdout
    demo = _run_cli(["demo"]).stdout.decode()
    assert '"elapsed_ms": null' in demo
