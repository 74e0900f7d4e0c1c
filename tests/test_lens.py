"""Lens algebra: categorical laws, structure isomorphisms, contexts."""

import random
from fractions import Fraction

import pytest

from opengames.errors import EnumerationBound, TypeMismatch
from opengames.finite import (
    PairCarrier,
    Payoff,
    TotalFn,
    UNIT,
    UNIT_SET,
    identity_fn,
    make_set,
    total_fn,
)
from opengames.lenses import (
    Context,
    Diset,
    UNIT_DISET,
    USecond,
    Update,
    apply_continuation,
    assoc_lens,
    counit_lens,
    default_continuations,
    diset_tensor,
    effect_lens,
    factor_continuation,
    leaf,
    left_context,
    lens_compose,
    lens_identity,
    lens_tensor,
    lens_to_continuation,
    lenses_equal,
    lit,
    lunit_inv_lens,
    lunit_lens,
    pair_t,
    right_context,
    runit_inv_lens,
    runit_lens,
    swap_lens,
    unassoc_lens,
)
from opengames.sampling import (
    random_continuation,
    random_diset,
    random_lens,
    random_lens_chain,
)

# ---------- categorical laws on random lenses ----------


def test_identity_laws(rng):
    for _ in range(60):
        (l,) = random_lens_chain(rng, 1)
        assert lenses_equal(lens_compose(lens_identity(l.dom), l), l)
        assert lenses_equal(lens_compose(l, lens_identity(l.cod)), l)


def test_composition_associates(rng):
    for _ in range(60):
        f, g, h = random_lens_chain(rng, 3)
        lhs = lens_compose(lens_compose(f, g), h)
        rhs = lens_compose(f, lens_compose(g, h))
        assert lenses_equal(lhs, rhs)


def test_tensor_is_functorial(rng):
    for _ in range(40):
        f, g = random_lens_chain(rng, 2)
        p, q = random_lens_chain(rng, 2)
        lhs = lens_tensor(lens_compose(f, g), lens_compose(p, q))
        rhs = lens_compose(lens_tensor(f, p), lens_tensor(g, q))
        assert lenses_equal(lhs, rhs)


def test_tensor_preserves_identities(rng):
    for _ in range(40):
        a = random_diset(rng)
        b = random_diset(rng)
        lhs = lens_tensor(lens_identity(a), lens_identity(b))
        assert lenses_equal(lhs, lens_identity(diset_tensor(a, b)))


def test_continuation_transport_is_contravariant(rng):
    for _ in range(60):
        f, g = random_lens_chain(rng, 2)
        k = random_continuation(rng, g.cod)
        via_composite = apply_continuation(lens_compose(f, g), k)
        via_steps = apply_continuation(f, apply_continuation(g, k))
        assert via_composite == via_steps


def test_compose_rejects_mismatched_boundaries(rng):
    a = Diset(make_set([0]), make_set(["s"]))
    b = Diset(make_set([0, 1]), make_set(["s"]))
    with pytest.raises(TypeMismatch):
        lens_compose(lens_identity(a), lens_identity(b))


def test_view_must_match_boundary():
    a = Diset(make_set([0, 1]), UNIT_SET)
    wrong = total_fn(make_set([0]), make_set([0]), {0: 0})
    from opengames.lenses import Lens

    with pytest.raises(TypeMismatch):
        Lens(a, a, wrong, USecond(leaf()))


# ---------- structure lenses are two-sided isomorphisms ----------


def _three(rng):
    return random_diset(rng), random_diset(rng), random_diset(rng)


def test_assoc_unassoc_inverse(rng):
    for _ in range(25):
        a, b, c = _three(rng)
        fwd = assoc_lens(a, b, c)
        bwd = unassoc_lens(a, b, c)
        assert lenses_equal(lens_compose(fwd, bwd), lens_identity(fwd.dom))
        assert lenses_equal(lens_compose(bwd, fwd), lens_identity(fwd.cod))


def test_unit_lenses_inverse(rng):
    for _ in range(25):
        a = random_diset(rng)
        lu, lui = lunit_lens(a), lunit_inv_lens(a)
        assert lenses_equal(lens_compose(lu, lui), lens_identity(lu.dom))
        assert lenses_equal(lens_compose(lui, lu), lens_identity(a))
        ru, rui = runit_lens(a), runit_inv_lens(a)
        assert lenses_equal(lens_compose(ru, rui), lens_identity(ru.dom))
        assert lenses_equal(lens_compose(rui, ru), lens_identity(a))


def test_swap_is_self_inverse(rng):
    for _ in range(25):
        a, b = random_diset(rng), random_diset(rng)
        s = swap_lens(a, b)
        assert lenses_equal(lens_compose(s, swap_lens(b, a)), lens_identity(s.dom))


def test_pentagon(rng):
    for _ in range(15):
        a, b, c = _three(rng)
        d = random_diset(rng)
        one = lens_compose(
            assoc_lens(diset_tensor(a, b), c, d),
            assoc_lens(a, b, diset_tensor(c, d)),
        )
        other = lens_compose(
            lens_compose(
                lens_tensor(assoc_lens(a, b, c), lens_identity(d)),
                assoc_lens(a, diset_tensor(b, c), d),
            ),
            lens_tensor(lens_identity(a), assoc_lens(b, c, d)),
        )
        assert lenses_equal(one, other)


def test_triangle(rng):
    for _ in range(25):
        a, b = random_diset(rng), random_diset(rng)
        one = lens_compose(
            assoc_lens(a, UNIT_DISET, b),
            lens_tensor(lens_identity(a), lunit_lens(b)),
        )
        other = lens_tensor(runit_lens(a), lens_identity(b))
        assert lenses_equal(one, other)


def test_hexagon(rng):
    for _ in range(15):
        a, b, c = _three(rng)
        one = lens_compose(
            lens_compose(assoc_lens(a, b, c), swap_lens(a, diset_tensor(b, c))),
            assoc_lens(b, c, a),
        )
        other = lens_compose(
            lens_compose(
                lens_tensor(swap_lens(a, b), lens_identity(c)),
                assoc_lens(b, a, c),
            ),
            lens_tensor(lens_identity(b), swap_lens(a, c)),
        )
        assert lenses_equal(one, other)


# ---------- effects, counit ----------


def test_effect_round_trip():
    d = Diset(make_set([0, 1]), Payoff(1))
    k = total_fn(d.forward, d.backward, {0: (Fraction(3),), 1: (Fraction(-1, 2),)})
    assert lens_to_continuation(effect_lens(d, k)) == k
    with pytest.raises(TypeMismatch):
        lens_to_continuation(lens_identity(d))


def test_counit_reflects_forward_value():
    x = make_set(["a", "b"])
    c = counit_lens(x)
    assert c.cod == UNIT_DISET
    assert c.update.apply("b", UNIT) == "b"
    assert lens_to_continuation(c)("a") == "a"


def test_effect_requires_matching_domain():
    d = Diset(make_set([0, 1]), Payoff(1))
    k = total_fn(make_set([0]), Payoff(1), {0: (Fraction(0),)})
    with pytest.raises(TypeMismatch):
        effect_lens(d, k)


# ---------- contexts ----------


def test_tensor_context_projections():
    moves = make_set(["C", "D"])
    d = Diset(moves, Payoff(1))
    table = {
        ("C", "C"): ((Fraction(2),), (Fraction(2),)),
        ("C", "D"): ((Fraction(0),), (Fraction(3),)),
        ("D", "C"): ((Fraction(3),), (Fraction(0),)),
        ("D", "D"): ((Fraction(1),), (Fraction(1),)),
    }
    joint = diset_tensor(d, d)
    k = total_fn(joint.forward, joint.backward, table)
    c = Context(("C", "D"), k)
    left = left_context(lens_identity(d), c, d)
    assert left.history == "C"
    assert left.continuation("C") == (Fraction(0),)
    assert left.continuation("D") == (Fraction(1),)
    right = right_context(lens_identity(d), c, d)
    assert right.history == "D"
    assert right.continuation("C") == (Fraction(2),)
    assert right.continuation("D") == (Fraction(3),)


def test_contexts_reject_a_mismatched_factor_boundary():
    moves = make_set(["C", "D"])
    d = Diset(moves, Payoff(1))
    joint = diset_tensor(d, d)
    k = total_fn(joint.forward, joint.backward, lambda y: ((Fraction(0),), (Fraction(1),)))
    c = Context(("C", "D"), k)
    for project in (left_context, right_context):
        for dst in (Diset(moves, Payoff(2)), Diset(moves, make_set(["r"])),
                    Diset(make_set(["C", "E"]), Payoff(1))):
            with pytest.raises(TypeMismatch):
                project(lens_identity(d), c, dst)
    # Finite backward sets collapse to a finite set of pairs.
    f = Diset(moves, make_set(["r", "s"]))
    joint = diset_tensor(f, f)
    k = total_fn(joint.forward, joint.backward, lambda y: ("s", "s"))
    narrow = Diset(moves, make_set(["r"]))
    for project in (left_context, right_context):
        with pytest.raises(TypeMismatch):
            project(lens_identity(f), Context(("C", "D"), k), narrow)


def test_transported_continuations_are_checked():
    from opengames.lenses import Lens

    d = Diset(make_set(["x"]), Payoff(1))
    view = total_fn(d.forward, d.forward, {"x": "x"})
    k = total_fn(d.forward, Payoff(1), lambda _: (Fraction(0),))
    for off in ((1,), (Fraction(0), Fraction(0))):
        with pytest.raises(TypeMismatch):
            apply_continuation(Lens(d, d, view, USecond(lit(off))), k)
        effect = Lens(d, UNIT_DISET, total_fn(d.forward, UNIT_SET, lambda _: UNIT), USecond(lit(off)))
        with pytest.raises(TypeMismatch):
            lens_to_continuation(effect)


# ---------- equality edges ----------


def test_update_table_reports_a_missing_entry():
    """Comparing table updates over Q^1 probes vectors outside the tables."""
    from opengames.lenses import Lens, UTable

    d = Diset(make_set(["a"]), Payoff(1))
    view = total_fn(d.forward, d.forward, {"a": "a"})

    def table(q):
        return Lens(d, d, view, UTable({("a", (Fraction(-1),)): (Fraction(q),)}))

    with pytest.raises(TypeMismatch, match=r"no entry for \(a, \(0\)\)"):
        lenses_equal(table(0), table(1))


def test_lenses_equal_uses_probes_on_payoff_carriers():
    d = Diset(make_set(["x"]), Payoff(2))
    a = lens_identity(d)
    b = lens_compose(a, lens_identity(d))
    assert lenses_equal(a, b)
    swap = Lens_swapping_payoff(d)
    assert not lenses_equal(a, swap)


def Lens_swapping_payoff(d):
    from opengames.lenses import Lens

    return Lens(d, d, total_fn(d.forward, d.forward, {"x": "x"}), USecond(leaf(take=(1, 0))))


def test_lenses_equal_rejects_unsanctioned_updates():
    """An unknown update is found wherever it sits in the update tree; each lens
    here is well formed, so a missed one would be applied and compare equal."""
    from opengames.lenses import Lens, UCase, UComp, UTensor, copair_lenses, coproduct_diset

    class Sneaky(Update):
        def apply(self, x, r):
            return r

    class SneakySecond(USecond):
        pass

    d = Diset(make_set(["x"]), Payoff(1))
    dd = diset_tensor(d, d)
    ident, both = lens_identity(d), lens_identity(dd)
    cop, _ = coproduct_diset([d, d])
    copair = copair_lenses([ident, ident])
    for dom, update, other in [
        (d, Sneaky(), ident),
        (d, UComp(USecond(leaf()), ident.view, Sneaky()), ident),
        (d, UComp(Sneaky(), ident.view, USecond(leaf())), ident),
        (dd, UTensor(USecond(leaf()), Sneaky()), both),
        (cop, UCase((USecond(leaf()), Sneaky())), copair),
        (d, UComp(USecond(leaf()), ident.view, SneakySecond(leaf())), ident),
    ]:
        a = Lens(dom, other.cod, other.view, update)
        with pytest.raises(TypeMismatch, match="unsanctioned"):
            lenses_equal(a, other)
    # Sanctioned updates on the same payoff carriers pass, a copair's case split included.
    assert lenses_equal(copair, copair_lenses([ident, ident]))
    assert lenses_equal(Lens(d, d, ident.view, USecond(leaf())), ident)


def _random_carrier(rng, depth=2):
    """Q^1..Q^3, or a pair of such carriers."""
    if depth and rng.random() < 0.4:
        return PairCarrier(_random_carrier(rng, depth - 1), _random_carrier(rng, depth - 1))
    return Payoff(rng.randint(1, 3))


def _random_value(rng, carrier):
    if isinstance(carrier, PairCarrier):
        return (_random_value(rng, carrier.parts[0]), _random_value(rng, carrier.parts[1]))
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(carrier.dim))


def _parts(carrier, path=()):
    """(path, carrier) for a carrier and each of its components, nested ones included."""
    yield path, carrier
    if isinstance(carrier, PairCarrier):
        yield from _parts(carrier.parts[0], path + (0,))
        yield from _parts(carrier.parts[1], path + (1,))


def _random_template(rng, src, dst):
    """A template rebuilding a value of `dst` from one of `src`."""
    same = [path for path, part in _parts(src) if part == dst]
    if same and rng.random() < 0.3:
        return leaf(rng.choice(same))
    if isinstance(dst, PairCarrier):
        return pair_t(_random_template(rng, src, dst.parts[0]), _random_template(rng, src, dst.parts[1]))
    if rng.random() < 0.2:
        return lit(_random_value(rng, dst))
    path, part = rng.choice([(p, c) for p, c in _parts(src) if isinstance(c, Payoff)])
    return leaf(path, take=tuple(rng.randrange(part.dim) for _ in range(dst.dim)))


def _spelled_out(src, t):
    """The same map as `t`, each whole-value leaf written one level further down."""
    if t[0] == "pair":
        return pair_t(_spelled_out(src, t[1]), _spelled_out(src, t[2]))
    if t[0] == "lit" or t[2] is not None:
        return t
    part = dict(_parts(src))[t[1]]
    if isinstance(part, PairCarrier):
        return pair_t(leaf(t[1] + (0,)), leaf(t[1] + (1,)))
    return leaf(t[1], take=tuple(range(part.dim)))


def _redrawn(rng, src, dst, t):
    """`t` with one part drawn again, which may or may not change the map."""
    if t[0] == "pair":
        if rng.random() < 0.5:
            return pair_t(_redrawn(rng, src, dst.parts[0], t[1]), t[2])
        return pair_t(t[1], _redrawn(rng, src, dst.parts[1], t[2]))
    return _random_template(rng, src, dst)


def test_probes_tell_template_updates_apart():
    """`lenses_equal` on two template updates agrees with evaluating both on
    random vectors, so the probes separate identities, constants and
    rearrangements alike."""
    from opengames.lenses import Lens

    rng = random.Random("template-probes")
    x = make_set(["x", "y"])
    verdicts = []
    for _ in range(300):
        src, dst = _random_carrier(rng), _random_carrier(rng)
        t = _random_template(rng, src, dst)
        u = rng.choice([
            lambda: _random_template(rng, src, dst),
            lambda: _spelled_out(src, t),
            lambda: _redrawn(rng, src, dst, t),
        ])()
        a, b = (Lens(Diset(x, dst), Diset(x, src), identity_fn(x), USecond(s)) for s in (t, u))
        samples = [_random_value(rng, src) for _ in range(30)]
        agree = all(a.update.apply("x", r) == b.update.apply("x", r) for r in samples)
        assert lenses_equal(a, b) == agree, (src, dst, t, u)
        verdicts.append(agree)
    assert 50 < sum(verdicts) < 250


def test_lenses_equal_bound():
    d = Diset(make_set(list(range(1001))), make_set(list(range(1000))))
    with pytest.raises(EnumerationBound):  # 1001 x 1000 update probes > 10^6
        lenses_equal(lens_identity(d), lens_identity(d))


def test_default_continuations_bound_and_order():
    d = Diset(make_set([0, 1]), make_set(["r", "s"]))
    ks = default_continuations(d)
    assert len(ks) == 4
    assert ks[0].values == ("r", "r")
    with pytest.raises(EnumerationBound):  # 2^20 > 10^6, counted before building
        default_continuations(Diset(make_set(list(range(20))), d.backward))


# ---------- tables that need no rebuild ----------


def test_identity_lens_hands_a_continuation_back_unchanged():
    d = Diset(make_set(["C", "D"]), Payoff(1))
    k = total_fn(d.forward, Payoff(1), lambda y: (Fraction(y == "C"),))
    assert apply_continuation(lens_identity(d), k) is k
    # A continuation into another carrier is rebuilt on the backward carrier and checked.
    bits = make_set([(Fraction(0),), (Fraction(1),)])
    narrow = total_fn(d.forward, bits, lambda y: (Fraction(y == "C"),))
    pulled = apply_continuation(lens_identity(d), narrow)
    assert pulled is not narrow and pulled == k
    seven = total_fn(d.forward, Payoff(1), lambda y: (Fraction(7),))
    with pytest.raises(TypeMismatch):
        apply_continuation(lens_identity(Diset(d.forward, bits)), seven)
    with pytest.raises(TypeMismatch):
        apply_continuation(lens_identity(d), total_fn(UNIT_SET, Payoff(1), lambda _: (Fraction(0),)))


def test_factor_tables_of_finite_products_are_not_checked_again(monkeypatch):
    import opengames.finite as og_finite

    scans = []
    contains = og_finite.carrier_contains

    def scanning(carrier, v):
        scans.append(v)
        return contains(carrier, v)

    f = Diset(make_set(["C", "D"]), make_set(["r", "s"]))
    joint = diset_tensor(f, f)
    k = total_fn(joint.forward, joint.backward, lambda y: ("r", "s") if "C" in y else ("s", "r"))
    monkeypatch.setattr(og_finite, "carrier_contains", scanning)
    for project in (left_context, right_context):
        assert project(lens_identity(f), Context(("C", "D"), k), f).continuation.cod == f.backward
    assert scans == []
    # A factor that is not the asked carrier is still checked value by value.
    with pytest.raises(TypeMismatch):
        left_context(lens_identity(f), Context(("C", "D"), k), Diset(f.forward, make_set(["r"])))
    assert scans


def _product_continuation(rng, m, n):
    """A random continuation on a product of two finite sets of sizes m and n."""
    a = Diset(make_set([f"a{i}" for i in range(m)]), Payoff(1))
    b = Diset(make_set([f"b{j}" for j in range(n)]), Payoff(1))
    joint = diset_tensor(a, b)
    q = lambda: (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),)
    return a, b, total_fn(joint.forward, joint.backward, lambda _: (q(), q()))


def test_factor_tables_read_by_index_equal_the_lookup():
    """On a product domain a factor table is a stride (side 0) or a block (side 1)
    of the joint table, equal to looking each row up."""
    rng = random.Random("factor-stride")
    for m in range(1, 5):
        for n in range(1, 5):
            a, b, k = _product_continuation(rng, m, n)
            for side, own, partner in ((0, a, b), (1, b, a)):
                for move in partner.forward:
                    pair = (lambda y: (y, move)) if side == 0 else (lambda y: (move, y))
                    want = tuple(k(pair(y))[side] for y in own.forward)
                    got = factor_continuation(k, side, (move,), own)
                    assert got == TotalFn(own.forward, own.backward, want), (m, n, side, move)


def test_factor_tables_fall_back_to_lookup_without_recorded_factors(monkeypatch):
    """A domain equal to the product but built by `make_set` records no factors,
    so its factor tables are looked up row by row, with the same values."""
    rng = random.Random("factor-lookup")
    a, b, k = _product_continuation(rng, 3, 2)
    flat = TotalFn(make_set(k.dom.elements), k.cod, k.values)
    assert flat.dom == k.dom and flat.dom.factors is None and k.dom.factors is not None
    calls = []
    call = TotalFn.__call__

    def counting(fn, x):
        calls.append(fn)
        return call(fn, x)

    monkeypatch.setattr(TotalFn, "__call__", counting)
    for side, own, partner in ((0, a, b), (1, b, a)):
        for move in partner.forward:
            by_index = factor_continuation(k, side, (move,), own)
            assert not calls
            assert factor_continuation(flat, side, (move,), own) == by_index
            assert calls.count(flat) == len(own.forward)
            calls.clear()


def test_factor_tables_reject_a_partner_move_outside_the_partner_set():
    rng = random.Random("factor-partner")
    a, b, k = _product_continuation(rng, 2, 3)
    flat = TotalFn(make_set(k.dom.elements), k.cod, k.values)
    for table in (k, flat):
        for side, own, stranger in ((0, a, "a0"), (1, b, "b0"), (0, a, "zz"), (1, b, [1])):
            with pytest.raises(TypeMismatch):
                factor_continuation(table, side, (stranger,), own)
