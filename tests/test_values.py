"""Finite sets, carriers, total functions and their canonical orders."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opengames.errors import DuplicateElement, EnumerationBound, TypeMismatch
from opengames.finite import (
    Payoff,
    PairCarrier,
    Tag,
    TotalFn,
    UNIT,
    UNIT_SET,
    carrier_contains,
    compose_fn,
    enumerate_functions,
    flat_product,
    flatten_value,
    format_value,
    identity_fn,
    is_enumerable,
    make_set,
    nest_value,
    nested_product,
    probe_values,
    tagged_union,
    tensor_carrier,
    total_fn,
    value_to_json,
)

# ---------- sets ----------


def test_make_set_rejects_duplicates():
    with pytest.raises(DuplicateElement):
        make_set(["a", "b", "a"])


def test_set_keeps_declaration_order():
    s = make_set(["b", "a", "c"])
    assert list(s) == ["b", "a", "c"]
    assert s.index("c") == 2
    assert "d" not in s


def test_product_set_varies_second_component_fastest():
    p = flat_product([make_set([0, 1]), make_set(["x", "y"])])
    assert list(p) == [(0, "x"), (0, "y"), (1, "x"), (1, "y")]


def test_coproduct_set_tags_and_rendering():
    c = tagged_union([make_set(["a"]), make_set(["a", "b"])])
    assert list(c) == [Tag(0, "a"), Tag(1, "a"), Tag(1, "b")]
    assert format_value(Tag(0, "a")) == "inl(a)"
    assert format_value(Tag(1, "b")) == "inr(b)"


def test_flat_product_of_nothing_is_the_empty_tuple():
    assert list(flat_product([])) == [()]


def test_nested_product_conventions():
    a = make_set([1, 2])
    b = make_set(["x"])
    assert nested_product([]) == UNIT_SET
    assert nested_product([a]) == a
    assert list(nested_product([a, b])) == [(1, "x"), (2, "x")]
    assert list(nested_product([a, b, a])) == [
        ((1, "x"), 1),
        ((1, "x"), 2),
        ((2, "x"), 1),
        ((2, "x"), 2),
    ]


@given(st.lists(st.integers(0, 5), max_size=5).map(tuple))
def test_nest_flatten_round_trip(values):
    assert flatten_value(nest_value(values), len(values)) == values


def test_nest_value_edge_shapes():
    assert nest_value(()) is UNIT
    assert nest_value((7,)) == 7
    assert nest_value((1, 2, 3)) == ((1, 2), 3)


# ---------- carriers ----------


def test_tensor_carrier_collapses_finite_pairs():
    a = make_set([0, 1])
    b = make_set(["u"])
    assert tensor_carrier(a, b) == flat_product([a, b])
    mixed = tensor_carrier(Payoff(1), b)
    assert isinstance(mixed, PairCarrier)
    assert carrier_contains(mixed, ((Fraction(2),), "u"))


def test_payoff_membership_is_exact_rationals():
    assert carrier_contains(Payoff(2), (Fraction(1), Fraction(-3, 2)))
    assert not carrier_contains(Payoff(2), (1.0, 2.0))
    assert not carrier_contains(Payoff(2), (Fraction(1),))


def test_zero_dimensional_payoff_is_enumerable():
    assert is_enumerable(Payoff(0))
    assert probe_values(Payoff(0)) == [()]
    assert not is_enumerable(Payoff(1))


def test_probe_values_for_payoffs_are_distinct():
    probes = probe_values(Payoff(2))
    assert probes[0] == (Fraction(0), Fraction(0))
    assert len(probes) == 4
    flat = [q for v in probes[1:] for q in v]
    assert len(set(flat)) == len(flat)


def test_probe_values_cover_pair_and_sum():
    a = make_set(["x"])
    pc = PairCarrier(a, Payoff(1))
    assert all(carrier_contains(pc, v) for v in probe_values(pc))
    sc = tagged_union([a, make_set(["y"])])
    assert all(carrier_contains(sc, v) for v in probe_values(sc))


# ---------- total functions ----------


def test_total_fn_checks_codomain():
    dom = make_set([0, 1])
    with pytest.raises(TypeMismatch):
        TotalFn(dom, make_set(["a"]), ("a", "b"))
    with pytest.raises(TypeMismatch):
        TotalFn(dom, make_set(["a"]), ("a",))


def test_total_fn_and_its_builder_reject_off_carrier_values():
    dom = make_set(["x", "y"])
    half = Fraction(1, 2)
    cases = [
        (make_set(["a"]), {"x": "a", "y": "b"}),
        (Payoff(1), {"x": (half,), "y": (1,)}),  # not a Fraction
        (Payoff(2), {"x": (half, half), "y": (half,)}),  # wrong dimension
        (PairCarrier(Payoff(1), make_set(["a"])), {"x": ((half,), "a"), "y": ((half,), "b")}),
    ]
    for cod, table in cases:
        with pytest.raises(TypeMismatch):
            TotalFn(dom, cod, tuple(table[x] for x in dom))
        with pytest.raises(TypeMismatch):
            total_fn(dom, cod, table)
        with pytest.raises(TypeMismatch):
            total_fn(dom, cod, lambda x: table[x])


def test_total_fn_equality_is_extensional():
    dom = make_set([0, 1])
    cod = make_set(["a", "b"])
    f = total_fn(dom, cod, lambda x: "a" if x == 0 else "b")
    g = total_fn(dom, cod, {0: "a", 1: "b"})
    assert f == g
    assert hash(f) == hash(g)


small_set = make_set(["p", "q", "r"])
fn_values = st.tuples(*(st.sampled_from(small_set.elements),) * 3)


@given(fn_values, fn_values, fn_values)
def test_compose_fn_associates(a, b, c):
    f = TotalFn(small_set, small_set, a)
    g = TotalFn(small_set, small_set, b)
    h = TotalFn(small_set, small_set, c)
    assert compose_fn(h, compose_fn(g, f)) == compose_fn(compose_fn(h, g), f)


@given(fn_values)
def test_identity_fn_is_neutral(a):
    f = TotalFn(small_set, small_set, a)
    i = identity_fn(small_set)
    assert compose_fn(f, i) == f
    assert compose_fn(i, f) == f


def test_enumerate_functions_order_and_bound():
    dom = make_set([0, 1])
    cod = make_set(["a", "b"])
    fns = enumerate_functions(dom, cod)
    assert [f.values for f in fns] == [
        ("a", "a"),
        ("a", "b"),
        ("b", "a"),
        ("b", "b"),
    ]
    with pytest.raises(EnumerationBound):  # 2^20 > 10^6, counted before building
        enumerate_functions(make_set(list(range(20))), cod)


# ---------- rendering ----------


def test_format_value_cases():
    assert format_value(UNIT) == "*"
    assert format_value((UNIT, ("a", Fraction(1, 2)))) == "(*, (a, 1/2))"
    k = total_fn(UNIT_SET, make_set(["z"]), lambda _: "z")
    assert format_value(k) == "z"
    two = total_fn(make_set([0, 1]), make_set(["z", "w"]), {0: "w", 1: "z"})
    assert format_value(two) == "[0->w, 1->z]"


def test_value_to_json_shapes():
    assert value_to_json((Fraction(1), Fraction(2))) == "(1, 2)"
    assert value_to_json(("a", (Fraction(1), Fraction(2)))) == ["a", "(1, 2)"]
    assert value_to_json(Tag(0, UNIT)) == "inl(*)"
    assert value_to_json(()) == []


def test_values_nested_past_the_recursion_limit_render():
    """Rendering keeps its own stack: values 10,000 deep, far past the recursion
    limit, format and convert to JSON as shallow ones do."""
    depth = 10_000
    pairs = nest_value(tuple(range(depth + 1)))  # ((0, 1), 2), ... left-nested
    assert format_value(pairs) == "(" * depth + "0" + "".join(f", {i})" for i in range(1, depth + 1))
    got = value_to_json(pairs)
    for i in range(depth, 0, -1):
        assert len(got) == 2 and got[1] == str(i)
        got = got[0]
    assert got == "0"

    # Pairs, tags and one-point tables in turn; each tag is hashed as it is
    # built, so the sets the tables need never hash deeper than one level.
    value, opens, closes = "a", [], []
    for i in range(1, depth + 1):  # ending on a tag, which JSON writes as text
        if i % 3 == 0:
            value, head, tail = (value, i), "(", f", {i})"
        elif i % 3 == 1:
            value, head, tail = Tag(i % 2, value), ("inl(", "inr(")[i % 2], ")"
            hash(value)
        else:
            value, head, tail = total_fn(UNIT_SET, make_set([value]), lambda _, v=value: v), "", ""
        opens.append(head)
        closes.append(tail)
    text = "".join(reversed(opens)) + "a" + "".join(closes)
    assert format_value(value) == text
    assert value_to_json((value, 0)) == [text, "0"]


def test_tag_hashes_its_fields_once():
    """A tag hashes as `(side, value)` does, so sets keep their order, and its
    value, however deep, is hashed on the first call only."""
    for side, value in [(0, "a"), (3, (1, ("x", UNIT))), (1, Tag(0, Tag(2, "b")))]:
        assert hash(Tag(side, value)) == hash((side, value))

    class Counting:
        calls = 0

        def __hash__(self):
            Counting.calls += 1
            return 7

    value = Counting()
    tag = Tag(2, value)
    first, second = hash(tag), hash(tag)
    assert Counting.calls == 1
    assert first == second == hash((2, value))
    assert Tag(2, value) == tag and len({tag, Tag(2, value)}) == 1
