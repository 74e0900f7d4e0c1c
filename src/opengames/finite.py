"""Finite sets, tagged values, exact payoff carriers and total functions.

Values that may appear as elements are closed under three constructors:
plain atoms (strings and ints), pairs (python tuples), and tagged
injections (`Tag`).  The distinguished singleton element is `UNIT`.
Payoff vectors are tuples of `fractions.Fraction`.  Everything is
immutable and hashable, so values can be table keys and set members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DuplicateElement, EnumerationBound, TypeMismatch

#: Ceiling for every exhaustive enumeration (function spaces, equality tables).
DEFAULT_BOUND = 10**6


class _Unit:
    """The canonical inhabitant of the one-element set."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


UNIT = _Unit()


@dataclass(frozen=True)
class Tag:
    """A value injected into a tagged union; `side` is 0-based."""

    side: int
    value: object

    def __hash__(self):
        # The generated hash walks the whole nested value, so it is computed
        # once, with the same formula, keeping hash values and set orders.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.side, self.value))
        return h

    def __repr__(self):
        return f"{inj_name(self.side)}({self.value!r})"


def inj_name(side: int) -> str:
    return {0: "inl", 1: "inr"}.get(side, f"in{side + 1}")


@dataclass(frozen=True)
class FiniteSet:
    """An ordered finite set of distinct values; construction order is canonical.

    `FiniteSet(...)` and `make_set` check that the values are distinct: they
    build sets from outside the engine, such as document declarations.
    `_derived_set` skips that scan; the engine uses it where the values are
    distinct by construction (products of finite sets, function spaces).
    The index behind `in` and `index` is built on first use either way.
    A product of finite sets records its `factors`, so that code reading
    one component of its pairs knows which set that component lies in.
    """

    elements: tuple
    factors = None  # the factor sets, for sets built by `flat_product`

    def __post_init__(self):
        idx = {}
        for i, v in enumerate(self.elements):
            if v in idx:
                raise DuplicateElement(f"duplicate element {format_value(v)}")
            idx[v] = i
        object.__setattr__(self, "_index", idx)

    def __hash__(self):
        # Computed on first use only: most sets are never used as keys.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.elements,))
        return h

    @cached_property
    def _index(self):
        # Only derived sets get here; a checked set keeps the index of its scan.
        return {v: i for i, v in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v):
        try:
            return v in self._index
        except TypeError:  # unhashable, so not an element
            return False

    def index(self, v) -> int:
        try:
            return self._index[v]
        except (KeyError, TypeError):
            raise TypeMismatch(f"{format_value(v)} is not an element of {self}") from None

    def __repr__(self):
        return "{" + ", ".join(format_value(v) for v in self.elements) + "}"


def _derived_set(elements: tuple, factors=None) -> FiniteSet:
    """A set whose values are known to be distinct; see `FiniteSet`."""
    s = object.__new__(FiniteSet)
    s.__dict__["elements"] = elements
    if factors is not None:
        s.__dict__["factors"] = factors
    return s


def make_set(values) -> FiniteSet:
    return FiniteSet(tuple(values))


UNIT_SET = make_set([UNIT])


def tagged_union(sets) -> FiniteSet:
    """Tagged disjoint union: all of the first set under inl, then the next under inr, ..."""
    out = []
    for j, s in enumerate(sets):
        out.extend(Tag(j, v) for v in s)
    return make_set(out)


def flat_product(sets) -> FiniteSet:
    """n-tuples in lexicographic order; the 0-ary product is {()}.

    The size is checked against `DEFAULT_BOUND` before any tuple is built.
    Tuples over finite sets are distinct by construction; factors given as
    plain sequences may repeat values, so those products are checked.
    """
    count = math.prod(len(s) for s in sets)
    if count > DEFAULT_BOUND:
        raise EnumerationBound(f"{count} tuples exceed bound {DEFAULT_BOUND}")
    tuples = tuple(itertools.product(*sets))
    if all(isinstance(s, FiniteSet) for s in sets):
        return _derived_set(tuples, tuple(sets))
    return FiniteSet(tuples)


def nested_product(sets) -> FiniteSet:
    """Left-nested product: 0-ary is the unit set, 1-ary is the set itself."""
    sets = list(sets)
    if not sets:
        return UNIT_SET
    acc = sets[0]
    for s in sets[1:]:
        acc = flat_product([acc, s])
    return acc


def nest_value(values):
    """Collapse a flat tuple into the left-nested shape of `nested_product`."""
    if len(values) == 0:
        return UNIT
    acc = values[0]
    for v in values[1:]:
        acc = (acc, v)
    return acc


def flatten_value(v, arity: int) -> tuple:
    """Inverse of `nest_value` at a known arity."""
    if arity == 0:
        return ()
    out = []
    for _ in range(arity - 1):
        v, last = v
        out.append(last)
    out.append(v)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Carriers: the spaces allowed on the backward side of a diset.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Payoff:
    """The payoff space Q^dim; elements are dim-tuples of Fraction."""

    dim: int

    def __repr__(self):
        return f"Q^{self.dim}"


@dataclass(frozen=True, init=False)
class PairCarrier:
    """Tuples with one value per part: `PairCarrier(a, b)` holds pairs."""

    parts: tuple

    def __init__(self, *parts):
        object.__setattr__(self, "parts", parts)

    def __repr__(self):
        return "(" + " x ".join(map(repr, self.parts)) + ")"


def tensor_carrier(*parts):
    """Backward space of a tensor, one part per factor; finite sets collapse to a concrete one."""
    if all(isinstance(c, FiniteSet) for c in parts):
        return flat_product(parts)
    return PairCarrier(*parts)


def is_enumerable(carrier) -> bool:
    if isinstance(carrier, FiniteSet):
        return True
    if isinstance(carrier, Payoff):
        return carrier.dim == 0
    if isinstance(carrier, PairCarrier):
        return all(map(is_enumerable, carrier.parts))
    raise TypeMismatch(f"not a carrier: {carrier!r}")


def carrier_contains(carrier, v) -> bool:
    if isinstance(carrier, FiniteSet):
        return v in carrier
    if isinstance(carrier, Payoff):
        return (
            isinstance(v, tuple)
            and len(v) == carrier.dim
            and all(isinstance(q, Fraction) for q in v)
        )
    if isinstance(carrier, PairCarrier):
        return (
            isinstance(v, tuple)
            and len(v) == len(carrier.parts)
            and all(map(carrier_contains, carrier.parts, v))
        )
    raise TypeMismatch(f"not a carrier: {carrier!r}")


def _primes():
    n = 2
    while True:
        for p in range(2, int(n**0.5) + 1):
            if n % p == 0:
                break
        else:
            yield n
        n += 1


def probe_values(carrier) -> list:
    """Finite witness set for extensional comparison of maps out of `carrier`.

    Finite parts are enumerated in full.  A payoff space Q^d contributes the
    zero vector plus d+1 vectors whose coordinates are pairwise distinct
    primes, which separates any two distinct maps built from coordinate
    rearrangements, constants and table lookups.
    """
    if isinstance(carrier, FiniteSet):
        return list(carrier)
    if isinstance(carrier, Payoff):
        d = carrier.dim
        if d == 0:
            return [()]
        gen = _primes()
        vecs = [tuple(Fraction(0) for _ in range(d))]
        for _ in range(d + 1):
            vecs.append(tuple(Fraction(next(gen)) for _ in range(d)))
        return vecs
    if isinstance(carrier, PairCarrier):
        return list(itertools.product(*map(probe_values, carrier.parts)))
    raise TypeMismatch(f"not a carrier: {carrier!r}")


# ---------------------------------------------------------------------------
# Total functions with extensional equality.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TotalFn:
    """A total function between a finite set and a carrier, stored as a table.

    `values` is aligned with the domain's canonical element order, which makes
    equality extensional for free.

    `TotalFn(...)` and `total_fn` check every value against the codomain:
    they build tables from outside the engine and tables filled by symbolic
    updates, which nothing type-checks.  `_derived_fn` checks only the
    length; the engine uses it where each value is read from a checked table
    with the same codomain or is an element of the codomain.
    """

    dom: FiniteSet
    cod: object
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.dom):
            raise TypeMismatch("table length does not match domain size")
        for v in self.values:
            if not carrier_contains(self.cod, v):
                raise TypeMismatch(f"value {format_value(v)} outside codomain {self.cod!r}")

    def __hash__(self):
        # Tables are memo keys on the best-response path, and hashing one
        # hashes every exact payoff in it, so it is done once per table and
        # only for tables that are ever looked up.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.dom, self.cod, self.values))
        return h

    def __call__(self, x):
        try:
            i = self.dom._index[x]
        except (KeyError, TypeError):
            i = self.dom.index(x)  # raises the error naming the domain
        return self.values[i]

    def __repr__(self):
        return format_value(self)


def _derived_fn(dom: FiniteSet, cod, values: tuple) -> TotalFn:
    """A table whose values are known to lie in `cod`; see `TotalFn`."""
    if len(values) != len(dom.elements):
        raise TypeMismatch("table length does not match domain size")
    fn = object.__new__(TotalFn)
    fn.__dict__.update(dom=dom, cod=cod, values=values)
    return fn


def total_fn(dom: FiniteSet, cod, mapping) -> TotalFn:
    """Build a TotalFn from a callable or a dict keyed by domain elements."""
    if callable(mapping) and not isinstance(mapping, dict):
        vals = tuple(mapping(x) for x in dom)
    else:
        vals = tuple(mapping[x] for x in dom)
    return TotalFn(dom, cod, vals)


def identity_fn(s: FiniteSet) -> TotalFn:
    return _derived_fn(s, s, s.elements)


def compose_fn(g: TotalFn, f: TotalFn) -> TotalFn:
    """g after f."""
    if f.cod != g.dom:
        raise TypeMismatch("composition boundary mismatch")
    return _derived_fn(f.dom, g.cod, tuple(g(v) for v in f.values))


def const_fn(dom: FiniteSet, cod, value) -> TotalFn:
    return TotalFn(dom, cod, tuple(value for _ in dom))


def enumerate_functions(dom: FiniteSet, cod: FiniteSet):
    """All total functions dom -> cod in canonical (codomain-lexicographic) order."""
    count = len(cod) ** len(dom)
    if count > DEFAULT_BOUND:
        raise EnumerationBound(
            f"{len(cod)}^{len(dom)} = {count} functions exceeds bound {DEFAULT_BOUND}"
        )
    return [
        _derived_fn(dom, cod, vals)
        for vals in itertools.product(cod.elements, repeat=len(dom))
    ]


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def format_value(v) -> str:
    """`v` as text.  Pieces still to write wait on a stack, the next on top, and a
    `str` piece writes as itself, so a value nested past the recursion limit formats too."""
    out, todo = [], [v]
    while todo:
        v = todo.pop()
        if type(v) is str:
            out.append(v)
        elif isinstance(v, tuple):  # each item but the last followed by ", "
            todo += [")", *[p for x in reversed(v) for p in (x, ", ")][:-1], "("]
        elif isinstance(v, Tag):
            todo += (")", v.value, inj_name(v.side) + "(")
        elif isinstance(v, TotalFn) and len(v.dom) == 1:
            todo.append(v.values[0])
        elif isinstance(v, TotalFn):
            pairs = zip(reversed(v.dom.elements), reversed(v.values))
            todo += ["]", *[p for x, y in pairs for p in (y, "->", x, ", ")][:-1], "["]
        else:
            out.append("*" if v is UNIT else str(v))
    return "".join(out)


def value_to_json(v):
    """JSON-friendly form: pairs become lists, everything else a string.  Built in
    place from a stack of (value, list it goes into), so any depth converts."""
    top = []
    todo = [(v, top)]
    while todo:
        v, into = todo.pop()
        if isinstance(v, tuple) and not (v and all(isinstance(q, Fraction) for q in v)):
            into.append([])
            todo += [(x, into[-1]) for x in reversed(v)]
        else:
            into.append(format_value(v))
    return top[0]
