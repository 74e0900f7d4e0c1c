"""Lenses over disets: a finite forward set paired with a backward carrier.

A lens from (X, S) to (Y, R) is a view function X -> Y together with an
update X x R -> S.  Views are finite tables.  Updates are symbolic terms
(tables, templates that rebuild the backward value, and their closures
under composition, tensor and case split) so that payoff-space carriers,
which cannot be tabulated, still compose.  Equality of lenses is always
extensional: enumerable update domains are compared in full, payoff
domains on a finite probe set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BackwardMismatch, EnumerationBound, TypeMismatch
from .finite import (
    DEFAULT_BOUND,
    FiniteSet,
    PairCarrier,
    Tag,
    TotalFn,
    UNIT,
    UNIT_SET,
    _derived_fn,
    const_fn,
    compose_fn,
    flat_product,
    format_value,
    identity_fn,
    is_enumerable,
    probe_values,
    tagged_union,
    tensor_carrier,
    total_fn,
)


@dataclass(frozen=True)
class Diset:
    """A pair of a finite forward set and a backward carrier."""

    forward: FiniteSet
    backward: object

    def __repr__(self):
        return f"({self.forward!r}, {self.backward!r})"


UNIT_DISET = Diset(UNIT_SET, UNIT_SET)


def diset_tensor(*ds: Diset) -> Diset:
    return Diset(flat_product([d.forward for d in ds]), tensor_carrier(*[d.backward for d in ds]))


def coproduct_diset(disets) -> tuple:
    """Coproduct: forward tagged union over a shared backward carrier.

    Returns the coproduct diset together with its injection lenses.
    """
    disets = list(disets)
    back = disets[0].backward
    for d in disets:
        if d.backward != back:
            raise BackwardMismatch("coproduct requires a shared backward carrier")
    fwd = tagged_union([d.forward for d in disets])
    cop = Diset(fwd, back)
    injections = []
    for j, d in enumerate(disets):
        view = total_fn(d.forward, fwd, lambda x, j=j: Tag(j, x))
        injections.append(Lens(d, cop, view, USecond(leaf())))
    return cop, injections


def copair_lenses(lenses) -> "Lens":
    """Mediating lens out of a coproduct diset from a family into a shared diset."""
    lenses = list(lenses)
    if not lenses:
        raise TypeMismatch("empty family")
    cod = lenses[0].cod
    for l in lenses:
        if l.cod != cod:
            raise TypeMismatch("coproduct mediator needs a shared codomain")
    cop, _ = coproduct_diset([l.dom for l in lenses])
    view = total_fn(cop.forward, cod.forward, lambda t: lenses[t.side].view(t.value))
    return Lens(cop, cod, view, UCase(tuple(l.update for l in lenses)))


# ---------------------------------------------------------------------------
# Templates: values rebuilt from paths into a source value.
# ---------------------------------------------------------------------------


def leaf(path=(), take=None):
    return ("leaf", tuple(path), take)


def lit(value):
    return ("lit", value)


def pair_t(left, right):
    return ("pair", left, right)


def _fill(node, v):
    kind = node[0]
    if kind == "pair":
        return (_fill(node[1], v), _fill(node[2], v))
    if kind == "lit":
        return node[1]
    _, path, take = node
    cur = v
    for step in path:
        cur = _coordinate(cur, step)
    if take is None:
        return cur
    return tuple(_coordinate(cur, i) for i in take)


def _coordinate(v, i):
    """Coordinate `i` of a pair or payoff vector; any other value has none."""
    if not isinstance(v, tuple) or i >= len(v):
        raise TypeMismatch(f"value {format_value(v)} has no coordinate {i}")
    return v[i]


# ---------------------------------------------------------------------------
# Updates: symbolic functions X x R -> S.
# ---------------------------------------------------------------------------


class Update:
    def apply(self, x, r):
        raise NotImplementedError


class UTable(Update):
    """Explicit table keyed by (forward element, backward element)."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def apply(self, x, r):
        try:
            return self.entries[(x, r)]
        except KeyError:
            raise TypeMismatch(
                f"update table has no entry for ({format_value(x)}, {format_value(r)})"
            ) from None


class USecond(Update):
    """Rebuild the backward value from a template, ignoring the forward value.

    Template nodes are ("pair", l, r), ("lit", value) and
    ("leaf", path, take) where `path` indexes into nested pairs of the
    backward value and `take` optionally selects payoff coordinates:
    `leaf()` is the identity, `lit(v)` the constant v.
    """

    def __init__(self, template):
        self.template = template

    def apply(self, x, r):
        return _fill(self.template, r)


class UComp(Update):
    """Update of a composite lens: first's update fed by second's."""

    def __init__(self, inner_update, inner_view, outer_update):
        self.inner_update = inner_update
        self.inner_view = inner_view
        self.outer_update = outer_update

    def apply(self, x, q):
        return self.inner_update.apply(x, self.outer_update.apply(self.inner_view(x), q))


class UTensor(Update):
    """One update per factor, applied to its component of the forward and backward tuples."""

    def __init__(self, *parts):
        self.parts = parts

    def apply(self, x, r):
        return tuple([u.apply(y, q) for u, y, q in zip(self.parts, x, r)])


class UCase(Update):
    """Case split on a tagged forward value (coproduct mediators)."""

    def __init__(self, branches):
        self.branches = tuple(branches)

    def apply(self, x, r):
        return self.branches[x.side].apply(x.value, r)


SANCTIONED = {"UTable", "USecond", "UComp", "UTensor", "UCase"}


def _kinds(node, acc: set) -> set:
    """The class names in an update tree: the node's, then those of every update
    held in its attributes, tuples such as `UCase.branches` included."""
    acc.add(type(node).__name__)
    for v in getattr(node, "__dict__", {}).values():
        for part in v if isinstance(v, tuple) else (v,):
            if isinstance(part, Update):
                _kinds(part, acc)
    return acc


# ---------------------------------------------------------------------------
# Lenses.
# ---------------------------------------------------------------------------


class Lens:
    """A lens between disets: a view table plus a symbolic update."""

    is_identity = False  # set by `lens_identity`

    def __init__(self, dom: Diset, cod: Diset, view: TotalFn, update: Update):
        if view.dom != dom.forward or view.cod != cod.forward:
            raise TypeMismatch("view does not match lens boundary")
        self.dom = dom
        self.cod = cod
        self.view = view
        self.update = update

    def update_at(self, x, r):
        return self.update.apply(x, r)

    def __repr__(self):
        return f"Lens({self.dom!r} -> {self.cod!r})"


def lens_identity(d: Diset) -> Lens:
    lens = Lens(d, d, identity_fn(d.forward), USecond(leaf()))
    lens.is_identity = True
    return lens


def lens_compose(first: Lens, second: Lens) -> Lens:
    """Diagrammatic composition: `first` then `second`."""
    if first.cod != second.dom:
        raise TypeMismatch(
            f"cannot compose: {first.cod!r} vs {second.dom!r}"
        )
    view = compose_fn(second.view, first.view)
    update = UComp(first.update, first.view, second.update)
    return Lens(first.dom, second.cod, view, update)


def lens_tensor(a: Lens, b: Lens) -> Lens:
    return _lens_tensor(diset_tensor(a.dom, b.dom), diset_tensor(a.cod, b.cod), a, b)


def _lens_tensor(dom: Diset, cod: Diset, *lenses: Lens) -> Lens:
    """The tensor of `lenses` onto its boundaries, built once by the caller: its
    view table is the product of theirs, as `dom.forward` is of their domains."""
    views = tuple(itertools.product(*[l.view.values for l in lenses]))  # in cod.forward
    return Lens(dom, cod, _derived_fn(dom.forward, cod.forward, views),
                UTensor(*[l.update for l in lenses]))


def counit_lens(x: FiniteSet) -> Lens:
    """The effect (X, X) -> I returning the forward value on the backward pass."""
    view = const_fn(x, UNIT_SET, UNIT)
    return Lens(Diset(x, x), UNIT_DISET, view, UTable({(v, UNIT): v for v in x}))


def cartesian_lift(f: TotalFn, backward) -> Lens:
    """Lift a forward function to a lens that passes the backward value through."""
    return Lens(Diset(f.dom, backward), Diset(f.cod, backward), f, USecond(leaf()))


def point_lens(d: Diset, h) -> Lens:
    """The state I -> d selecting history h."""
    view = const_fn(UNIT_SET, d.forward, h)
    return Lens(UNIT_DISET, d, view, USecond(lit(UNIT)))


def effect_lens(d: Diset, k: TotalFn) -> Lens:
    """The costate d -> I induced by a continuation."""
    if k.dom != d.forward:
        raise TypeMismatch("continuation domain does not match diset")
    view = const_fn(d.forward, UNIT_SET, UNIT)
    return Lens(d, UNIT_DISET, view, UTable({(x, UNIT): k(x) for x in d.forward}))


def lens_to_point(l: Lens):
    if l.dom != UNIT_DISET:
        raise TypeMismatch("not a point lens")
    return l.view(UNIT)


def lens_to_continuation(l: Lens) -> TotalFn:
    if l.cod != UNIT_DISET:
        raise TypeMismatch("not an effect lens")
    return total_fn(l.dom.forward, l.dom.backward, lambda x: l.update_at(x, UNIT))


def apply_continuation(l: Lens, k: TotalFn) -> TotalFn:
    """Transport a continuation on the codomain back along a lens.

    Along an identity lens that is `k` itself, when `k` already lands in
    the backward carrier; otherwise the table is built, checked and not kept.
    """
    if l.is_identity and k.cod == l.cod.backward and k.dom == l.cod.forward:
        return k
    if k.dom != l.cod.forward:
        raise TypeMismatch("continuation does not match lens codomain")
    return total_fn(l.dom.forward, l.dom.backward, lambda x: l.update_at(x, k(l.view(x))))


# ---------------------------------------------------------------------------
# Structure lenses.
# ---------------------------------------------------------------------------


def _rearrange_lens(dom: Diset, cod: Diset, forward, backward) -> Lens:
    """The lens that rebuilds values by templates: each forward value of `dom`
    by `forward`, each backward value of `cod` by `backward`.

    Swapping the templates (and the disets) gives the inverse lens.
    """
    view = TotalFn(dom.forward, cod.forward, tuple(_fill(forward, v) for v in dom.forward))
    return Lens(dom, cod, view, USecond(backward))


_NEST_RIGHT = pair_t(leaf([0, 0]), pair_t(leaf([0, 1]), leaf([1])))  # ((a, b), c) -> (a, (b, c))
_NEST_LEFT = pair_t(pair_t(leaf([0]), leaf([1, 0])), leaf([1, 1]))  # (a, (b, c)) -> ((a, b), c)
_PAD_LEFT = pair_t(lit(UNIT), leaf())  # a -> (*, a)
_PAD_RIGHT = pair_t(leaf(), lit(UNIT))  # a -> (a, *)
_SWAP = pair_t(leaf([1]), leaf([0]))


def assoc_lens(a: Diset, b: Diset, c: Diset) -> Lens:
    """(a (x) b) (x) c -> a (x) (b (x) c)."""
    dom = diset_tensor(diset_tensor(a, b), c)
    return _rearrange_lens(dom, diset_tensor(a, diset_tensor(b, c)), _NEST_RIGHT, _NEST_LEFT)


def unassoc_lens(a: Diset, b: Diset, c: Diset) -> Lens:
    dom = diset_tensor(a, diset_tensor(b, c))
    return _rearrange_lens(dom, diset_tensor(diset_tensor(a, b), c), _NEST_LEFT, _NEST_RIGHT)


def lunit_lens(a: Diset) -> Lens:
    """I (x) a -> a."""
    return _rearrange_lens(diset_tensor(UNIT_DISET, a), a, leaf([1]), _PAD_LEFT)


def lunit_inv_lens(a: Diset) -> Lens:
    return _rearrange_lens(a, diset_tensor(UNIT_DISET, a), _PAD_LEFT, leaf([1]))


def runit_lens(a: Diset) -> Lens:
    """a (x) I -> a."""
    return _rearrange_lens(diset_tensor(a, UNIT_DISET), a, leaf([0]), _PAD_RIGHT)


def runit_inv_lens(a: Diset) -> Lens:
    return _rearrange_lens(a, diset_tensor(a, UNIT_DISET), _PAD_RIGHT, leaf([0]))


def swap_lens(a: Diset, b: Diset) -> Lens:
    return _rearrange_lens(diset_tensor(a, b), diset_tensor(b, a), _SWAP, _SWAP)


# ---------------------------------------------------------------------------
# Extensional equality.
# ---------------------------------------------------------------------------


def _update_samples(l: Lens):
    back = l.cod.backward
    if not is_enumerable(back):
        unknown = _kinds(l.update, set()) - SANCTIONED
        if unknown:
            raise TypeMismatch(f"unsanctioned update constructors: {sorted(unknown)}")
    rs = probe_values(back)
    total = len(l.dom.forward) * len(rs)
    if total > DEFAULT_BOUND:
        raise EnumerationBound(f"{total} update probes exceed bound {DEFAULT_BOUND}")
    return rs


def lenses_equal(a: Lens, b: Lens) -> bool:
    if a is b:
        return True
    if a.dom != b.dom or a.cod != b.cod:
        return False
    if a.view != b.view:
        return False
    rs = _update_samples(a)
    for x in a.dom.forward:
        for r in rs:
            if a.update_at(x, r) != b.update_at(x, r):
                return False
    return True


# ---------------------------------------------------------------------------
# Contexts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Context:
    """A history (forward element of the source boundary) plus a continuation."""

    history: object
    continuation: TotalFn


def factor_continuation(k: TotalFn, side: int, partners: tuple, dst: Diset) -> TotalFn:
    """Component `side` of `k` on the fibre its partners' moves, in order, leave.  When
    `k.dom` is a product of finite sets (`flat_product` records them) with `dst.forward`
    at `side`, the fibre is a strided slice of `k.values`: a partner's j-th move adds j
    strides of its axis to the start, and axis `side`'s stride is the step.  Any other
    `k` is looked up.  Values are checked unless `k.cod` is a pair carrier or a product
    of finite sets with `dst.backward` at `side`."""
    factors, n = k.dom.factors, len(partners) + 1
    if factors is not None and len(factors) == n and factors[side] == dst.forward:
        start, stride = 0, 1
        for j in reversed(range(n)):
            if j == side:
                step = stride
            else:
                start += stride * factors[j].index(partners[j - (j > side)])
            stride *= len(factors[j].elements)
        rows = k.values[start:start + step * len(dst.forward.elements):step]
    else:
        rows = [k(partners[:side] + (y,) + partners[side:]) for y in dst.forward]
    try:
        vals = tuple([r[side] for r in rows])
    except (TypeError, IndexError):  # a value that is not a tuple has no component
        raise TypeMismatch(f"continuation values outside {k.cod!r}") from None
    cod = k.cod
    parts = cod.parts if isinstance(cod, PairCarrier) else getattr(cod, "factors", None)
    derived = parts is not None and len(parts) == n and parts[side] == dst.backward
    return (_derived_fn if derived else TotalFn)(dst.forward, dst.backward, vals)


def branch_continuation(k: TotalFn, j: int, dst: Diset) -> TotalFn:
    """A coproduct branch's continuation: `k` read through the injection `j`."""
    vals = tuple(k(Tag(j, y)) for y in dst.forward)
    return (_derived_fn if k.cod == dst.backward else TotalFn)(dst.forward, dst.backward, vals)


def left_context(right_play: Lens, c: Context, left_dst: Diset) -> Context:
    """Project a tensor context onto the left factor.

    The continuation plugs the right factor's view of the right history into
    the joint continuation and keeps the left component of the backward pair.
    """
    h1, h2 = c.history
    return Context(h1, factor_continuation(c.continuation, 0, (right_play.view(h2),), left_dst))


def right_context(left_play: Lens, c: Context, right_dst: Diset) -> Context:
    h1, h2 = c.history
    return Context(h2, factor_continuation(c.continuation, 1, (left_play.view(h1),), right_dst))


def default_continuations(d: Diset):
    """All continuations when the backward carrier is enumerable, probes otherwise."""
    vals = probe_values(d.backward)
    count = len(vals) ** len(d.forward)
    if count > DEFAULT_BOUND:
        raise EnumerationBound(f"{count} continuations exceed bound {DEFAULT_BOUND}")
    return [
        _derived_fn(d.forward, d.backward, vs)
        for vs in itertools.product(vals, repeat=len(d.forward))
    ]
