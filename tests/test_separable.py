"""Separable states: the shared joins against the per-node reference recursion.

`_reference_separable` is the recursion the engine used before separable
states ran through the combinators' own `states` joins: hand-written Seq,
Tensor and Product cases, with the Tensor and Product cases walking the
whole composite strategy set, then a sort into strategy order.  It is kept
here, unchanged, as the reference the joins are compared with.
"""

import random
from fractions import Fraction
from itertools import product

from opengames.cli import _expr_continuation, bundled_document_text
from opengames.dsl import parse_document
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
    eval_expr,
    separable_states_over,
    states_over,
)
from opengames.finite import Payoff, PairCarrier, Tag, make_set, total_fn
from opengames.games import copy_decision, decision, game_states
from opengames.lenses import branch_continuation, factor_continuation
from opengames.solve import build_sequential_expr
from helpers import random_sequential

MOVES = make_set(["C", "D"])
Q = Fraction


# ---------- the reference recursion ----------


def _reference_separable_states_over(expr, continuation):
    table = _separable(expr, continuation, {})
    ordered = sorted(table, key=lambda profile: _rank(expr, profile))
    return [(profile, table[profile]) for profile in ordered]


def _rank(expr, profile):
    if isinstance(expr, Atom):
        return expr.game.strategies.index(profile)
    if isinstance(expr, Seq):
        return (_rank(expr.first, profile[0]), _rank(expr.second, profile[1]))
    if isinstance(expr, Tensor):
        return (_rank(expr.left, profile[0]), _rank(expr.right, profile[1]))
    return tuple(_rank(c, p) for c, p in zip(expr.children, profile))


def _separable(expr, k, memo):
    key = (expr, k)
    if key in memo:
        return memo[key]

    if isinstance(expr, Atom):
        out = {s: CertAtom(s, k) for s in game_states(expr.game, k)}

    elif isinstance(expr, Seq):
        h = eval_expr(expr.second)
        out = {}
        for tau, cert_second in _separable(expr.second, k, memo).items():
            cut = h.transport(h.strategies.index(tau), k)
            for sigma, cert_first in _separable(expr.first, cut, memo).items():
                out[(sigma, tau)] = CertSeq(cert_first, cert_second, cut)

    elif isinstance(expr, Tensor):
        gl, gr = eval_expr(expr.left), eval_expr(expr.right)
        subs = {}  # (side, partner move) -> separable table of that factor
        out = {}
        for sl, sr in eval_expr(expr).strategies:
            cert = _tensor_cert(expr, k, memo, subs, gl, gr, sl, sr)
            if cert is not None:
                out[(sl, sr)] = cert

    elif isinstance(expr, Product):
        # A child's table is built when the first profile reaches it, so a
        # child no profile reaches is never evaluated.
        subs = {}  # j -> separable table of child j
        out = {}
        for profile in eval_expr(expr).strategies:
            certs = []
            for j, child in enumerate(expr.children):
                sub = subs.get(j)
                if sub is None:
                    kj = branch_continuation(k, j, eval_expr(child).dst)
                    sub = subs[j] = _separable(child, kj, memo)
                if profile[j] not in sub:
                    certs = None
                    break
                certs.append(sub[profile[j]])
            if certs is not None:
                out[profile] = CertProduct(tuple(certs))

    else:
        raise TypeMismatch(f"not a game expression: {expr!r}")

    memo[key] = out
    return out


def _tensor_cert(expr, k, memo, subs, gl, gr, sl, sr):
    """Certify (sl, sr) against k; `subs` holds the factor tables built so far."""
    right_view = gr.play(gr.strategies.index(sr)).view
    left_certs = []
    for h2 in gr.src.forward:
        y2 = right_view(h2)
        sub = subs.get((0, y2))
        if sub is None:
            kl = factor_continuation(k, 0, (y2,), gl.dst)
            sub = subs[(0, y2)] = _separable(expr.left, kl, memo)
        if sl not in sub:
            return None
        left_certs.append((h2, sub[sl]))
    left_view = gl.play(gl.strategies.index(sl)).view
    right_certs = []
    for h1 in gl.src.forward:
        y1 = left_view(h1)
        sub = subs.get((1, y1))
        if sub is None:
            kr = factor_continuation(k, 1, (y1,), gr.dst)
            sub = subs[(1, y1)] = _separable(expr.right, kr, memo)
        if sr not in sub:
            return None
        right_certs.append((h1, sub[sr]))
    return CertTensor(tuple(left_certs), tuple(right_certs))


# ---------- random expression trees ----------
#
# A shape describes a target boundary that a further stage can start at:
# ("stage", sets) is (nested product of sets, Q^len(sets)), the target of a
# copy decision; ("tensor", a, b) and ("product", shapes) are the targets of
# tensors and products.  Product children are built from one form (a chain,
# a tensor or a product of forms), so they share one backward carrier, and a
# product is continued by the same number of stages after every stage.

MAX_STRATEGIES = 1500


def _choices(rng, prefix, empty=False, most=2):
    low = 0 if empty and rng.random() < 0.3 else 1
    return make_set(tuple(f"{prefix}{i}" for i in range(rng.randint(low, most))))


def _step(rng, sets, empty):
    """A copy decision extending the stage `sets`, or a decision when `sets` is None.

    From the fourth stage on the choice is forced, which keeps strategy sets small.
    """
    y = _choices(rng, "y", most=3) if sets is None or len(sets) < 3 else make_set(["y0"])
    if sets is None:
        return Atom(decision(_choices(rng, "x", empty), y)), ("stage", [y])
    return Atom(copy_decision(sets + [y])), ("stage", sets + [y])


def _chain(rng, sets, length, empty):
    first, shape = _step(rng, sets, empty)
    if length == 1:
        return first, shape
    rest, shape = _chain(rng, shape[1], length - 1, empty)
    return Seq(first, rest), shape


def _form(rng, depth):
    """A form that several product children can share: (kind, ...) where a
    chain is ("chain", stages before it or None for a decision, length)."""
    kind = rng.choice(["chain", "chain", "tensor", "product"]) if depth else "chain"
    if kind == "chain":
        return ("chain", rng.choice([None, 0, 1]), rng.randint(1, 2))
    if kind == "tensor":
        return ("tensor", _form(rng, depth - 1), _form(rng, depth - 1))
    return ("product", _form(rng, depth - 1))


def _build(rng, form, empty):
    """An expression of `form`, with its target shape."""
    if form[0] == "chain":
        _, stages, length = form
        sets = None if stages is None else [_choices(rng, "p", empty) for _ in range(stages)]
        return _chain(rng, sets, length, empty)
    if form[0] == "tensor":
        (left, dl), (right, dr) = (_build(rng, f, empty) for f in form[1:])
        return Tensor(left, right), ("tensor", dl, dr)
    children = [_build(rng, form[1], empty) for _ in range(rng.randint(1, 3))]
    return Product(tuple(c for c, _ in children)), ("product", [d for _, d in children])


def _extend(rng, shape, length, empty):
    """`length` further stages after every stage of `shape`, keeping its form."""
    if shape[0] == "stage":
        return _chain(rng, shape[1], length, empty)
    if shape[0] == "tensor":
        (left, dl), (right, dr) = (_extend(rng, s, length, empty) for s in shape[1:])
        return Tensor(left, right), ("tensor", dl, dr)
    children = [_extend(rng, s, length, empty) for s in shape[1]]
    return Product(tuple(c for c, _ in children)), ("product", [d for _, d in children])


def _grow(rng, depth, src, empty):
    """A random expression starting at shape `src` (None: anywhere), with its target shape."""
    if src is not None and src[0] == "tensor":
        (left, dl), (right, dr) = (_grow(rng, depth, s, empty) for s in src[1:])
        return Tensor(left, right), ("tensor", dl, dr)
    if src is not None and src[0] == "product":
        return _extend(rng, src, rng.randint(1, 2), empty)
    ops = ["leaf", "seq"] if src else ["leaf", "seq", "tensor", "product"]
    op = rng.choice(ops) if depth else "leaf"
    if op == "leaf":
        if src is None and rng.random() < 0.5:
            return _step(rng, None, empty)
        sets = src[1] if src else [_choices(rng, "h", empty) for _ in range(rng.randint(0, 2))]
        return _step(rng, sets, empty)
    if op == "seq":
        first, mid = _grow(rng, depth - 1, src, empty)
        second, shape = _grow(rng, depth - 1, mid, empty)
        return Seq(first, second), shape
    if op == "tensor":
        (left, dl), (right, dr) = (_grow(rng, depth - 1, None, empty) for _ in range(2))
        return Tensor(left, right), ("tensor", dl, dr)
    return _build(rng, ("product", _form(rng, depth)), empty)


def _size(expr):
    if isinstance(expr, Atom):
        return len(expr.game.strategies)
    if isinstance(expr, Seq):
        return _size(expr.first) * _size(expr.second)
    if isinstance(expr, Tensor):
        return _size(expr.left) * _size(expr.right)
    out = 1
    for c in expr.children:
        out *= _size(c)
    return out


def _value(rng, carrier):
    if isinstance(carrier, Payoff):
        return tuple(Q(rng.randint(0, 3)) for _ in range(carrier.dim))
    if isinstance(carrier, PairCarrier):
        return (_value(rng, carrier.parts[0]), _value(rng, carrier.parts[1]))
    return rng.choice(carrier.elements)


def _any_tree(rng, empty):
    return _grow(rng, rng.randint(2, 3), None, empty)[0]


def _product_at_cuts(rng, empty):
    """seq(product of tensors or of products, further stages): the product is
    certified once per cut the second stage leaves."""
    inner = rng.choice([("tensor", _form(rng, 0), _form(rng, 0)), ("product", _form(rng, 0))])
    first, mid = _build(rng, ("product", inner), empty)
    second, _ = _extend(rng, mid, rng.randint(1, 2), empty)
    return Seq(first, second)


def _random_trees(seed, count, empty, make=_any_tree):
    """`count` random trees from `make`, each with a random continuation on its target."""
    rng = random.Random(f"separable/{seed}")
    out = []
    while len(out) < count:
        expr = make(rng, empty)
        if isinstance(expr, Atom) or _size(expr) > MAX_STRATEGIES:
            continue
        game = eval_expr(expr)
        back = game.dst.backward
        k = total_fn(game.dst.forward, back, lambda _: _value(rng, back))
        out.append((expr, k))
    return out


def _nodes(expr):
    yield expr
    if isinstance(expr, Seq):
        parts = (expr.first, expr.second)
    elif isinstance(expr, Tensor):
        parts = (expr.left, expr.right)
    else:
        parts = getattr(expr, "children", ())
    for part in parts:
        yield from _nodes(part)


# ---------- witnesses re-derived from the definitions ----------


def _check_witness(expr, profile, cert, k):
    """Re-derive one certificate node by node from the definitions it stands for."""
    if isinstance(expr, Atom):
        assert cert == CertAtom(profile, k)
        assert profile in game_states(expr.game, k)
    elif isinstance(expr, Seq):
        assert isinstance(cert, CertSeq)
        second = eval_expr(expr.second)
        assert cert.cut == second.transport(second.strategies.index(profile[1]), k)
        _check_witness(expr.first, profile[0], cert.first, cert.cut)
        _check_witness(expr.second, profile[1], cert.second, k)
    elif isinstance(expr, Tensor):
        assert isinstance(cert, CertTensor)
        parts = (expr.left, expr.right)
        games = [eval_expr(p) for p in parts]
        joint = len(games[0].src.forward) * len(games[1].src.forward)
        for side, listed in enumerate((cert.left, cert.right)):
            own, partner = games[side], games[1 - side]
            assert [h for h, _ in listed] == (list(partner.src.forward) if joint else [])
            view = partner.play(partner.strategies.index(profile[1 - side])).view
            for h, c in listed:
                kf = factor_continuation(k, side, (view(h),), own.dst)
                _check_witness(parts[side], profile[side], c, kf)
    else:
        assert isinstance(cert, CertProduct)
        assert len(cert.children) == len(expr.children)
        for j, (child, p, c) in enumerate(zip(expr.children, profile, cert.children)):
            _check_witness(child, p, c, branch_continuation(k, j, eval_expr(child).dst))


def _check_all_witnesses(expr, k):
    pairs = separable_states_over(expr, k)
    strategies = eval_expr(expr).strategies
    profiles = [p for p, _ in pairs]
    assert profiles == sorted(profiles, key=strategies.index)
    assert set(profiles) <= set(states_over(expr, k))
    for profile, cert in pairs:
        _check_witness(expr, profile, cert, k)
    return pairs


# ---------- tests ----------


def test_separable_states_match_the_reference_on_random_trees():
    """Same profiles, same order and the same witnesses as the per-node recursion."""
    kinds, found = set(), 0
    trees = _random_trees(0, 250, empty=False) + _random_trees(2, 60, False, _product_at_cuts)
    for expr, k in trees:
        kinds |= {type(node).__name__ for node in _nodes(expr)}
        got = separable_states_over(expr, k)
        want = _reference_separable_states_over(expr, k)
        assert got == want, expr
        assert [certificate_to_json(c, 10**6) for _, c in got] == [
            certificate_to_json(c, 10**6) for _, c in want
        ]
        found += bool(got)
    assert kinds == {"Atom", "Seq", "Tensor", "Product"}, kinds
    assert found > 100, found


def test_witnesses_rederive_on_random_trees_with_empty_sets():
    empty_joint = 0
    for expr, k in _random_trees(1, 300, True) + _random_trees(3, 60, True, _product_at_cuts):
        _check_all_witnesses(expr, k)
        empty_joint += any(
            isinstance(node, Tensor) and len(eval_expr(node).src.forward) == 0
            for node in _nodes(expr)
        )
    assert empty_joint > 3, empty_joint


def test_witnesses_rederive_on_the_market_and_the_sequential_ladder():
    doc = parse_document(bundled_document_text())
    assert len(_check_all_witnesses(doc.names["H"][1], _expr_continuation(doc, "H", None))) == 1
    rng = random.Random(7)
    for _ in range(12):
        expr, k = build_sequential_expr(random_sequential(rng, max_players=3, max_choices=3))
        assert _check_all_witnesses(expr, k)


def test_tensor_with_no_joint_history_checks_nothing():
    """An empty factor source leaves the tensor no context, so separable equals Nash.

    The left factor's second stage is never reached.  The reference recursion
    still judged it at the right factor's history, which kept 2 of the 8
    profiles; the join has no joint history to judge anything at.
    """
    left = Seq(Atom(decision(make_set([]), MOVES)), Atom(copy_decision([MOVES, MOVES])))
    expr = Tensor(left, Atom(decision(make_set(["u"]), MOVES)))
    game = eval_expr(expr)
    k = total_fn(
        game.dst.forward,
        game.dst.backward,
        lambda y: ((Q(0), Q(y[0][1] == "C")), (Q(y[1] == "C"),)),
    )
    pairs = _check_all_witnesses(expr, k)
    assert [p for p, _ in pairs] == states_over(expr, k) == list(game.strategies)
    assert len(pairs) == 8
    assert all(c == CertTensor((), ()) for _, c in pairs)
    assert len(_reference_separable_states_over(expr, k)) == 2


def test_an_untagged_product_child_plays_anything_under_nash():
    """Nash lets a child with no tagged history play every strategy; separable does not."""
    a, b = decision(make_set(["u"]), MOVES), decision(MOVES, MOVES)
    expr = Product((Atom(a), Atom(b)))
    game = eval_expr(expr)
    k = total_fn(game.dst.forward, game.dst.backward, lambda t: (Q(t.value == "C"),))
    tagged = [h.value for h in game.src.forward if h.side == 1]
    kb = branch_continuation(k, 1, b.dst)
    assert game.states([Tag(1, h) for h in tagged], k) == [
        game.strategies.index(p)
        for p in product(a.strategies, map(b.strategies.elements.__getitem__, b.states(tagged, kb)))
    ]
    (profile, _), = separable_states_over(expr, k)
    assert profile[0](make_set(["u"]).elements[0]) == "C"
