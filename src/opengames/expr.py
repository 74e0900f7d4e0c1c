"""Composition trees over open games, with equilibrium notions on top.

An expression remembers how a composite was assembled.  That syntactic
structure is what makes the refined solution concept computable: a
separable state must factor through every cut of the tree, and the
recursion below certifies one cut at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TypeMismatch
from .finite import TotalFn, format_value, value_to_json
from .games import OpenGame, game_states, product_games, seq_compose, tensor_games
from .lenses import branch_continuation, factor_continuation


class GameExpr:
    """Base class for composition trees; leaves hold finished games."""

    _game = None


@dataclass(eq=False)
class Atom(GameExpr):
    game: OpenGame


@dataclass(eq=False)
class Seq(GameExpr):
    first: GameExpr
    second: GameExpr


@dataclass(eq=False)
class Tensor(GameExpr):
    left: GameExpr
    right: GameExpr


@dataclass(eq=False)
class Product(GameExpr):
    children: tuple

    def __post_init__(self):
        self.children = tuple(self.children)


def eval_expr(expr: GameExpr) -> OpenGame:
    """Collapse the tree to a single game; cached per node."""
    if expr._game is not None:
        return expr._game
    if isinstance(expr, Atom):
        game = expr.game
    elif isinstance(expr, Seq):
        game = seq_compose(eval_expr(expr.first), eval_expr(expr.second))
    elif isinstance(expr, Tensor):
        game = tensor_games(eval_expr(expr.left), eval_expr(expr.right))
    elif isinstance(expr, Product):
        game = product_games([eval_expr(c) for c in expr.children])
    else:
        raise TypeMismatch(f"not a game expression: {expr!r}")
    expr._game = game
    return game


def describe(expr: GameExpr) -> str:
    if isinstance(expr, Atom):
        return expr.game.label or "atom"
    if isinstance(expr, Seq):
        return f"seq({describe(expr.first)}, {describe(expr.second)})"
    if isinstance(expr, Tensor):
        return f"tensor({describe(expr.left)}, {describe(expr.right)})"
    if isinstance(expr, Product):
        return "product(" + ", ".join(describe(c) for c in expr.children) + ")"
    return "?"


def states_over(expr: GameExpr, continuation: TotalFn):
    """Equilibria of the collapsed game; the tree plays no role here."""
    return game_states(eval_expr(expr), continuation)


# ---------------------------------------------------------------------------
# Separable states: equilibria that restrict to equilibria at every cut.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertAtom:
    profile: object
    continuation: TotalFn


@dataclass(frozen=True)
class CertSeq:
    first: object
    second: object
    cut: TotalFn


@dataclass(frozen=True)
class CertTensor:
    left: tuple  # (partner history, certificate) per history seen by the right
    right: tuple


@dataclass(frozen=True)
class CertProduct:
    children: tuple


def separable_states_over(expr: GameExpr, continuation: TotalFn):
    """Profiles that survive the cut-by-cut test, each with its certificate.

    Returned in the composite game's strategy enumeration order as
    (profile, certificate) pairs.
    """
    game = eval_expr(expr)
    if continuation.dom != game.dst.forward:
        raise TypeMismatch("continuation must live on the expression's target boundary")
    table = _separable(expr, continuation, {})
    ordered = sorted(table, key=lambda profile: _rank(expr, profile))
    return [(profile, table[profile]) for profile in ordered]


def _rank(expr, profile):
    """A key ordering profiles as the composite's strategy set lists them.

    Composite strategy sets are products in lexicographic order, so the
    tuple of the parts' ranks orders them without indexing the composite.
    """
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
            cut = h.transport(tau, k)
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
    right_view = gr.play(sr).view
    left_certs = []
    for h2 in gr.src.forward:
        y2 = right_view(h2)
        sub = subs.get((0, y2))
        if sub is None:
            kl = factor_continuation(k, 0, y2, gl.dst)
            sub = subs[(0, y2)] = _separable(expr.left, kl, memo)
        if sl not in sub:
            return None
        left_certs.append((h2, sub[sl]))
    left_view = gl.play(sl).view
    right_certs = []
    for h1 in gl.src.forward:
        y1 = left_view(h1)
        sub = subs.get((1, y1))
        if sub is None:
            kr = factor_continuation(k, 1, y1, gr.dst)
            sub = subs[(1, y1)] = _separable(expr.right, kr, memo)
        if sr not in sub:
            return None
        right_certs.append((h1, sub[sr]))
    return CertTensor(tuple(left_certs), tuple(right_certs))


def _fn_to_json(fn: TotalFn, max_table: int):
    if len(fn.dom.elements) > max_table:
        return {"size": len(fn.dom.elements)}
    return [
        f"{format_value(x)} -> {format_value(fn(x))}" for x in fn.dom
    ]


def certificate_to_json(cert, max_table: int = 16):
    """A JSON-friendly rendering of a separability certificate."""
    if isinstance(cert, CertAtom):
        return {
            "kind": "atom",
            "profile": value_to_json(cert.profile),
            "continuation": _fn_to_json(cert.continuation, max_table),
        }
    if isinstance(cert, CertSeq):
        return {
            "kind": "seq",
            "cut": _fn_to_json(cert.cut, max_table),
            "first": certificate_to_json(cert.first, max_table),
            "second": certificate_to_json(cert.second, max_table),
        }
    if isinstance(cert, CertTensor):
        return {
            "kind": "tensor",
            "left": [
                {"history": format_value(h), "certificate": certificate_to_json(c, max_table)}
                for h, c in cert.left
            ],
            "right": [
                {"history": format_value(h), "certificate": certificate_to_json(c, max_table)}
                for h, c in cert.right
            ],
        }
    if isinstance(cert, CertProduct):
        return {
            "kind": "product",
            "children": [certificate_to_json(c, max_table) for c in cert.children],
        }
    raise TypeMismatch(f"not a certificate: {cert!r}")
