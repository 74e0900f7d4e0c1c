"""Composition trees over open games, with equilibrium notions on top.

An expression remembers how a composite was assembled.  That syntactic
structure is what makes the refined solution concept computable: a
separable state must factor through every cut of the tree.  Each node
runs its combinator's states join from `games`, the one Nash states use,
with each part answering by its separable states; certificates are
re-derived afterwards, only for the profiles returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TypeMismatch
from .finite import TotalFn, format_value, value_to_json
from .games import (OpenGame, derived, game_states, product_games, product_states, seq_compose,
                    seq_states, tensor_games, tensor_states)
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
    (profile, certificate) pairs; the search and the certificates share one store.
    """
    if continuation.dom != eval_expr(expr).dst.forward:
        raise TypeMismatch("continuation must live on the expression's target boundary")
    memo, elements = {}, eval_expr(expr).strategies.elements
    return [(elements[i], _certificate(expr, i, continuation, memo))
            for i in _separable(expr, continuation, memo)]


def _separable(expr, k, memo):
    """The indices of the separable profiles of `expr` against `k`, ascending: a
    composite's states join over its whole source, each part answering by `_part`."""
    hists = eval_expr(expr).src.forward  # raises TypeMismatch on a non-expression
    if isinstance(expr, Atom):
        out = expr.game.states(hists, k)
    elif isinstance(expr, Seq):
        out = seq_states(eval_expr(expr.first), eval_expr(expr.second), hists, k,
                         _part(expr.first, memo), _part(expr.second, memo))
    elif isinstance(expr, Tensor):
        out = tensor_states([eval_expr(expr.left), eval_expr(expr.right)], hists, k,
                            [_part(expr.left, memo), _part(expr.right, memo)])
    else:
        out = product_states([eval_expr(c) for c in expr.children], hists, k,
                             [_part(c, memo) for c in expr.children])
    memo[(expr, k)] = out
    return out


def _part(expr, memo):
    """A part's states rule: its separable profiles, which already hold at every
    history of the part, so the histories asked are ignored."""
    def rule(_hists, k):
        out = memo.get((expr, k))
        return _separable(expr, k, memo) if out is None else out
    return rule


def _certificate(expr, i, k, memo):
    """The witness of the separable profile at index `i`: the contexts the joins checked it at."""
    if isinstance(expr, Atom):
        return CertAtom(expr.game.strategies.elements[i], k)
    if isinstance(expr, Seq):
        s, t = divmod(i, len(eval_expr(expr.second).strategies))
        cut = derived(memo, eval_expr(expr.second).transport, t, k)
        return CertSeq(_certificate(expr.first, s, cut, memo),
                       _certificate(expr.second, t, k, memo), cut)
    if isinstance(expr, Tensor):
        parts = divmod(i, len(eval_expr(expr.right).strategies))
        sides = ([], [])
        joint = len(eval_expr(expr).src.forward)  # with no joint history nothing is checked
        for side, own, partner in ((0, expr.left, expr.right), (1, expr.right, expr.left)):
            hists = eval_expr(partner).src.forward if joint else ()
            for h, move in zip(hists, eval_expr(partner).reach(parts[1 - side], hists)):
                kf = derived(memo, factor_continuation, k, side, (move,), eval_expr(own).dst)
                sides[side].append((h, _certificate(own, parts[side], kf, memo)))
        return CertTensor(tuple(sides[0]), tuple(sides[1]))
    sizes = [len(eval_expr(c).strategies) for c in expr.children]  # mixed-radix, as in the rows
    return CertProduct(tuple(
        _certificate(c, i // math.prod(sizes[j + 1:]) % sizes[j],
                     derived(memo, branch_continuation, k, j, eval_expr(c).dst), memo)
        for j, c in enumerate(expr.children)
    ))


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
