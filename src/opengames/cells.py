"""Structure 2-cells: the isomorphisms making composition and tensor coherent.

Sequential associators and unitors, the monoidal structure inherited
from the lens category, the unit-splitting cell and the interchanger.
Each cell is declared once, in one direction: its two games, its
strategy bijection and, off the globular ones, its boundary lenses and
those of its inverse.  The inverse cell is derived from that
declaration; composites of a cell with its inverse are the identity
morphism, which the tests verify extensionally.
"""

from __future__ import annotations

from .errors import TypeMismatch
from .finite import UNIT as UNIT_STRAT
from .finite import total_fn
from .games import OpenGame, seq_compose, tensor_games, unit_game
from .lenses import (
    UNIT_DISET,
    assoc_lens,
    diset_tensor,
    lens_identity,
    lunit_inv_lens,
    lunit_lens,
    runit_inv_lens,
    runit_lens,
    swap_lens,
    unassoc_lens,
)
from .morphisms import GameMorphism


def _cell(source: OpenGame, target: OpenGame, sigma, inverse: bool, legs=None) -> GameMorphism:
    """The cell `source` => `target` with strategy bijection `sigma`, or its inverse.

    `legs` holds the cell's boundary lenses (s, t) and then its inverse's;
    without them the cell is globular and both legs are identities.  The
    inverse swaps the two games and the two leg pairs and inverts the
    table of `sigma`.
    """
    fn = total_fn(source.strategies, target.strategies, sigma)
    if inverse:
        source, target = target, source
        fn = total_fn(fn.cod, fn.dom, dict(zip(fn.values, fn.dom)))
    s_lens, t_lens = legs[inverse] if legs else (lens_identity(target.src), lens_identity(target.dst))
    return GameMorphism(source, target, s_lens, t_lens, fn)


def seq_assoc_cell(g: OpenGame, h: OpenGame, i: OpenGame, inverse=False) -> GameMorphism:
    """Reassociate a three-stage pipeline; strategies reassociate with it."""
    return _cell(seq_compose(g, seq_compose(h, i)), seq_compose(seq_compose(g, h), i),
                 lambda s: ((s[0], s[1][0]), s[1][1]), inverse)


def seq_lunit_cell(g: OpenGame, inverse=False) -> GameMorphism:
    """Strip (or introduce) the unit game after g."""
    return _cell(seq_compose(g, unit_game(g.dst)), g, lambda s: s[0], inverse)


def seq_runit_cell(g: OpenGame, inverse=False) -> GameMorphism:
    """Strip (or introduce) the unit game before g."""
    return _cell(seq_compose(unit_game(g.src), g), g, lambda s: s[1], inverse)


def unit_split_cell(d1, d2, inverse=False) -> GameMorphism:
    """u(a (x) b) against u(a) (x) u(b)."""
    return _cell(unit_game(diset_tensor(d1, d2)), tensor_games(unit_game(d1), unit_game(d2)),
                 lambda s: (UNIT_STRAT, UNIT_STRAT), inverse)


def interchange_cell(g1, g2, h1, h2, inverse=False) -> GameMorphism:
    """Tensor-then-sequence against sequence-then-tensor."""
    return _cell(seq_compose(tensor_games(g1, g2), tensor_games(h1, h2)),
                 tensor_games(seq_compose(g1, h1), seq_compose(g2, h2)),
                 lambda s: ((s[0][0], s[1][0]), (s[0][1], s[1][1])), inverse)


def tensor_assoc_cell(g1, g2, g3, inverse=False) -> GameMorphism:
    srcs, dsts = (g1.src, g2.src, g3.src), (g1.dst, g2.dst, g3.dst)
    return _cell(tensor_games(tensor_games(g1, g2), g3), tensor_games(g1, tensor_games(g2, g3)),
                 lambda s: (s[0][0], (s[0][1], s[1])), inverse,
                 legs=((unassoc_lens(*srcs), unassoc_lens(*dsts)),
                       (assoc_lens(*srcs), assoc_lens(*dsts))))


def tensor_lunit_cell(g, inverse=False) -> GameMorphism:
    return _cell(tensor_games(unit_game(UNIT_DISET), g), g, lambda s: s[1], inverse,
                 legs=((lunit_inv_lens(g.src), lunit_inv_lens(g.dst)),
                       (lunit_lens(g.src), lunit_lens(g.dst))))


def tensor_runit_cell(g, inverse=False) -> GameMorphism:
    return _cell(tensor_games(g, unit_game(UNIT_DISET)), g, lambda s: s[0], inverse,
                 legs=((runit_inv_lens(g.src), runit_inv_lens(g.dst)),
                       (runit_lens(g.src), runit_lens(g.dst))))


def symmetry_cell(g, h) -> GameMorphism:
    """Swap tensor factors; its own inverse up to swapping the arguments."""
    return _cell(tensor_games(g, h), tensor_games(h, g), lambda s: (s[1], s[0]), False,
                 legs=((swap_lens(h.src, g.src), swap_lens(h.dst, g.dst)),))


_BUILDERS = {
    "seq-assoc": seq_assoc_cell,
    "seq-lunit": seq_lunit_cell,
    "seq-runit": seq_runit_cell,
    "unit-split": unit_split_cell,
    "interchange": interchange_cell,
    "tensor-assoc": tensor_assoc_cell,
    "tensor-lunit": tensor_lunit_cell,
    "tensor-runit": tensor_runit_cell,
    "symmetry": symmetry_cell,
}


def structure_cell(name: str, *args) -> GameMorphism:
    """Dispatch by name; an `-inv` suffix selects the inverse direction."""
    inverse = name.endswith("-inv")
    base = name[:-4] if inverse else name
    builder = _BUILDERS.get(base)
    if builder is None:
        raise TypeMismatch(f"unknown structure cell {name!r}")
    if base == "symmetry":
        if inverse:
            return symmetry_cell(args[1], args[0])
        return symmetry_cell(*args)
    if inverse:
        return builder(*args, inverse=True)
    return builder(*args)
