"""Structure 2-cells: the isomorphisms making composition and tensor coherent.

Sequential associators and unitors, the monoidal structure inherited
from the lens category, the unit-splitting cell and the interchanger.
All come in both directions; composites of a cell with its partner are
the identity morphism, which the tests verify extensionally.
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


def _globular(source_game, target_game, sigma):
    return GameMorphism(
        source_game,
        target_game,
        lens_identity(target_game.src),
        lens_identity(target_game.dst),
        total_fn(source_game.strategies, target_game.strategies, sigma),
    )


def seq_assoc_cell(g: OpenGame, h: OpenGame, i: OpenGame, inverse=False) -> GameMorphism:
    """Reassociate a three-stage pipeline; strategies reassociate with it."""
    nested_right = seq_compose(g, seq_compose(h, i))
    nested_left = seq_compose(seq_compose(g, h), i)
    if inverse:
        return _globular(nested_left, nested_right, lambda s: (s[0][0], (s[0][1], s[1])))
    return _globular(nested_right, nested_left, lambda s: ((s[0], s[1][0]), s[1][1]))


def seq_lunit_cell(g: OpenGame, inverse=False) -> GameMorphism:
    """Strip (or introduce) the unit game after g."""
    padded = seq_compose(g, unit_game(g.dst))
    if inverse:
        return _globular(g, padded, lambda s: (s, UNIT_STRAT))
    return _globular(padded, g, lambda s: s[0])


def seq_runit_cell(g: OpenGame, inverse=False) -> GameMorphism:
    """Strip (or introduce) the unit game before g."""
    padded = seq_compose(unit_game(g.src), g)
    if inverse:
        return _globular(g, padded, lambda s: (UNIT_STRAT, s))
    return _globular(padded, g, lambda s: s[1])


def unit_split_cell(d1, d2, inverse=False) -> GameMorphism:
    """u(a (x) b) against u(a) (x) u(b)."""
    joint = unit_game(diset_tensor(d1, d2))
    split = tensor_games(unit_game(d1), unit_game(d2))
    if inverse:
        return _globular(split, joint, lambda s: UNIT_STRAT)
    return _globular(joint, split, lambda s: (UNIT_STRAT, UNIT_STRAT))


def interchange_cell(g1, g2, h1, h2, inverse=False) -> GameMorphism:
    """Tensor-then-sequence against sequence-then-tensor."""
    seq_of_tensors = seq_compose(tensor_games(g1, g2), tensor_games(h1, h2))
    tensor_of_seqs = tensor_games(seq_compose(g1, h1), seq_compose(g2, h2))
    if inverse:
        return _globular(
            tensor_of_seqs,
            seq_of_tensors,
            lambda s: ((s[0][0], s[1][0]), (s[0][1], s[1][1])),
        )
    return _globular(
        seq_of_tensors,
        tensor_of_seqs,
        lambda s: ((s[0][0], s[1][0]), (s[0][1], s[1][1])),
    )


def tensor_assoc_cell(g1, g2, g3, inverse=False) -> GameMorphism:
    left = tensor_games(tensor_games(g1, g2), g3)
    right = tensor_games(g1, tensor_games(g2, g3))
    if inverse:
        return GameMorphism(
            right,
            left,
            assoc_lens(g1.src, g2.src, g3.src),
            assoc_lens(g1.dst, g2.dst, g3.dst),
            total_fn(right.strategies, left.strategies, lambda s: ((s[0], s[1][0]), s[1][1])),
        )
    return GameMorphism(
        left,
        right,
        unassoc_lens(g1.src, g2.src, g3.src),
        unassoc_lens(g1.dst, g2.dst, g3.dst),
        total_fn(left.strategies, right.strategies, lambda s: (s[0][0], (s[0][1], s[1]))),
    )


def tensor_lunit_cell(g, inverse=False) -> GameMorphism:
    padded = tensor_games(unit_game(UNIT_DISET), g)
    if inverse:
        return GameMorphism(
            g,
            padded,
            lunit_lens(g.src),
            lunit_lens(g.dst),
            total_fn(g.strategies, padded.strategies, lambda s: (UNIT_STRAT, s)),
        )
    return GameMorphism(
        padded,
        g,
        lunit_inv_lens(g.src),
        lunit_inv_lens(g.dst),
        total_fn(padded.strategies, g.strategies, lambda s: s[1]),
    )


def tensor_runit_cell(g, inverse=False) -> GameMorphism:
    padded = tensor_games(g, unit_game(UNIT_DISET))
    if inverse:
        return GameMorphism(
            g,
            padded,
            runit_lens(g.src),
            runit_lens(g.dst),
            total_fn(g.strategies, padded.strategies, lambda s: (s, UNIT_STRAT)),
        )
    return GameMorphism(
        padded,
        g,
        runit_inv_lens(g.src),
        runit_inv_lens(g.dst),
        total_fn(padded.strategies, g.strategies, lambda s: s[0]),
    )


def symmetry_cell(g, h) -> GameMorphism:
    """Swap tensor factors; its own inverse up to swapping the arguments."""
    gh = tensor_games(g, h)
    hg = tensor_games(h, g)
    return GameMorphism(
        gh,
        hg,
        swap_lens(h.src, g.src),
        swap_lens(h.dst, g.dst),
        total_fn(gh.strategies, hg.strategies, lambda s: (s[1], s[0])),
    )


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
