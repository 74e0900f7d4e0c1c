"""Morphisms between open games: contravariant boundary lenses plus a strategy map.

A morphism from game G to game G' consists of lenses s: src(G') -> src(G)
and t: dst(G') -> dst(G) together with a function on strategies, subject
to two conditions: every play square commutes, and best responses are
preserved across transported contexts.  States are the morphisms out of
the trivial game on the monoidal unit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import BoundaryMismatch, EnumerationBound, NotAState, TypeMismatch
from .finite import DEFAULT_BOUND, TotalFn, UNIT_SET, compose_fn, is_enumerable, total_fn
from .lenses import (
    Lens,
    UNIT_DISET,
    apply_continuation,
    copair_lenses,
    default_continuations,
    effect_lens,
    lens_compose,
    lens_identity,
    lens_tensor,
    lenses_equal,
    lens_to_continuation,
)
from .games import OpenGame, _bits, _mask, derived, seq_compose, tensor_games, unit_game


@dataclass
class GameMorphism:
    source_game: OpenGame
    target_game: OpenGame
    s_lens: Lens
    t_lens: Lens
    sigma_map: TotalFn

    def __post_init__(self):
        if self.s_lens.dom != self.target_game.src or self.s_lens.cod != self.source_game.src:
            raise TypeMismatch("source leg must run src(target) -> src(source)")
        if self.t_lens.dom != self.target_game.dst or self.t_lens.cod != self.source_game.dst:
            raise TypeMismatch("target leg must run dst(target) -> dst(source)")
        if self.sigma_map.dom != self.source_game.strategies:
            raise TypeMismatch("strategy map domain mismatch")
        if self.sigma_map.cod != self.target_game.strategies:
            raise TypeMismatch("strategy map codomain mismatch")

    @property
    def globular(self) -> bool:
        return (
            self.source_game.src == self.target_game.src
            and self.source_game.dst == self.target_game.dst
        )


def identity_morphism(g: OpenGame) -> GameMorphism:
    return GameMorphism(
        g,
        g,
        lens_identity(g.src),
        lens_identity(g.dst),
        total_fn(g.strategies, g.strategies, lambda s: s),
    )


def morphisms_equal(a: GameMorphism, b: GameMorphism) -> bool:
    return (
        lenses_equal(a.s_lens, b.s_lens)
        and lenses_equal(a.t_lens, b.t_lens)
        and a.sigma_map == b.sigma_map
    )


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    axiom: int | None = None
    witness: tuple | None = None
    complete: bool = True

    def __bool__(self):
        return self.ok


def _continuations(d, supplied):
    """The continuations on `d` to check: all of them or the probes, then `supplied`.

    A supplied continuation must live on `d`; one already listed is dropped.
    """
    ks = list(default_continuations(d))
    seen = set(ks)
    for k in supplied or ():
        if k.dom != d.forward:
            raise TypeMismatch("supplied continuations must live on the game's target boundary")
        if k not in seen:
            seen.add(k)
            ks.append(k)
    return ks


def _first_unkept(g, g2, s_lens, t_lens, at, ks, memo):
    """Axiom 2 on rows, through the index array `at`: the first `(i, d, h, k)`
    where `g`'s best response `d` to its `i`-th strategy does not map into
    `g2`'s responses to the image of `i`, or None.  Each `k` is pulled back
    along `t_lens` where it is first reached, once per store (`derived`)."""
    image = functools.cache(lambda row: _mask({at[d] for d in _bits(row)}))  # once per row
    for h in g2.src.forward:
        h_up = s_lens.view(h)
        for k in ks:
            k_down = derived(memo, apply_continuation, t_lens, k)
            source = g.rows(h_up, k, memo)
            target = None
            for i, row in enumerate(source):
                if not row:
                    continue
                if target is None:
                    target = g2.rows(h, k_down, memo)
                kept = target[at[i]]
                if image(row) & ~kept:
                    return i, next(d for d in _bits(row) if not kept >> at[d] & 1), h, k
    return None


def check_morphism(m: GameMorphism, continuations=None) -> MorphismCheck:
    """Check axiom 1 for every strategy, axiom 2 at the continuations listed.

    Axiom 1 compares play squares lens-extensionally.  Axiom 2 ranges over
    histories of the target source boundary and over continuations of the
    source game's target: all of them when its backward carrier is
    enumerable, else only those built from `probe_values`, and then the
    result is not `complete` (a map that keeps them may fail at another
    continuation); supplied `continuations` come after them.  Every
    deviation from `s` must map into the target's responses to the image
    of `s`; the target's rows are built only where a source row is not
    empty.  Both games share one store, so each relation and pullback is
    built once per check.  Returns the first failing `(s, s2, h, k)`, the
    one a test of every pair in canonical order finds first.
    """
    g, g2 = m.source_game, m.target_game
    complete = is_enumerable(g.dst.backward)
    at = [g2.strategies.index(v) for v in m.sigma_map.values]  # each image's index in g2
    for i, j in enumerate(at):
        if not lenses_equal(lens_compose(m.s_lens, g.play(i)), lens_compose(g2.play(j), m.t_lens)):
            return MorphismCheck(False, 1, (g.strategies.elements[i],), complete)
    ks = _continuations(g.dst, continuations)
    failed = _first_unkept(g, g2, m.s_lens, m.t_lens, at, ks, {})
    if failed is None:
        return MorphismCheck(True, complete=complete)
    i, d, h, k = failed
    witness = (g.strategies.elements[i], g.strategies.elements[d], h, k)
    return MorphismCheck(False, 2, witness, complete)


def vcompose(first: GameMorphism, then: GameMorphism) -> GameMorphism:
    """Vertical composite G -> G' -> G''."""
    if first.target_game.strategies != then.source_game.strategies or not (
        first.target_game.src == then.source_game.src
        and first.target_game.dst == then.source_game.dst
    ):
        raise TypeMismatch("vertical composition middle game mismatch")
    return GameMorphism(
        first.source_game,
        then.target_game,
        lens_compose(then.s_lens, first.s_lens),
        lens_compose(then.t_lens, first.t_lens),
        compose_fn(then.sigma_map, first.sigma_map),
    )


def hcompose(left: GameMorphism, right: GameMorphism) -> GameMorphism:
    """Horizontal composite over a shared middle boundary; `left` plays first.

    The middle legs (target leg of `left`, source leg of `right`) must agree.
    """
    if not lenses_equal(left.t_lens, right.s_lens):
        raise BoundaryMismatch("middle boundary legs differ")
    src_comp = seq_compose(left.source_game, right.source_game)
    dst_comp = seq_compose(left.target_game, right.target_game)
    sigma = total_fn(
        src_comp.strategies,
        dst_comp.strategies,
        lambda st: (left.sigma_map(st[0]), right.sigma_map(st[1])),
    )
    return GameMorphism(src_comp, dst_comp, left.s_lens, right.t_lens, sigma)


def tensor_morphisms(a: GameMorphism, b: GameMorphism) -> GameMorphism:
    src_t = tensor_games(a.source_game, b.source_game)
    dst_t = tensor_games(a.target_game, b.target_game)
    sigma = total_fn(
        src_t.strategies,
        dst_t.strategies,
        lambda ss: (a.sigma_map(ss[0]), b.sigma_map(ss[1])),
    )
    return GameMorphism(
        src_t, dst_t, lens_tensor(a.s_lens, b.s_lens), lens_tensor(a.t_lens, b.t_lens), sigma
    )


# ---------------------------------------------------------------------------
# States.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateCert:
    """A strategy together with the continuation it is in equilibrium against."""

    sigma: object
    continuation: TotalFn


def is_state(game: OpenGame, sigma, k: TotalFn) -> bool:
    i, memo = game.strategies.index(sigma), {}
    return all(game.rows(h, k, memo)[i] >> i & 1 for h in game.src.forward)


def state_to_morphism(game: OpenGame, cert: StateCert) -> GameMorphism:
    """Package a state as a morphism out of the trivial game on the unit diset."""
    k_eff = effect_lens(game.dst, cert.continuation)
    return GameMorphism(
        unit_game(UNIT_DISET),
        game,
        lens_compose(game.play(game.strategies.index(cert.sigma)), k_eff),
        k_eff,
        total_fn(UNIT_SET, game.strategies, lambda _: cert.sigma),
    )


def morphism_to_state(m: GameMorphism) -> StateCert:
    src = m.source_game
    if src.src != UNIT_DISET or src.dst != UNIT_DISET or len(src.strategies) != 1:
        raise NotAState("source is not the trivial game on the unit diset")
    sigma = m.sigma_map(next(iter(src.strategies)))
    k = lens_to_continuation(m.t_lens)
    forced = lens_compose(m.target_game.play(m.target_game.strategies.index(sigma)), m.t_lens)
    if not lenses_equal(m.s_lens, forced):
        raise NotAState("source leg is not the transported continuation")
    if not is_state(m.target_game, sigma, k):
        raise NotAState("diagonal best response fails")
    return StateCert(sigma, k)


def product_mediator(morphisms, product_game: OpenGame) -> GameMorphism:
    """The unique morphism into a product induced by morphisms into the factors."""
    morphisms = list(morphisms)
    if not morphisms:
        raise TypeMismatch("empty mediator family")
    shared = morphisms[0].source_game
    for m in morphisms:
        if m.source_game is not shared:
            raise TypeMismatch("mediator factors must share a source game")
    sigma = total_fn(
        shared.strategies,
        product_game.strategies,
        lambda s: tuple(m.sigma_map(s) for m in morphisms),
    )
    return GameMorphism(
        shared,
        product_game,
        copair_lenses([m.s_lens for m in morphisms]),
        copair_lenses([m.t_lens for m in morphisms]),
        sigma,
    )


# ---------------------------------------------------------------------------
# Globular isomorphism search.
# ---------------------------------------------------------------------------


def find_globular_iso(g1: OpenGame, g2: OpenGame, continuations=None):
    """Search for a strategy bijection making g1 and g2 the same game.

    Strategies are first grouped by play lens; candidate bijections must
    match groups, then preserve best responses over all probe contexts
    (plus any supplied continuations, which must live on the target
    boundary) in both directions: at each context the image of g1's set
    of best responses to `s` must be g2's set for the image of `s`: axiom
    2 through the bijection and through its inverse.  Relations do not
    depend on the candidate, so both games share one store for the search.
    Candidates are built one at a time, after their count is checked against `DEFAULT_BOUND`.
    Returns the isomorphism as a globular GameMorphism, or None.
    """
    if g1.src != g2.src or g1.dst != g2.dst:
        return None
    if len(g1.strategies) != len(g2.strategies):
        return None

    def classes(game):  # strategy indices grouped by play lens
        reps = []
        for i in range(len(game.strategies)):
            lens = game.play(i)
            for rep_lens, members in reps:
                if lenses_equal(lens, rep_lens):
                    members.append(i)
                    break
            else:
                reps.append((lens, [i]))
        return reps

    c1 = classes(g1)
    c2 = classes(g2)
    if len(c1) != len(c2):
        return None
    pairing = []
    used = set()
    for lens1, members1 in c1:
        for j, (lens2, members2) in enumerate(c2):
            if j in used:
                continue
            if len(members1) == len(members2) and lenses_equal(lens1, lens2):
                pairing.append((members1, members2))
                used.add(j)
                break
        else:
            return None
    count = math.prod(math.factorial(len(m1)) for m1, _ in pairing)
    if count > DEFAULT_BOUND:
        raise EnumerationBound(f"{count} candidate bijections exceed bound {DEFAULT_BOUND}")

    ks = _continuations(g1.dst, continuations)
    legs = lens_identity(g1.src), lens_identity(g1.dst)
    memo = {}

    def candidates(c, at):  # each class's permutations in turn, the first outermost
        if c == len(pairing):
            yield at  # g1's i-th strategy to g2's `at[i]`-th, filled in place
            return
        m1, m2 = pairing[c]
        for perm in itertools.permutations(m2):
            for i, j in zip(m1, perm):
                at[i] = j
            yield from candidates(c + 1, at)

    for at in candidates(0, [0] * len(g1.strategies)):
        back = sorted(range(len(at)), key=at.__getitem__)  # the inverse bijection
        if (_first_unkept(g1, g2, *legs, at, ks, memo) is None
                and _first_unkept(g2, g1, *legs, back, ks, memo) is None):
            images = tuple(map(g2.strategies.elements.__getitem__, at))
            return GameMorphism(g1, g2, *legs, TotalFn(g1.strategies, g2.strategies, images))
    return None
