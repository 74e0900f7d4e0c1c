"""Seeded generators for sets, lenses, games and payoff tables.

Everything here is driven by a caller-supplied `random.Random`, and any
"arbitrary" choice that must be stable across runs (like a synthetic
preference relation) is derived from an md5 digest of printed values,
so the same seed always reproduces the same objects and answers.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .classical import NormalFormGame, SequentialGame, normal_form, sequential_game
from .errors import EmptyChoiceSet
from .finite import (
    FiniteSet,
    TotalFn,
    flat_product,
    format_fn,
    format_value,
    make_set,
)
from .games import OpenGame
from .lenses import Diset, Lens, UTable, default_continuations


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_fraction(rng) -> Fraction:
    """A rational in [-5, 5] with denominator at most 4."""
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-5 * den, 5 * den), den)


def random_finite_set(rng, max_size=2, prefix=None) -> FiniteSet:
    if prefix is None:
        prefix = rng.choice(_LETTERS)
    n = rng.randint(1, max_size)
    return make_set(tuple(f"{prefix}{i}" for i in range(n)))


def random_diset(rng, max_size=2) -> Diset:
    return Diset(random_finite_set(rng, max_size), random_finite_set(rng, max_size))


def random_total_fn(rng, dom: FiniteSet, cod: FiniteSet) -> TotalFn:
    if not cod.elements:
        raise EmptyChoiceSet("cannot pick values from an empty set")
    return TotalFn(dom, cod, tuple(rng.choice(cod.elements) for _ in dom.elements))


def random_update(rng, dom: Diset, cod: Diset) -> UTable:
    return UTable(
        {
            (x, r): rng.choice(dom.backward.elements)
            for x in dom.forward
            for r in cod.backward
        }
    )


def random_lens(rng, dom: Diset, cod: Diset) -> Lens:
    return Lens(dom, cod, random_total_fn(rng, dom.forward, cod.forward),
                random_update(rng, dom, cod))


def random_lens_chain(rng, length: int, max_size=2):
    """`length` composable lenses over freshly drawn disets."""
    disets = [random_diset(rng, max_size) for _ in range(length + 1)]
    return [random_lens(rng, disets[i], disets[i + 1]) for i in range(length)]


def random_continuation(rng, d: Diset) -> TotalFn:
    return random_total_fn(rng, d.forward, d.backward)


def sample_continuations(rng, d: Diset, count: int):
    """Up to `count` distinct continuations on a diset, without replacement."""
    pool = default_continuations(d)
    if len(pool) <= count:
        return pool
    return rng.sample(pool, count)


def _digest_even(*parts) -> bool:
    h = hashlib.md5("|".join(parts).encode()).hexdigest()
    return int(h, 16) % 2 == 0


def random_game(rng, src: Diset = None, dst: Diset = None, max_strategies=3,
                max_size=2, kind=None, label=None) -> OpenGame:
    """A game with random play lenses and a synthetic preference relation.

    `kind` is "argmax" (strategies ranked by where the continuation lands,
    so states always exist) or "hash" (an arbitrary but reproducible
    relation), each as rows of strategy indices; by default the coin decides.
    """
    if src is None:
        src = random_diset(rng, max_size)
    if dst is None:
        dst = random_diset(rng, max_size)
    if kind is None:
        kind = rng.choice(["argmax", "hash"])
    if label is None:
        label = f"random-{kind}-{rng.randrange(10 ** 6)}"
    m = rng.randint(1, max_strategies)
    strategies = make_set(tuple(f"s{i}" for i in range(m)))
    plays = {s: random_lens(rng, src, dst) for s in strategies}

    def play(s):
        return plays[s]

    if kind == "argmax":

        def relation(h, k, memo):
            # The rule ignores the current strategy, so every row is the same.
            scores = [dst.backward.index(k(plays[s].view(h))) for s in strategies]
            top = max(scores)
            return (sum(1 << j for j, score in enumerate(scores) if score >= top),) * m

    else:

        def relation(h, k, memo):
            at = (label, format_value(h), format_fn(k))
            return tuple(
                sum(1 << j for j, d in enumerate(strategies)
                    if _digest_even(*at, format_value(s), format_value(d)))
                for s in strategies
            )

    return OpenGame(src, dst, strategies, play, relation, label)


def random_shared_boundary_games(rng, count: int, max_strategies=3, max_size=2,
                                 kind="argmax"):
    """Games drawn over per-child forward sets but one shared backward pair."""
    s_carrier = random_finite_set(rng, max_size, prefix="s")
    r_carrier = random_finite_set(rng, max_size, prefix="r")
    out = []
    for j in range(count):
        src = Diset(random_finite_set(rng, max_size, prefix=f"x{j}"), s_carrier)
        dst = Diset(random_finite_set(rng, max_size, prefix=f"y{j}"), r_carrier)
        out.append(random_game(rng, src, dst, max_strategies, kind=kind,
                               label=f"factor-{j}"))
    return out


def _random_classical(rng, build, max_players, max_choices):
    """`build(choices, payoff)` over random choice sets and a random payoff table."""
    n = rng.randint(1, max_players)
    choices = [
        make_set(tuple(f"{_LETTERS[i]}{j}" for j in range(rng.randint(1, max_choices))))
        for i in range(n)
    ]
    table = {
        profile: tuple(random_fraction(rng) for _ in range(n))
        for profile in flat_product(choices)
    }
    return build(choices, table)


def random_normal_form(rng, max_players=3, max_choices=3) -> NormalFormGame:
    return _random_classical(rng, normal_form, max_players, max_choices)


def random_sequential(rng, max_players=3, max_choices=2) -> SequentialGame:
    return _random_classical(rng, sequential_game, max_players, max_choices)
