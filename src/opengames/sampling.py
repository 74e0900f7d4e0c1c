"""Seeded generators for sets, lenses, continuations and games.

Everything here is driven by a caller-supplied `random.Random`, and any
"arbitrary" choice that must be stable across runs (like a synthetic
preference relation) is derived from an md5 digest of printed values,
so the same seed always reproduces the same objects and answers.
"""

from __future__ import annotations

import hashlib

from .errors import EmptyChoiceSet
from .finite import FiniteSet, TotalFn, format_value, make_set
from .games import OpenGame
from .lenses import Diset, Lens, UTable


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


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
    plays = [random_lens(rng, src, dst) for _ in strategies]

    if kind == "argmax":

        def relation(h, k, memo):
            # The rule ignores the current strategy, so every row is the same.
            scores = [dst.backward.index(k(lens.view(h))) for lens in plays]
            top = max(scores)
            return (sum(1 << j for j, score in enumerate(scores) if score >= top),) * m

    else:

        def relation(h, k, memo):
            at = (label, format_value(h), format_value(k))
            return tuple(
                sum(1 << j for j, d in enumerate(strategies)
                    if _digest_even(*at, format_value(s), format_value(d)))
                for s in strategies
            )

    return OpenGame(src, dst, strategies, plays.__getitem__, relation, label)

