"""Seeded test fixtures that the library itself never calls.

Random classical games and payoffs, samples of continuations, games over
one shared backward boundary, and the position-free shape of a parsed
form.  Like `opengames.sampling`, everything random is driven by a
caller-supplied `random.Random`.
"""

from fractions import Fraction
from string import ascii_lowercase

from opengames.classical import NormalFormGame, SequentialGame, normal_form, sequential_game
from opengames.dsl import SExpr
from opengames.finite import flat_product, make_set
from opengames.lenses import Diset, default_continuations
from opengames.sampling import random_finite_set, random_game


def random_fraction(rng) -> Fraction:
    """A rational in [-5, 5] with denominator at most 4."""
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-5 * den, 5 * den), den)


def sample_continuations(rng, d: Diset, count: int):
    """Up to `count` distinct continuations on a diset, without replacement."""
    pool = default_continuations(d)
    if len(pool) <= count:
        return pool
    return rng.sample(pool, count)


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
        make_set(tuple(f"{ascii_lowercase[i]}{j}" for j in range(rng.randint(1, max_choices))))
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


def skeleton(node: SExpr):
    """The tree with positions stripped, for structural comparison."""
    if node.is_atom:
        return node.atom
    return tuple(skeleton(i) for i in node.items)
