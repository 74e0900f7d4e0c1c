"""Solving classical games by compiling them to composition trees.

Simultaneous play becomes a tensor of one-shot choices; staged play
becomes a chain of observed choices.  Equilibria are then read off the
generic machinery: plain states for Nash behaviour, separable states
for the subgame-perfect refinement.  `solve` runs every `og solve`
through one table, `SOLVERS`, keyed by (kind of target, mode).
"""

from __future__ import annotations

from .classical import (
    NormalFormGame,
    SequentialGame,
    brute_nash,
    normalize_extensive,
    oracle_spe,
)
from .errors import EmptyChoiceSet, TypeMismatch
from .expr import (
    Atom,
    GameExpr,
    Seq,
    eval_expr,
    separable_states_over,
    states_over,
)
from .finite import (
    UNIT,
    UNIT_SET,
    Payoff,
    TotalFn,
    _derived_fn,
    flat_product,
)
from .games import copy_decision, decision, tensor_games


def build_normal_form_expr(nf: NormalFormGame):
    """One n-ary tensor of one-shot choices, as an atom, plus the payoff continuation:
    `nf.payoff` is a checked table into Q^n on `flat_product(nf.choices)`, the
    tensor's target, so each vector (q1, ..., qn) is only repacked as ((q1,), ..., (qn,))."""
    if nf.players == 0:
        raise EmptyChoiceSet("normal-form game needs at least one player")
    game = tensor_games(*[decision(UNIT_SET, xs) for xs in nf.choices])
    k = _derived_fn(game.dst.forward, game.dst.backward,  # repacked column by column
                    tuple(zip(*map(zip, zip(*nf.payoff.values)))))
    return Atom(game), k


def nash_normal_form(nf: NormalFormGame):
    """Pure equilibria, computed as states of the compiled tensor."""
    expr, k = build_normal_form_expr(nf)
    return [tuple(s(UNIT) for s in p) for p in states_over(expr, k)]


def build_sequential_expr(sq: SequentialGame):
    """A chain of observed choices plus the terminal payoff continuation.

    Stage i sees all earlier choices and appends its own; the chain
    associates to the right so each stage's source matches the previous
    stage's target on the nose.
    """
    n = sq.players
    if n == 0:
        raise EmptyChoiceSet("sequential game needs at least one player")
    stages = [Atom(copy_decision(sq.choices[: i + 1])) for i in range(n)]
    expr: GameExpr = stages[-1]
    for atom in reversed(stages[:-1]):
        expr = Seq(atom, expr)
    game = eval_expr(expr)
    # `SequentialGame` holds a checked payoff table into Q^n on
    # `flat_product(sq.choices)`, which lists plays in the order of the nested target.
    k = _derived_fn(game.dst.forward, Payoff(n), sq.payoff.values)
    return expr, k


def _chain_profile(profile, n):
    """Right-nested strategy tuple of a stage chain -> flat strategy tuple."""
    out = []
    node = profile
    for _ in range(n - 1):
        out.append(node[0])
        node = node[1]
    out.append(node)
    return tuple(out)


def sequential_profiles(sq: SequentialGame, nested_profiles):
    """Nested stage-chain profiles -> flat stage strategies.  `flat_product` and
    `nested_product` list histories in one order, so each strategy keeps its table."""
    n = sq.players
    doms = [flat_product(sq.choices[:i]) for i in range(n)]
    return [
        tuple(_derived_fn(doms[i], sq.choices[i], s.values)
              for i, s in enumerate(_chain_profile(p, n)))
        for p in nested_profiles
    ]


def nash_sequential(sq: SequentialGame):
    """Equilibria of the staged game, as flat stage-strategy profiles."""
    expr, k = build_sequential_expr(sq)
    return sequential_profiles(sq, states_over(expr, k))


def spe_sequential(sq: SequentialGame):
    """Subgame-perfect profiles: separable states of the stage chain."""
    expr, k = build_sequential_expr(sq)
    pairs = separable_states_over(expr, k)
    flat = sequential_profiles(sq, [p for p, _ in pairs])
    return [(prof, cert) for prof, (_, cert) in zip(flat, pairs)]


def _certified(pairs):
    """[(profile, certificate)] -> (profiles, certificates)."""
    return tuple(p for p, _ in pairs), tuple(c for _, c in pairs)


# The one solve dispatch: (kind of target, state notion) -> solver of
# (target, continuation) returning (profiles, certificates).  Each entry
# reads its engine function from this module's globals at call time, so
# a wrapper that replaces one of those names here also sees these calls.
SOLVERS = {
    ("expr", "states"): lambda e, k: (tuple(states_over(e, k)), ()),
    ("expr", "separable"): lambda e, k: _certified(separable_states_over(e, k)),
    ("normal-form", "nash"): lambda nf, _: (tuple(nash_normal_form(nf)), ()),
    ("sequential", "nash"): lambda sq, _: (tuple(nash_sequential(sq)), ()),
    ("sequential", "spe"): lambda sq, _: _certified(spe_sequential(sq)),
    ("extensive", "nash"): lambda eg, _: (tuple(brute_nash(normalize_extensive(eg))), ()),
    ("extensive", "spe"): lambda eg, _: (tuple(oracle_spe(eg)), ()),
}


def solve(kind: str, target, mode: str, continuation: TotalFn | None = None):
    """(profiles, certificates) of `target`, a declaration of `kind`, in `mode`;
    `continuation` closes an expr.  Certificates are empty unless the mode makes them."""
    solver = SOLVERS.get((kind, mode))
    if solver is None:
        raise TypeMismatch(f"mode {mode} does not solve a {kind}")
    return solver(target, continuation)
