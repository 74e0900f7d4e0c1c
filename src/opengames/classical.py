"""Textbook game representations and brute-force equilibrium oracles.

These are deliberately independent of the lens machinery: normal-form
games as payoff tables, sequential games as staged choices, extensive
games as trees with an information-set partition.  The solvers here
enumerate everything directly and serve as oracles for the
compositional engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedInfoSet, TypeMismatch
from .finite import (
    Payoff,
    TotalFn,
    enumerate_functions,
    flat_product,
    make_set,
    total_fn,
)


@dataclass(frozen=True)
class NormalFormGame:
    """Simultaneous choices and one exact payoff vector per profile."""

    choices: tuple
    payoff: TotalFn

    def __post_init__(self):
        n = len(self.choices)
        if self.payoff.dom != flat_product(self.choices):
            raise TypeMismatch("payoff domain must be the profile space")
        if self.payoff.cod != Payoff(n):
            raise TypeMismatch(f"payoff must land in Q^{n}")

    @property
    def players(self) -> int:
        return len(self.choices)


def _with_payoff_table(game, choices, payoff):
    choices = tuple(choices)
    return game(choices, total_fn(flat_product(choices), Payoff(len(choices)), payoff))


def normal_form(choices, payoff) -> NormalFormGame:
    return _with_payoff_table(NormalFormGame, choices, payoff)


def brute_nash(nf: NormalFormGame):
    """All pure equilibria by direct deviation checks, in profile order."""
    out = []
    for profile in nf.payoff.dom:
        value = nf.payoff(profile)
        for i, xs in enumerate(nf.choices):
            if any(
                nf.payoff(profile[:i] + (alt,) + profile[i + 1 :])[i] > value[i]
                for alt in xs
            ):
                break
        else:
            out.append(profile)
    return out


# ---------------------------------------------------------------------------
# Sequential games: one mover per stage, later movers see all earlier choices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequentialGame:
    choices: tuple
    payoff: TotalFn

    def __post_init__(self):
        NormalFormGame(self.choices, self.payoff)  # same well-formedness conditions

    @property
    def players(self) -> int:
        return len(self.choices)


def sequential_game(choices, payoff) -> SequentialGame:
    return _with_payoff_table(SequentialGame, choices, payoff)


def strategic_extension(strategies: dict, prefix: tuple, stages: int) -> tuple:
    """Complete a play: fixed prefix, then each strategy applied to its history.

    `strategies` maps 1-based stage indices to functions on full prefix
    tuples; every stage after the prefix must be present.
    """
    if len(prefix) > stages:
        raise TypeMismatch("prefix longer than the game")
    play = list(prefix)
    for i in range(len(prefix) + 1, stages + 1):
        try:
            s = strategies[i]
        except KeyError:
            raise TypeMismatch(f"missing strategy for stage {i}") from None
        play.append(s(tuple(play[: i - 1])))
    return tuple(play)


def stage_strategy_sets(sq: SequentialGame):
    """Player i's strategies: functions from all earlier choices to stage i."""
    return tuple(
        make_set(enumerate_functions(flat_product(sq.choices[:i]), xs))
        for i, xs in enumerate(sq.choices)
    )


def sequential_normal_form(sq: SequentialGame) -> NormalFormGame:
    sets = stage_strategy_sets(sq)
    n = sq.players

    def value(profile):
        strategies = {i + 1: profile[i] for i in range(n)}
        return sq.payoff(strategic_extension(strategies, (), n))

    return normal_form(sets, value)


def sequential_nash(sq: SequentialGame):
    return brute_nash(sequential_normal_form(sq))


def sequential_spe(sq: SequentialGame):
    """Profiles optimal after every history, by direct inspection of all subgames."""
    sets = stage_strategy_sets(sq)
    n = sq.players
    out = []
    for profile in flat_product(sets):
        strategies = {i + 1: profile[i] for i in range(n)}
        ok = True
        for i in range(1, n + 1):
            for prefix in flat_product(sq.choices[: i - 1]):
                own = sq.payoff(
                    strategic_extension(strategies, prefix + (profile[i - 1](prefix),), n)
                )[i - 1]
                for alt in sq.choices[i - 1]:
                    dev = sq.payoff(strategic_extension(strategies, prefix + (alt,), n))[i - 1]
                    if dev > own:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(profile)
    return out


# ---------------------------------------------------------------------------
# Extensive games: trees plus an information-set partition.
# ---------------------------------------------------------------------------


class TreeNode:
    """A tree node: either a leaf with payoffs or a 1-based player's choice."""

    def __init__(self, node_id, player=None, payoffs=None, children=()):
        self.node_id = node_id
        self.player = player
        self.payoffs = payoffs
        self.children = tuple(children)
        if (payoffs is None) == (player is None):
            raise MalformedInfoSet(f"node {node_id!r} must be a leaf or a choice, not both")
        if player is not None and not self.children:
            raise MalformedInfoSet(f"choice node {node_id!r} has no actions")

    @property
    def is_leaf(self):
        return self.payoffs is not None

    @property
    def actions(self):
        return tuple(a for a, _ in self.children)


@dataclass
class ExtensiveGame:
    root: TreeNode
    players: int
    infoset_groups: tuple = ()
    _nodes: dict = field(default_factory=dict, repr=False)
    _infosets: list = field(default_factory=list, repr=False)
    _player_infosets: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        order = []

        def walk(node):
            if node.node_id in self._nodes:
                raise MalformedInfoSet(f"duplicate node id {node.node_id!r}")
            self._nodes[node.node_id] = node
            order.append(node)
            if node.is_leaf:
                if len(node.payoffs) != self.players:
                    raise MalformedInfoSet(
                        f"leaf {node.node_id!r} has {len(node.payoffs)} payoffs"
                    )
            else:
                if not 1 <= node.player <= self.players:
                    raise MalformedInfoSet(f"bad player at node {node.node_id!r}")
            for _, child in node.children:
                walk(child)

        walk(self.root)

        grouped = {}
        for group in self.infoset_groups:
            ids = tuple(group)
            for i in ids:
                if i not in self._nodes:
                    raise MalformedInfoSet(f"unknown node id {i!r} in information set")
                if i in grouped:
                    raise MalformedInfoSet(f"node {i!r} in two information sets")
                grouped[i] = ids
            members = [self._nodes[i] for i in ids]
            players = {m.player for m in members}
            if None in players or len(players) != 1:
                raise MalformedInfoSet(f"information set {ids!r} mixes players")
            if len({m.actions for m in members}) != 1:
                raise MalformedInfoSet(f"information set {ids!r} mixes action sets")

        seen = set()
        for node in order:
            if node.is_leaf or node.node_id in seen:
                continue
            ids = grouped.get(node.node_id, (node.node_id,))
            seen.update(ids)
            self._infosets.append(ids)
        for p in range(1, self.players + 1):
            self._player_infosets[p] = [
                ids for ids in self._infosets if self._nodes[ids[0]].player == p
            ]

    def infosets_of(self, player):
        return list(self._player_infosets[player])

    def node(self, node_id):
        return self._nodes[node_id]


def normalize_extensive(eg: ExtensiveGame) -> NormalFormGame:
    """Strategic form: a player's strategy fixes an action per information set."""
    choice_sets = []
    for p in range(1, eg.players + 1):
        isets = eg.infosets_of(p)
        choice_sets.append(
            flat_product([make_set(eg.node(ids[0]).actions) for ids in isets])
        )
    index = {}
    for p in range(1, eg.players + 1):
        for j, ids in enumerate(eg.infosets_of(p)):
            for i in ids:
                index[i] = (p, j)

    def outcome(profile):
        node = eg.root
        while not node.is_leaf:
            p, j = index[node.node_id]
            action = profile[p - 1][j]
            node = dict(node.children)[action]
        return node.payoffs

    return normal_form(choice_sets, outcome)


def subgame_roots(eg: ExtensiveGame):
    """Nodes whose subtree is closed under the information-set partition."""
    members = {ids[0]: set(ids) for ids in eg._infosets}
    for ids in eg._infosets:
        for i in ids:
            members[i] = set(ids)
    roots = []

    def subtree_ids(node):
        acc = {node.node_id}
        for _, child in node.children:
            acc |= subtree_ids(child)
        return acc

    def walk(node):
        ids = subtree_ids(node)
        if all(members.get(i, {i}) <= ids for i in ids):
            roots.append(node)
        for _, child in node.children:
            walk(child)

    walk(eg.root)
    return roots


def subgame_at(eg: ExtensiveGame, node: TreeNode) -> ExtensiveGame:
    inside = set()

    def collect(n):
        inside.add(n.node_id)
        for _, child in n.children:
            collect(child)

    collect(node)
    groups = [ids for ids in eg.infoset_groups if set(ids) <= inside]
    return ExtensiveGame(node, eg.players, tuple(groups))


def oracle_spe(eg: ExtensiveGame):
    """Profiles whose restriction to every subgame is an equilibrium there."""
    full = normalize_extensive(eg)
    tests = []
    for root in subgame_roots(eg):
        sub = subgame_at(eg, root)
        sub_nash = set(brute_nash(normalize_extensive(sub)))

        keep = []
        for p in range(1, eg.players + 1):
            full_isets = eg.infosets_of(p)
            sub_isets = {tuple(ids) for ids in sub.infosets_of(p)}
            keep.append([j for j, ids in enumerate(full_isets) if tuple(ids) in sub_isets])

        def restrict(profile, keep=keep):
            return tuple(
                tuple(profile[p][j] for j in keep[p]) for p in range(eg.players)
            )

        tests.append((restrict, sub_nash))

    out = []
    for profile in full.payoff.dom:
        if all(restrict(profile) in nash for restrict, nash in tests):
            out.append(profile)
    return out


def embed_sequential(sq: SequentialGame) -> ExtensiveGame:
    """The obvious perfect-information tree; singleton information sets."""
    n = sq.players
    counter = [0]

    def build(prefix):
        if len(prefix) == n:
            counter[0] += 1
            return TreeNode(f"leaf{counter[0]}", payoffs=sq.payoff(prefix))
        stage = len(prefix) + 1
        children = [(x, build(prefix + (x,))) for x in sq.choices[stage - 1]]
        return TreeNode("n" + "/".join(map(str, prefix)), player=stage, children=children)

    return ExtensiveGame(build(()), n)
