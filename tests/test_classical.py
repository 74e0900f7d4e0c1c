"""Brute-force oracles: normal forms, staged games, extensive trees."""

from fractions import Fraction

import pytest

from opengames.classical import (
    ExtensiveGame,
    TreeNode,
    brute_nash,
    embed_sequential,
    normal_form,
    normalize_extensive,
    oracle_spe,
    sequential_game,
    sequential_nash,
    sequential_normal_form,
    sequential_spe,
    stage_strategy_sets,
    strategic_extension,
    subgame_at,
    subgame_roots,
)
from opengames.errors import MalformedInfoSet, TypeMismatch
from opengames.finite import Payoff, make_set, total_fn
from opengames.sampling import random_sequential

Q = Fraction
MOVES = make_set(["C", "D"])


# ---------- normal forms ----------


def test_brute_nash_frozen_tables():
    pd = normal_form(
        [MOVES, MOVES],
        {
            ("C", "C"): (Q(2), Q(2)),
            ("C", "D"): (Q(0), Q(3)),
            ("D", "C"): (Q(3), Q(0)),
            ("D", "D"): (Q(1), Q(1)),
        },
    )
    assert brute_nash(pd) == [("D", "D")]
    sexes = normal_form(
        [make_set(["O", "B"])] * 2,
        lambda p: {
            ("O", "O"): (Q(2), Q(1)),
            ("B", "B"): (Q(1), Q(2)),
        }.get(p, (Q(0), Q(0))),
    )
    assert brute_nash(sexes) == [("O", "O"), ("B", "B")]


def test_normal_form_validation():
    with pytest.raises(TypeMismatch):
        normal_form([MOVES], lambda p: (Q(0), Q(0)))
    bad_dom = total_fn(MOVES, Payoff(2), lambda _: (Q(0), Q(0)))
    from opengames.classical import NormalFormGame

    with pytest.raises(TypeMismatch):
        NormalFormGame((MOVES, MOVES), bad_dom)


def test_payoffs_off_the_payoff_carrier_are_rejected():
    for build in (normal_form, sequential_game):
        for payoff in (
            lambda p: (Q(1),),  # one coordinate for two players
            lambda p: (Q(1), Q(0), Q(0)),
            lambda p: (1, 0),  # ints, not Fractions
            lambda p: (Q(1), 0.5),
        ):
            with pytest.raises(TypeMismatch):
                build([MOVES, MOVES], payoff)


# ---------- staged games ----------


def test_strategic_extension():
    s2 = total_fn(
        make_set([("C",), ("D",)]), MOVES, {("C",): "D", ("D",): "C"}
    )
    play = strategic_extension({2: s2}, ("C",), 2)
    assert play == ("C", "D")
    const_c = total_fn(make_set([()]), MOVES, {(): "C"})
    assert strategic_extension({1: const_c, 2: s2}, (), 2) == ("C", "D")
    with pytest.raises(TypeMismatch):
        strategic_extension({}, ("C",), 2)
    with pytest.raises(TypeMismatch):
        strategic_extension({}, ("C", "D", "C"), 2)


def test_stage_strategy_sets_grow_with_history():
    sq = sequential_game([MOVES, MOVES, MOVES], lambda p: (Q(0),) * 3)
    sizes = [len(s) for s in stage_strategy_sets(sq)]
    assert sizes == [2, 4, 16]


def test_spe_refines_nash(rng):
    for _ in range(10):
        sq = random_sequential(rng)
        nash = set(sequential_nash(sq))
        spe = set(sequential_spe(sq))
        assert spe <= nash
        assert spe


# ---------- tree validation ----------


def leaf(i, *qs):
    return TreeNode(i, payoffs=tuple(Q(q) for q in qs))


def test_tree_node_validation():
    with pytest.raises(MalformedInfoSet):
        TreeNode("x")
    with pytest.raises(MalformedInfoSet):
        TreeNode("x", player=1, payoffs=(Q(0),))
    with pytest.raises(MalformedInfoSet):
        TreeNode("x", player=1, children=())


def test_extensive_validation():
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(leaf("a", 0), players=2)  # payoff arity
    dup = TreeNode("r", player=1, children=[("L", leaf("a", 0)), ("R", leaf("a", 1))])
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(dup, players=1)
    stray = TreeNode("r", player=3, children=[("L", leaf("a", 0))])
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(stray, players=1)


def two_choice_tree():
    i1 = TreeNode("i1", player=2, children=[("L", leaf("a", 1, 0)), ("R", leaf("b", 0, 1))])
    i2 = TreeNode("i2", player=2, children=[("L", leaf("c", 2, 0)), ("R", leaf("d", 0, 2))])
    return TreeNode("r", player=1, children=[("L", i1), ("R", i2)])


def test_infoset_validation():
    root = two_choice_tree()
    ExtensiveGame(root, players=2, infoset_groups=(("i1", "i2"),))
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(root, players=2, infoset_groups=(("i1", "zz"),))
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(root, players=2, infoset_groups=(("i1", "i2"), ("i2",)))
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(root, players=2, infoset_groups=(("r", "i1"),))
    lop = TreeNode(
        "i3", player=2, children=[("L", leaf("e", 0, 0)), ("X", leaf("f", 0, 0))]
    )
    root2 = TreeNode("r", player=1, children=[("L", two_choice_tree().children[0][1]), ("R", lop)])
    with pytest.raises(MalformedInfoSet):
        ExtensiveGame(root2, players=2, infoset_groups=(("i1", "i3"),))


def test_infosets_fuse_strategies():
    root = two_choice_tree()
    fused = ExtensiveGame(root, players=2, infoset_groups=(("i1", "i2"),))
    assert len(normalize_extensive(fused).choices[1]) == 2
    free = ExtensiveGame(two_choice_tree(), players=2)
    assert len(normalize_extensive(free).choices[1]) == 4


# ---------- a worked entry game ----------


def entry_tree():
    i1 = TreeNode(
        "i1", player=2, children=[("F", leaf("ff", -3, -1)), ("A", leaf("fa", 1, -2))]
    )
    i2 = TreeNode(
        "i2", player=2, children=[("F", leaf("af", -2, -1)), ("A", leaf("aa", 3, 1))]
    )
    e = TreeNode("e", player=1, children=[("F", i1), ("A", i2)])
    r = TreeNode("r", player=1, children=[("Q", leaf("q", 0, 2)), ("C", e)])
    return ExtensiveGame(r, players=2, infoset_groups=(("i1", "i2"),))


def test_entry_game_nash_and_spe():
    eg = entry_tree()
    nf = normalize_extensive(eg)
    assert len(nf.payoff.dom) == 8
    assert brute_nash(nf) == [
        (("Q", "F"), ("F",)),
        (("Q", "A"), ("F",)),
        (("C", "A"), ("A",)),
    ]
    assert oracle_spe(eg) == [(("C", "A"), ("A",))]


def test_entry_game_subgames():
    eg = entry_tree()
    roots = {n.node_id for n in subgame_roots(eg)}
    assert roots == {"r", "q", "e", "ff", "fa", "af", "aa"}
    sub = subgame_at(eg, eg.node("e"))
    assert sub.players == 2
    assert {n.node_id for n in subgame_roots(sub)} >= {"e"}
    assert brute_nash(normalize_extensive(sub)) == [(("A",), ("A",))]


# ---------- sequential games as trees ----------


def test_embedding_preserves_the_strategic_form(rng):
    for _ in range(8):
        sq = random_sequential(rng)
        eg = embed_sequential(sq)
        ext = normalize_extensive(eg)
        cls = sequential_normal_form(sq)
        for p in range(sq.players):
            assert [s.values for s in cls.choices[p]] == list(ext.choices[p])
        for flat, fns in zip(ext.payoff.dom, cls.payoff.dom):
            assert ext.payoff(flat) == cls.payoff(fns)


def test_embedding_aligns_the_solution_sets(rng):
    for _ in range(8):
        sq = random_sequential(rng)
        eg = embed_sequential(sq)
        by_tree = {p for p in oracle_spe(eg)}
        by_stage = {
            tuple(tuple(s.values) for s in profile) for profile in sequential_spe(sq)
        }
        assert {tuple(p) for p in by_tree} == by_stage


def test_perfect_information_makes_every_node_a_subgame():
    sq = sequential_game([MOVES, MOVES], lambda p: (Q(0), Q(0)))
    eg = embed_sequential(sq)
    assert len(subgame_roots(eg)) == 7
