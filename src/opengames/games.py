"""Open games: lens-valued plays indexed by strategies plus a best-response relation.

A game from diset Phi to diset Psi carries a finite strategy set, a play
lens Phi -> Psi for each strategy, and a boolean best-response evaluator
over contexts (history, continuation).  Composites evaluate best
responses lazily by recursion on structure, with memoization; their
strategy sets are products whose elements mirror the expression shape.

States of seq, tensor and product games are assembled from their parts'
states.  A decision's states are built as a product, with its argmax
allowed at each asked history and any choice elsewhere, not by scanning
its function space; only reindexed games filter every strategy through
`best`.  In the same way each constructor builds the set of best
responses to a strategy (`OpenGame.responses`) from its parts' sets: a
decision keeps the deviations into its argmax, seq and tensor take the
product of their parts' sets against the cut or factor continuations,
and a product varies only the tagged child.  Only games built by hand,
such as `sampling.random_game`, filter every deviation through `best`.

A seq game evaluates the continuation at its cut stage by stage
(`OpenGame.transport`): the second stage's play pulls the continuation
back, then the first's, so no composite play lens is built on the
equilibrium paths and each stage lens keeps its own tables.

Tensor factor and product child continuations are kept per call in
`states`, where the continuation is fixed, so none is hashed or outlives
the search; `best` and `responses` keep them per game, keyed by
continuation, since the morphism checks ask again with the same one.
"""

from __future__ import annotations

import itertools

from .errors import EmptyChoiceSet, TypeMismatch
from .finite import (
    DEFAULT_BOUND,
    FiniteSet,
    Payoff,
    TotalFn,
    UNIT,
    UNIT_SET,
    _derived_fn,
    _derived_set,
    enumerate_functions,
    flat_product,
    nested_product,
    product_set,
    total_fn,
)
from .lenses import (
    Context,
    Diset,
    Lens,
    MapTree,
    UConst,
    USecond,
    apply_continuation,
    branch_continuation,
    copair_lenses,
    coproduct_diset,
    diset_tensor,
    leaf,
    left_context,
    lens_compose,
    lens_identity,
    lens_tensor,
    lit,
    pair_t,
    right_context,
    effect_lens,
)


class OpenGame:
    def __init__(self, src: Diset, dst: Diset, strategies: FiniteSet, play, best, label="",
                 states=None, responses=None, transport=None):
        self.src = src
        self.dst = dst
        self.strategies = strategies
        self._play = play
        self._best = best
        self._states = states
        self._responses = responses
        self._transport = transport
        self.label = label
        self._play_cache = {}
        self._best_cache = {}
        self._responses_cache = {}

    def play(self, sigma) -> Lens:
        lens = self._play_cache.get(sigma)
        if lens is None:
            if sigma not in self.strategies:
                raise TypeMismatch(f"not a strategy of {self.label or 'game'}: {sigma!r}")
            lens = self._play(sigma)
            self._play_cache[sigma] = lens
        return lens

    def transport(self, sigma, k) -> TotalFn:
        """The continuation `k` on the target pulled back to the source along `play(sigma)`.

        Always equal to `apply_continuation(self.play(sigma), k)`.  A seq
        game pulls `k` back through its second stage and then its first,
        so no composite play lens is built and each stage lens keeps its
        own table per continuation.
        """
        if self._transport is None:
            return apply_continuation(self.play(sigma), k)
        return self._transport(sigma, k)

    def best(self, history, continuation, sigma, deviation) -> bool:
        key = (history, continuation, sigma, deviation)
        hit = self._best_cache.get(key)
        if hit is None:
            hit = self._best(history, continuation, sigma, deviation)
            self._best_cache[key] = hit
        return hit

    def responses(self, history, continuation, sigma) -> tuple:
        """The deviations `d` with `best(history, continuation, sigma, d)`, in order.

        A constructor's own `responses` must agree with this definition.
        """
        key = (history, continuation, sigma)
        hit = self._responses_cache.get(key)
        if hit is None:
            if self._responses is None:
                hit = tuple(
                    d for d in self.strategies if self.best(history, continuation, sigma, d)
                )
            else:
                hit = self._responses(history, continuation, sigma)
            self._responses_cache[key] = hit
        return hit

    def states(self, histories, k) -> list:
        """Strategies that best-respond to themselves at all `histories`, in order.

        A constructor's own `states` must agree with this definition.
        """
        histories = tuple(histories)
        if self._states is None or not histories:
            return [s for s in self.strategies if all(self.best(h, k, s, s) for h in histories)]
        return self._states(histories, k)

    def __repr__(self):
        name = self.label or "OpenGame"
        return f"{name}({self.src!r} -|> {self.dst!r}, |S|={len(self.strategies)})"


def best_response(game: OpenGame, c: Context, sigma, deviation) -> bool:
    """Public evaluator with boundary checks."""
    if c.history not in game.src.forward:
        raise TypeMismatch("history outside the source boundary")
    if c.continuation.dom != game.dst.forward:
        raise TypeMismatch("continuation does not match the target boundary")
    return game.best(c.history, c.continuation, sigma, deviation)


def game_states(game: OpenGame, k: TotalFn):
    """Strategies that best-respond to themselves at every history, in canonical order.

    Assembled per combinator; equal to filtering every strategy through `best`.
    """
    return game.states(game.src.forward, k)


def _argmax(choices, score) -> set:
    """The choices scoring weakly above every other."""
    scores = {y: score(y) for y in choices}
    top = max(scores.values())
    return {y for y, v in scores.items() if v >= top}


def _product_states(strategies: FiniteSet, dom: FiniteSet, choices: FiniteSet, hs, top) -> list:
    """The strategies dom -> choices playing into `top(h)` at each asked `h`, in order.

    `enumerate_functions` lists a function space mixed-radix, the first
    history's choice most significant, so the answer is the product of
    the allowed choice indices: an asked history allows its argmax, any
    other history allows every choice.
    """
    n, radix = len(dom), len(choices)
    weights = [radix ** (n - 1 - i) for i in range(n)]
    allowed = [[j * w for j in range(radix)] for w in weights]
    for h in hs:
        i = dom.index(h)  # raises TypeMismatch off the source, as `s(h)` would
        here = top(h)
        allowed[i] = [j * weights[i] for j, y in enumerate(choices) if y in here]
    elements = strategies.elements
    return [elements[sum(digits)] for digits in itertools.product(*allowed)]


def unit_game(d: Diset) -> OpenGame:
    return OpenGame(
        d, d, UNIT_SET, lambda _: lens_identity(d), lambda *args: True, label="unit",
        states=lambda hs, k: [UNIT], responses=lambda *args: (UNIT,),
    )


def trivial_game(lens: Lens, label="trivial") -> OpenGame:
    """A strategically trivial game: one strategy, always best."""
    return OpenGame(
        lens.dom, lens.cod, UNIT_SET, lambda _: lens, lambda *args: True, label=label,
        states=lambda hs, k: [UNIT], responses=lambda *args: (UNIT,),
    )


def utility_game(payout: TotalFn, label="utility") -> OpenGame:
    """Close off a boundary with an internal continuation given by a payoff table."""
    d = Diset(payout.dom, payout.cod)
    return trivial_game(effect_lens(d, payout), label=label)


def decision(x: FiniteSet, y: FiniteSet, bound: int = DEFAULT_BOUND) -> OpenGame:
    """A single maximizing decision (X, 1) -|> (Y, Q^1) over all functions X -> Y."""
    if len(y) == 0:
        raise EmptyChoiceSet("decision needs a nonempty choice set")
    strategies = _derived_set(tuple(enumerate_functions(x, y, bound)))
    src = Diset(x, UNIT_SET)
    dst = Diset(y, Payoff(1))

    def play(s):
        return Lens(src, dst, s, UConst(UNIT))

    def best(h, k, s, s2):
        chosen = k(s2(h))
        return all(chosen >= k(alt) for alt in y)

    def states(hs, k):
        top = _argmax(y, k)
        return _product_states(strategies, x, y, hs, lambda h: top)

    def responses(h, k, s):
        top = _argmax(y, k)
        return tuple(d for d in strategies if d(h) in top)

    return OpenGame(src, dst, strategies, play, best, label="decision", states=states,
                    responses=responses)


def copy_decision(sets, bound: int = DEFAULT_BOUND) -> OpenGame:
    """A decision that republishes its inputs: history in, history plus choice out.

    Stage n of a sequential protocol: sees the first n-1 moves, plays the
    n-th, passes all earlier payoff coordinates through and maximizes its own.
    """
    sets = list(sets)
    n = len(sets)
    if n == 0:
        raise EmptyChoiceSet("copy decision needs at least one stage")
    last = sets[-1]
    if len(last) == 0:
        raise EmptyChoiceSet("copy decision needs a nonempty choice set")
    hist = nested_product(sets[:-1])
    out = nested_product(sets)
    src = Diset(hist, Payoff(n - 1))
    dst = Diset(out, Payoff(n))
    strategies = _derived_set(tuple(enumerate_functions(hist, last, bound)))
    drop = USecond(MapTree(Payoff(n), Payoff(n - 1), leaf((), take=tuple(range(n - 1)))))

    def play(s):
        if n == 1:
            view = s
        else:
            # `s` is a table over `hist` into `last`, so each pair lies in `out`.
            view = _derived_fn(hist, out, tuple(zip(hist.elements, s.values)))
        return Lens(src, dst, view, drop)

    def extend(h, choice):
        return choice if n == 1 else (h, choice)

    def best(h, k, s, s2):
        own = k(extend(h, s2(h)))[n - 1]
        return all(own >= k(extend(h, alt))[n - 1] for alt in last)

    def top(h, k):
        return _argmax(last, lambda alt: k(extend(h, alt))[n - 1])

    def states(hs, k):
        return _product_states(strategies, hist, last, hs, lambda h: top(h, k))

    def responses(h, k, s):
        here = top(h, k)
        return tuple(d for d in strategies if d(h) in here)

    return OpenGame(src, dst, strategies, play, best, label="copy-decision", states=states,
                    responses=responses)


def seq_compose(g: OpenGame, h: OpenGame) -> OpenGame:
    """Play g, then h; strategy pairs (sigma_g, sigma_h)."""
    if g.dst != h.src:
        raise TypeMismatch(f"cannot sequence: {g.dst!r} vs {h.src!r}")
    strategies = product_set(g.strategies, h.strategies)

    def play(st):
        s, t = st
        return lens_compose(g.play(s), h.play(t))

    def transport(st, k):
        return g.transport(st[0], h.transport(st[1], k))

    def best(hist, k, st, st2):
        (s, t), (s2, t2) = st, st2
        k_inner = h.transport(t, k)
        if not g.best(hist, k_inner, s, s2):
            return False
        return h.best(g.play(s).view(hist), k, t, t2)

    def responses(hist, k, st):
        s, t = st
        firsts = g.responses(hist, h.transport(t, k), s)
        if not firsts:
            return ()
        return tuple(itertools.product(firsts, h.responses(g.play(s).view(hist), k, t)))

    def states(hists, k):
        seconds = {}  # histories reached by a first-stage strategy -> h's states there
        firsts = {}  # second-stage state -> g's states against the cut it leaves
        out = []
        for s in g.strategies:
            reached = frozenset(map(g.play(s).view, hists))
            ts = seconds.get(reached)
            if ts is None:
                ts = seconds[reached] = h.states(reached, k)
            for t in ts:
                ss = firsts.get(t)
                if ss is None:
                    ss = firsts[t] = set(g.states(hists, h.transport(t, k)))
                if s in ss:
                    out.append((s, t))
        return out

    return OpenGame(g.src, h.dst, strategies, play, best, label="seq", states=states,
                    responses=responses, transport=transport)


def tensor_games(g1: OpenGame, g2: OpenGame) -> OpenGame:
    src = diset_tensor(g1.src, g2.src)
    dst = diset_tensor(g1.dst, g2.dst)
    strategies = product_set(g1.strategies, g2.strategies)

    def play(ss):
        return lens_tensor(g1.play(ss[0]), g2.play(ss[1]))

    def context_k(side, hist, k, partner):
        build = right_context if side else left_context
        return build(partner, Context(hist, k), (g1, g2)[side].dst).continuation

    # A factor's continuation depends on the joint continuation and on the
    # partner's move only, so many partner strategies share one table.
    # This per-game table serves `best`/`responses`; `states` keeps its own.
    factor_ks = {}  # (side, k, partner move) -> that factor's continuation

    def factor_k(side, hist, k, partner):
        key = (side, k, partner.view(hist[1 - side]))
        kf = factor_ks.get(key)
        if kf is None:
            kf = factor_ks[key] = context_k(side, hist, k, partner)
        return kf

    def best(hist, k, ss, dd):
        (s1, s2), (d1, d2) = ss, dd
        if not g1.best(hist[0], factor_k(0, hist, k, g2.play(s2)), s1, d1):
            return False
        return g2.best(hist[1], factor_k(1, hist, k, g1.play(s1)), s2, d2)

    def responses(hist, k, ss):
        s1, s2 = ss
        lefts = g1.responses(hist[0], factor_k(0, hist, k, g2.play(s2)), s1)
        if not lefts:
            return ()
        return tuple(
            itertools.product(lefts, g2.responses(hist[1], factor_k(1, hist, k, g1.play(s1)), s2))
        )

    def states(hists, k):
        kfs = {}  # (side, partner move) -> that factor's continuation under k
        found = {}  # (side, own history, partner move) -> that factor's states

        def needs(side, partner):  # the sets one factor must lie in
            sets = []
            for hist in hists:
                move = partner.view(hist[1 - side])
                key = (side, hist[side], move)
                got = found.get(key)
                if got is None:
                    kf = kfs.get((side, move))
                    if kf is None:
                        kf = kfs[(side, move)] = context_k(side, hist, k, partner)
                    got = found[key] = set((g1, g2)[side].states((hist[side],), kf))
                sets.append(got)
            return sets

        # Left first: s1's right-hand needs are built only once some s2 passes.
        lefts = {}  # s2 -> the sets s1 must lie in
        out = []
        for s1 in g1.strategies:
            rights = None
            for s2 in g2.strategies:
                left = lefts.get(s2)
                if left is None:
                    left = lefts[s2] = needs(0, g2.play(s2))
                if not all(s1 in st for st in left):
                    continue
                if rights is None:
                    rights = needs(1, g1.play(s1))
                if all(s2 in st for st in rights):
                    out.append((s1, s2))
        return out

    return OpenGame(src, dst, strategies, play, best, label="tensor", states=states,
                    responses=responses)


def product_games(games) -> OpenGame:
    """Product of games over shared backward carriers: tagged choice of factor."""
    games = list(games)
    if not games:
        raise TypeMismatch("empty product family")
    src, _ = coproduct_diset([g.src for g in games])
    dst, injections = coproduct_diset([g.dst for g in games])
    strategies = flat_product([g.strategies for g in games])

    def play(sigma):
        return copair_lenses(
            [lens_compose(g.play(sigma[j]), injections[j]) for j, g in enumerate(games)]
        )

    factor_ks = {}  # (j, k) -> continuation of factor j, for `best` and `responses`

    def factor_k(j, k):
        kj = factor_ks.get((j, k))
        if kj is None:
            kj = factor_ks[(j, k)] = branch_continuation(k, j, games[j].dst)
        return kj

    def best(hist, k, sigma, dev):
        j = hist.side
        return games[j].best(hist.value, factor_k(j, k), sigma[j], dev[j])

    def responses(hist, k, sigma):
        # Only the tagged child is played, so every other child may deviate freely.
        j = hist.side
        per_child = [g.strategies for g in games]
        per_child[j] = games[j].responses(hist.value, factor_k(j, k), sigma[j])
        return tuple(itertools.product(*per_child))

    def states(hists, k):
        # Only the tagged branch counts, so the product of each child's
        # states at its own histories is the answer, in lexicographic order.
        per_child = []
        for j, g in enumerate(games):
            mine = [hist.value for hist in hists if hist.side == j]
            per_child.append(
                g.states(mine, branch_continuation(k, j, g.dst)) if mine else g.strategies
            )
        return list(itertools.product(*per_child))

    return OpenGame(src, dst, strategies, play, best, label="product", states=states,
                    responses=responses)


def reindex_source(g: OpenGame, lens: Lens) -> OpenGame:
    """Pull the source boundary back along a lens into g's source."""
    if lens.cod != g.src:
        raise TypeMismatch("reindexing lens must land in the source boundary")
    return OpenGame(
        lens.dom,
        g.dst,
        g.strategies,
        lambda s: lens_compose(lens, g.play(s)),
        lambda h, k, s, s2: g.best(lens.view(h), k, s, s2),
        label=g.label,
        responses=lambda h, k, s: g.responses(lens.view(h), k, s),
    )


def reindex_target(g: OpenGame, lens: Lens) -> OpenGame:
    """Push the target boundary forward along a lens out of g's target."""
    if lens.dom != g.dst:
        raise TypeMismatch("reindexing lens must start at the target boundary")
    return OpenGame(
        g.src,
        lens.cod,
        g.strategies,
        lambda s: lens_compose(g.play(s), lens),
        lambda h, k, s, s2: g.best(h, apply_continuation(lens, k), s, s2),
        label=g.label,
        responses=lambda h, k, s: g.responses(h, apply_continuation(lens, k), s),
    )


def reindex_strategies(g: OpenGame, f: TotalFn) -> OpenGame:
    """Pull the strategy set back along a function into g's strategies."""
    if f.cod != g.strategies:
        raise TypeMismatch("reindexing function must land in the strategy set")

    def responses(h, k, s):
        kept = set(g.responses(h, k, f(s)))
        return tuple(d for d in f.dom if f(d) in kept)

    return OpenGame(
        g.src,
        g.dst,
        f.dom,
        lambda s: g.play(f(s)),
        lambda h, k, s, s2: g.best(h, k, f(s), f(s2)),
        label=g.label,
        responses=responses,
    )


def copy_decision_composite(sets) -> OpenGame:
    """The copy decision assembled from a copying node, a plain decision and plumbing.

    Same boundaries as `copy_decision(sets)`; the two are globularly
    isomorphic.  Requires at least two stages.
    """
    sets = list(sets)
    n = len(sets)
    if n < 2:
        raise TypeMismatch("composite form needs at least two stages")
    last = sets[-1]
    hist = nested_product(sets[:-1])
    qprev = Payoff(n - 1)
    hist_d = Diset(hist, UNIT_SET)
    pass_d = Diset(UNIT_SET, qprev)

    intro_cod = diset_tensor(hist_d, pass_d)
    intro = Lens(
        Diset(hist, qprev),
        intro_cod,
        total_fn(hist, intro_cod.forward, lambda x: (x, UNIT)),
        USecond(MapTree(intro_cod.backward, qprev, leaf([1]))),
    )

    dup_cod = Diset(product_set(hist, hist), UNIT_SET)
    dup = Lens(
        hist_d,
        dup_cod,
        total_fn(hist, dup_cod.forward, lambda x: (x, x)),
        UConst(UNIT),
    )
    stage_copy = tensor_games(trivial_game(dup, label="copy"), unit_game(pass_d))

    shuffle_dom = stage_copy.dst
    shuffle_cod = diset_tensor(hist_d, diset_tensor(hist_d, pass_d))
    shuffle = Lens(
        shuffle_dom,
        shuffle_cod,
        total_fn(shuffle_dom.forward, shuffle_cod.forward, lambda v: (v[0][0], (v[0][1], v[1]))),
        USecond(MapTree(shuffle_cod.backward, shuffle_dom.backward, pair_t(lit(UNIT), leaf([1, 1])))),
    )

    chooser = decision(hist, last)
    stage_play = tensor_games(unit_game(hist_d), tensor_games(chooser, unit_game(pass_d)))

    close_dom = stage_play.dst
    close_cod = Diset(nested_product(sets), Payoff(n))
    close = Lens(
        close_dom,
        close_cod,
        total_fn(close_dom.forward, close_cod.forward, lambda v: (v[0], v[1][0])),
        USecond(
            MapTree(
                Payoff(n),
                close_dom.backward,
                pair_t(lit(UNIT), pair_t(leaf((), take=(n - 1,)), leaf((), take=tuple(range(n - 1))))),
            )
        ),
    )

    out = seq_compose(
        trivial_game(intro, label="intro"),
        seq_compose(
            stage_copy,
            seq_compose(
                trivial_game(shuffle, label="shuffle"),
                seq_compose(stage_play, trivial_game(close, label="close")),
            ),
        ),
    )
    out.label = "copy-decision-composite"
    return out
