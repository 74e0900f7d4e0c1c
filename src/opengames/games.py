"""Open games: lens-valued plays indexed by strategies plus a best-response relation.

A game from diset Phi to diset Psi carries a finite strategy set, a play
lens Phi -> Psi for each strategy, and one best-response rule: at a
context (history, continuation) it gives each strategy a row, an int
whose bit `j` is set when the `j`-th strategy responds best
(`OpenGame.rows`).  `relation` decodes the rows, `responses` one row,
and `best` is membership in it.  Composite strategy sets are products
whose elements mirror the expression shape.

Each constructor builds its rows from its parts' rows: a decision shares
one row, the strategies into its argmax, among all strategies; seq asks
its first game once per cut a second-stage strategy leaves and its
second game once per history handed on; tensor asks each factor once per
partner move; a product asks only the tagged child.  Pair `(i, j)` of a
seq or tensor game sits at index `i * width + j`, so its row is index
arithmetic on its parts' rows, as is a product's.

States of seq, tensor and product games come from one join per
combinator (`seq_states`, `tensor_states`, `product_states`).  Every
states rule answers as rows index: with the ascending indices of its
states, a join's pairs and profiles where the rows put them.  Only
`game_states` and `expr.separable_states_over` decode them.  A composite
game passes its parts' own `states`; separable states (`expr`) pass each
part's separable states, so Nash and subgame-perfect profiles share the
joins.  A decision's states are a product of choice indices, its argmax
at each asked history and any choice elsewhere, not a scan of its
function space; only games without a `states` rule of their own, such
as the reindexed ones, filter every strategy through their relation.

The Nash path reads tables by index, not by lookup.  A decision takes
its argmax in one pass over the rows of its continuation, a copy
decision over the block of rows its history extends into; a tensor
factor's continuation is a stride or a block of the joint table
(`lenses.factor_continuation`); and the tensor join intersects the first
factor's states per second-factor strategy, then emits its pairs in one
ordered pass over the first factor's strategies.

Unit games and the games of a lens (`trivial_game`) are strategically
trivial: one strategy, always a best response.  So are seq, tensor and
product of trivial games and their reindexed boundaries.  Their rows
are read off without a continuation or a store entry, and the seq, tensor
and product rules build no cut, factor or branch continuation for a
trivial part; the states joins still do.

A seq game pulls a continuation back to its cut stage by stage
(`OpenGame.transport`), and seq, tensor and product games hand histories
on through their parts (`OpenGame.reach`), so the joins build no
composite play lens; a copy decision reads its cut off the
continuation's table, with no play lens.

A top-level call (`check_morphism`, `find_globular_iso`, `relation`,
`responses`, `is_state`, `separable_states_over`, the `states` fallback)
makes one store, a dict passed as `memo`, and drops it on return: `rows`
keeps rows there by game and context, and `derived` each cut, factor,
branch or pulled-back table by builder and arguments, so a call builds
each once.  The states joins keep their own tables per call.  A tensor
game builds its boundaries once and its play lenses onto them.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import EmptyChoiceSet, TypeMismatch
from .finite import (
    FiniteSet,
    Payoff,
    Tag,
    TotalFn,
    UNIT,
    UNIT_SET,
    _derived_fn,
    _derived_set,
    carrier_contains,
    enumerate_functions,
    flat_product,
    nested_product,
    product_set,
)
from .lenses import (
    Context,
    Diset,
    Lens,
    USecond,
    _NEST_RIGHT,
    _PAD_RIGHT,
    _lens_tensor,
    _rearrange_lens,
    apply_continuation,
    branch_continuation,
    copair_lenses,
    coproduct_diset,
    diset_tensor,
    effect_lens,
    factor_continuation,
    leaf,
    lens_compose,
    lens_identity,
    lit,
    pair_t,
)


class OpenGame:
    """An open game.  It keeps one table, its play lenses (`_play_cache`): bounded by
    its strategies, derived from no continuation, and read at every context of a check."""

    def __init__(self, src: Diset, dst: Diset, strategies: FiniteSet, play, relation, label="",
                 states=None, transport=None, reach=None, trivial=False):
        self.src = src
        self.dst = dst
        self.strategies = strategies
        self._play = play
        self._relation = relation
        self._states = states
        self._transport = transport
        self._reach = reach
        self.trivial = trivial
        self.label = label
        self._play_cache = {}

    def play(self, sigma) -> Lens:
        try:
            lens = self._play_cache.get(sigma)
        except TypeError:  # unhashable, so not a strategy
            lens = None
        if lens is None:
            if sigma not in self.strategies:
                raise TypeMismatch(f"not a strategy of {self.label or 'game'}: {sigma!r}")
            lens = self._play(sigma)
            self._play_cache[sigma] = lens
        return lens

    def transport(self, sigma, k) -> TotalFn:
        """`apply_continuation(self.play(sigma), k)`: `k` on the target pulled back
        to the source, stage by stage in a seq game."""
        if self._transport is None:
            return apply_continuation(self.play(sigma), k)
        return self._transport(sigma, k)

    def reach(self, sigma, hists) -> list:
        """The history `play(sigma).view` hands on from each of `hists`, in order."""
        if self._reach is None:
            return list(map(self.play(sigma).view, hists))
        return self._reach(sigma, hists)

    def best(self, history, continuation, sigma, deviation) -> bool:
        """Whether `deviation` is a best response to `sigma` at the context."""
        return deviation in self.responses(history, continuation, sigma)

    def rows(self, history, continuation, memo=None) -> tuple:
        """The best-response relation at one context by strategy index: per
        strategy an int whose bit `j` is set when the `j`-th responds best.

        A strategically trivial game relates its one strategy to itself
        without reading the continuation or its rule.  Rows are kept in the
        store `memo` under `(game, history, continuation)`, beside `derived`
        tables; a top-level call makes it for the games it asks, or `rows` does.
        """
        if self.trivial:
            return (1,)
        if memo is None:
            memo = {}
        key = (self, history, continuation)
        try:
            table = memo.get(key)
        except TypeError:  # unhashable, so not a context
            raise TypeMismatch(f"not a context of {self.label or 'game'}: {history!r}") from None
        if table is None:
            table = memo[key] = self._relation(history, continuation, memo)
        return table

    def relation(self, history, continuation, memo=None) -> dict:
        """`rows` decoded, each distinct row once: each strategy mapped to its
        best responses, both in strategy order."""
        elements = self.strategies.elements
        decode = functools.cache(lambda row: _members(elements, row))
        return {s: decode(row) for s, row in zip(elements, self.rows(history, continuation, memo))}

    def responses(self, history, continuation, sigma) -> tuple:
        """The best responses to `sigma` at one context, in order."""
        rows = self.rows(history, continuation)
        try:
            i = self.strategies._index[sigma]
        except (KeyError, TypeError):  # not a strategy, or unhashable
            raise TypeMismatch(f"not a strategy of {self.label or 'game'}: {sigma!r}") from None
        return _members(self.strategies.elements, rows[i])

    def states(self, histories, k) -> list:
        """The indices of the strategies that best-respond to themselves at all
        `histories`, ascending, as in `rows`.

        A constructor's own `states` must agree with this definition.
        """
        histories = tuple(histories)
        if self._states is None or not histories:
            memo = {}
            return [i for i in range(len(self.strategies))
                    if all(self.rows(h, k, memo)[i] >> i & 1 for h in histories)]
        return self._states(histories, k)

    def __repr__(self):
        name = self.label or "OpenGame"
        return f"{name}({self.src!r} -|> {self.dst!r}, |S|={len(self.strategies)})"


def derived(memo: dict, build, *args):
    """`build(*args)`, built once per store: `memo` keeps it under `(build, *args)`."""
    key = (build, *args)
    out = memo.get(key)
    if out is None:
        out = memo[key] = build(*args)
    return out


def _cuts(h: OpenGame, k: TotalFn) -> list:  # the cut each strategy of `h` leaves of `k`
    return [h.transport(t, k) for t in h.strategies]


def _bits(mask: int):
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(elements: tuple, mask: int) -> tuple:
    """The elements a row's bits index, in order."""
    return tuple(elements[j] for j in _bits(mask))


def _mask(indices) -> int:
    return sum(1 << j for j in indices)


def _spread(mask: int, width: int) -> int:
    """`mask` with bit `a` moved to bit `a * width`."""
    out = 0  # `_bits` inlined: a generator here costs three times the loop
    while mask:
        low = mask & -mask
        out |= 1 << ((low.bit_length() - 1) * width)
        mask ^= low
    return out


def _pair_rows(count: int, firsts: list, seconds) -> tuple:
    """The rows of pairs `(i, j)`, at index `i * width + j`: the second part's
    row `seconds(i)[j]` times the first part's `firsts[j][i]` spread to one bit
    per block.  `seconds(i)` is asked once some `firsts[j][i]` is not empty."""
    width = len(firsts)
    out = []
    for i in range(count):
        right = None
        for j, column in enumerate(firsts):
            left = column[i]
            if not left:
                out.append(0)
                continue
            if right is None:
                right = seconds(i)
            out.append(right[j] and right[j] * _spread(left, width))
    return tuple(out)


def best_response(game: OpenGame, c: Context, sigma, deviation) -> bool:
    """Public evaluator with boundary checks."""
    if c.history not in game.src.forward:
        raise TypeMismatch("history outside the source boundary")
    if c.continuation.dom != game.dst.forward:
        raise TypeMismatch("continuation does not match the target boundary")
    if deviation not in game.strategies:
        raise TypeMismatch(f"not a strategy of {game.label or 'game'}: {deviation!r}")
    return game.best(c.history, c.continuation, sigma, deviation)


def game_states(game: OpenGame, k: TotalFn):
    """Strategies that best-respond to themselves at every history, in canonical order.

    `states` decoded; equal to keeping each `s` with `best(h, k, s, s)` at every `h`.
    """
    return list(map(game.strategies.elements.__getitem__, game.states(game.src.forward, k)))


def _argmax(scores) -> list:
    """The indices of the top scores, in order: one pass keeping the running
    top and its ties, with one `>` and at most one `==` per score."""
    it = iter(scores)
    top = next(it)
    out = [0]
    for j, v in enumerate(it, 1):
        if v > top:
            top, out = v, [j]
        elif v == top:
            out.append(j)
    return out


def _check_payoffs(k: TotalFn, carrier) -> None:
    """Raise unless `k` lands in the payoff carrier; a table built into that very
    carrier, as every engine-built one is, passes without a look at its values."""
    if not (k.cod is carrier or k.cod == carrier
            or all(carrier_contains(carrier, v) for v in k.values)):
        raise TypeMismatch(f"continuation values outside {carrier!r}")


def _product_states(dom: FiniteSet, radix: int, hs, top):
    """The indices of the strategies dom -> choices whose choice at each asked
    history, the `i`-th of `dom`, has its index in `top(i)`, in order.

    `enumerate_functions` lists a function space mixed-radix, the first
    history's choice most significant, so the answer is the product of
    the allowed choice indices: an asked history allows the indices of its
    argmax, any other history allows every choice.
    """
    n = len(dom)
    weights = [radix ** (n - 1 - i) for i in range(n)]
    allowed = [[j * w for j in range(radix)] for w in weights]
    for h in hs:
        i = dom.index(h)  # raises TypeMismatch off the source, as `s(h)` would
        allowed[i] = [j * weights[i] for j in top(i)]
    return list(map(sum, itertools.product(*allowed)))


def unit_game(d: Diset) -> OpenGame:
    return trivial_game(lens_identity(d), label="unit")


def trivial_game(lens: Lens, label="trivial") -> OpenGame:
    """A strategically trivial game: one strategy, always best."""
    return OpenGame(
        lens.dom, lens.cod, UNIT_SET, lambda _: lens, None, label=label,
        states=lambda hs, k: [0], trivial=True,
    )


def utility_game(payout: TotalFn, label="utility") -> OpenGame:
    """Close off a boundary with an internal continuation given by a payoff table."""
    d = Diset(payout.dom, payout.cod)
    return trivial_game(effect_lens(d, payout), label=label)


def decision(x: FiniteSet, y: FiniteSet) -> OpenGame:
    """A single maximizing decision (X, 1) -|> (Y, Q^1) over all functions X -> Y."""
    if len(y) == 0:
        raise EmptyChoiceSet("decision needs a nonempty choice set")
    strategies = _derived_set(tuple(enumerate_functions(x, y)))
    src = Diset(x, UNIT_SET)
    dst = Diset(y, Payoff(1))

    def play(s):
        return Lens(src, dst, s, USecond(lit(UNIT)))

    def states(hs, k):
        if k.dom != y:
            raise TypeMismatch("continuation does not match the decision's choices")
        _check_payoffs(k, dst.backward)
        top = _argmax([r[0] for r in k.values])
        return _product_states(x, len(y), hs, lambda i: top)

    def relation(h, k, memo):
        # Every strategy has the same best responses: those into the argmax at h.
        return (_mask(states((h,), k)),) * len(strategies)

    return OpenGame(src, dst, strategies, play, relation, label="decision", states=states)


def copy_decision(sets) -> OpenGame:
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
    strategies = _derived_set(tuple(enumerate_functions(hist, last)))
    drop = USecond(leaf((), take=tuple(range(n - 1))))

    def play(s):
        if n == 1:
            view = s
        else:
            # `s` is a table over `hist` into `last`, so each pair lies in `out`.
            view = _derived_fn(hist, out, tuple(zip(hist.elements, s.values)))
        return Lens(src, dst, view, drop)

    def transport(s, k):
        # `apply_continuation(play(s), k)` by table lookup: history i extended by
        # choice y is row i * len(last) + last.index(y) of `k`, a table on `out`.
        if not (isinstance(s, TotalFn) and s.dom == hist and s.cod == last):
            raise TypeMismatch(f"not a strategy of copy-decision: {s!r}")
        if k.dom != out:
            raise TypeMismatch("continuation does not match lens codomain")
        m, col, rows = len(last), last._index, k.values
        try:  # each row but its last payoff
            values = tuple(rows[i * m + col[y]][: n - 1] for i, y in enumerate(s.values))
        except TypeError:  # a value that is not a vector cannot be sliced
            raise TypeMismatch(f"continuation values outside {dst.backward!r}") from None
        # Slices of a checked table into Q^n lie in Q^(n-1); other tables are checked.
        return (_derived_fn if k.cod == dst.backward else TotalFn)(hist, src.backward, values)

    def states(hs, k):
        # Like `transport`: history i's choices are rows i * m to (i + 1) * m of `k`.
        if k.dom != out:
            raise TypeMismatch("continuation does not match the copy decision's target")
        _check_payoffs(k, dst.backward)
        m, rows = len(last), k.values
        return _product_states(hist, m, hs,
                               lambda i: _argmax([r[n - 1] for r in rows[i * m:(i + 1) * m]]))

    def relation(h, k, memo):
        return (_mask(states((h,), k)),) * len(strategies)

    return OpenGame(src, dst, strategies, play, relation, label="copy-decision", states=states,
                    transport=transport)


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

    def reach(st, hists):
        return h.reach(st[1], g.reach(st[0], hists))

    def relation(hist, k, memo):
        # g is judged against the cut each second-stage strategy leaves, h at
        # the history each first-stage strategy hands on; a trivial g needs no cut.
        cuts = ([(1,)] * len(h.strategies) if g.trivial
                else [g.rows(hist, kt, memo) for kt in derived(memo, _cuts, h, k)])
        # Not `reach`: axiom 1 of `check_morphism` has cached every play lens.
        return _pair_rows(len(g.strategies), cuts,
                          lambda i: h.rows(g.play(g.strategies.elements[i]).view(hist), k, memo))

    return OpenGame(g.src, h.dst, strategies, play, relation, label="seq",
                    states=lambda hists, k: seq_states(g, h, hists, k, g.states, h.states),
                    transport=transport, reach=reach, trivial=g.trivial and h.trivial)


def tensor_games(g1: OpenGame, g2: OpenGame) -> OpenGame:
    src = diset_tensor(g1.src, g2.src)
    dst = diset_tensor(g1.dst, g2.dst)
    strategies = product_set(g1.strategies, g2.strategies)

    def play(ss):
        return _lens_tensor(src, dst, g1.play(ss[0]), g2.play(ss[1]))

    def reach(ss, hists):
        return list(zip(g1.reach(ss[0], [x for x, _ in hists]),
                        g2.reach(ss[1], [y for _, y in hists])))

    def relation(hist, k, memo):
        # A factor's continuation depends on the partner's move only, so it is
        # built once per move and shared by every context and game that meets it.
        def factor(side, partner):
            own, other = (g1, g2)[side], (g1, g2)[1 - side]
            if own.trivial:
                return (1,)
            # Not `reach`: axiom 1 of `check_morphism` has cached every play lens.
            move = other.play(partner).view(hist[1 - side])
            kf = derived(memo, factor_continuation, k, side, move, own.dst)
            return own.rows(hist[side], kf, memo)

        return _pair_rows(len(g1.strategies), [factor(0, s2) for s2 in g2.strategies],
                          lambda i: factor(1, g1.strategies.elements[i]))

    return OpenGame(src, dst, strategies, play, relation, label="tensor",
                    states=lambda hists, k: tensor_states(g1, g2, hists, k, g1.states, g2.states),
                    reach=reach,
                    trivial=g1.trivial and g2.trivial)


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

    def reach(sigma, hists):
        return [Tag(x.side, games[x.side].reach(sigma[x.side], (x.value,))[0]) for x in hists]

    def relation(hist, k, memo):
        # Only the tagged child is played, so every other child may deviate freely.
        # Profiles are mixed-radix, the first child most significant.
        j = hist.side
        child = games[j]
        kj = None if child.trivial else derived(memo, branch_continuation, k, j, child.dst)
        tagged = child.rows(hist.value, kj, memo)  # a trivial child reads no continuation
        n = len(child.strategies)
        low = math.prod(len(g.strategies) for g in games[j + 1:])
        high = math.prod(len(g.strategies) for g in games[:j])
        blocks = ((1 << low) - 1) * _spread((1 << high) - 1, n * low)
        rows = [_spread(row, low) * blocks for row in tagged]
        return tuple(rows[x // low % n] for x in range(len(strategies)))

    return OpenGame(src, dst, strategies, play, relation, label="product",
                    states=lambda hs, k: product_states(games, hs, k, [g.states for g in games]),
                    reach=reach,
                    trivial=all(g.trivial for g in games))


def seq_states(g: OpenGame, h: OpenGame, hists, k: TotalFn, first, second) -> list:
    """Pairs (s, t) at index `s * len(h.strategies) + t`: t in `second`'s states at
    the histories s hands on, s in `first`'s states against the cut t leaves."""
    seconds = {}  # histories reached by a first-stage strategy -> `second` there
    firsts = {}  # second-stage state -> `first` against the cut it leaves
    out = []
    for s, sigma in enumerate(g.strategies):
        reached = frozenset(g.reach(sigma, hists))
        ts = seconds.get(reached)
        if ts is None:
            ts = seconds[reached] = second(reached, k)
        for t in ts:
            ss = firsts.get(t)
            if ss is None:
                ss = firsts[t] = set(first(hists, h.transport(h.strategies.elements[t], k)))
            if s in ss:
                out.append(s * len(h.strategies) + t)
    return out


def tensor_states(g1: OpenGame, g2: OpenGame, hists, k: TotalFn, left, right) -> list:
    """Pairs (s1, s2) at index `s1 * len(g2.strategies) + s2`: at each joint history,
    each factor in its rule's states against the continuation its partner's move leaves.

    A rule's states at several histories are its states at each, so a factor
    is asked once per partner move, at the own histories meeting it, once a
    strategy passes the moves before: for each s2 the left states over the
    contexts it leaves are intersected until none is left, and an s1's right
    contexts are listed only once it passes some s2.  `expr._certificate`
    lists the same contexts, none for an empty `hists`: change both together.
    """
    halves = ([x for x, _ in hists], [y for _, y in hists])
    kfs = {}  # (side, partner move) -> that factor's continuation under k
    found = {}  # (side, partner move, own histories) -> that factor's states

    def contexts(side, partner):  # where one factor is judged, given the partner's strategy
        meets = {}  # partner move -> the own histories meeting it
        for move, mine in zip((g1, g2)[1 - side].reach(partner, halves[1 - side]), halves[side]):
            meets.setdefault(move, []).append(mine)
        return [(side, move, tuple(mine)) for move, mine in meets.items()]

    def states_at(key):  # one factor's states at one context, asked once
        got = found.get(key)
        if got is None:
            side, move, mine = key
            kf = kfs.get((side, move))
            if kf is None:
                kf = kfs[(side, move)] = factor_continuation(k, side, move, (g1, g2)[side].dst)
            got = found[key] = set((left, right)[side](mine, kf))
        return got

    passes = {}  # s1 -> the s2, in order, at whose left contexts s1 passes
    for s2, partner in enumerate(g2.strategies):
        ok = None  # every s1, while no context is checked
        for key in contexts(0, partner):
            ok = states_at(key) if ok is None else ok & states_at(key)
            if not ok:
                break
        for s1 in range(len(g1.strategies)) if ok is None else ok:
            passes.setdefault(s1, []).append(s2)
    out = []
    for s1 in sorted(passes):
        rights = contexts(1, g1.strategies.elements[s1])
        out.extend(s1 * len(g2.strategies) + s2 for s2 in passes[s1]
                   if all(s2 in states_at(key) for key in rights))
    return out


def product_states(games, hists, k: TotalFn, rules) -> list:
    """The product of each child's states at its tagged histories, mixed-radix as in the rows,
    since only the tagged branch is played; a child with none is asked too, until one has none."""
    per_child = []
    for j, (g, rule) in enumerate(zip(games, rules)):
        mine = [hist.value for hist in hists if hist.side == j]
        low = math.prod(len(c.strategies) for c in games[j + 1:])
        per_child.append([i * low for i in rule(mine, branch_continuation(k, j, g.dst))])
        if not per_child[-1]:
            return []
    return list(map(sum, itertools.product(*per_child)))


def reindex_source(g: OpenGame, lens: Lens) -> OpenGame:
    """Pull the source boundary back along a lens into g's source."""
    if lens.cod != g.src:
        raise TypeMismatch("reindexing lens must land in the source boundary")
    return OpenGame(lens.dom, g.dst, g.strategies, lambda s: lens_compose(lens, g.play(s)),
                    lambda h, k, memo: g.rows(lens.view(h), k, memo),
                    label=g.label, trivial=g.trivial)


def reindex_target(g: OpenGame, lens: Lens) -> OpenGame:
    """Push the target boundary forward along a lens out of g's target."""
    if lens.dom != g.dst:
        raise TypeMismatch("reindexing lens must start at the target boundary")
    return OpenGame(g.src, lens.cod, g.strategies, lambda s: lens_compose(g.play(s), lens),
                    lambda h, k, memo: g.rows(h, derived(memo, apply_continuation, lens, k), memo),
                    label=g.label, trivial=g.trivial)


def reindex_strategies(g: OpenGame, f: TotalFn) -> OpenGame:
    """Pull the strategy set back along a function into g's strategies."""
    if f.cod != g.strategies:
        raise TypeMismatch("reindexing function must land in the strategy set")

    at = [g.strategies.index(v) for v in f.values]  # each strategy's index in g

    def relation(h, k, memo):
        inner = g.rows(h, k, memo)
        return tuple(_mask(d for d, p in enumerate(at) if inner[q] >> p & 1) for q in at)

    return OpenGame(g.src, g.dst, f.dom, lambda s: g.play(f(s)), relation, label=g.label)


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

    intro = _rearrange_lens(Diset(hist, qprev), diset_tensor(hist_d, pass_d), _PAD_RIGHT, leaf([1]))
    dup = _rearrange_lens(hist_d, Diset(product_set(hist, hist), UNIT_SET),
                          pair_t(leaf(), leaf()), lit(UNIT))
    stage_copy = tensor_games(trivial_game(dup, label="copy"), unit_game(pass_d))
    shuffle = _rearrange_lens(stage_copy.dst, diset_tensor(hist_d, diset_tensor(hist_d, pass_d)),
                              _NEST_RIGHT, pair_t(lit(UNIT), leaf([1, 1])))
    chooser = decision(hist, last)
    stage_play = tensor_games(unit_game(hist_d), tensor_games(chooser, unit_game(pass_d)))
    payoffs = pair_t(leaf((), take=(n - 1,)), leaf((), take=tuple(range(n - 1))))
    close = _rearrange_lens(stage_play.dst, Diset(nested_product(sets), Payoff(n)),
                            pair_t(leaf([0]), leaf([1, 0])), pair_t(lit(UNIT), payoffs))

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
