"""Open games: lens-valued plays indexed by strategies plus a best-response relation.

A game from diset Phi to diset Psi carries a finite strategy set, a play
lens Phi -> Psi for each strategy, and one best-response rule: at a
context (history, continuation) it gives each strategy a row, an int
whose bit `j` is set when the `j`-th strategy responds best
(`OpenGame.rows`).  `play`, `transport` and `reach` name a strategy by
its index too, so the engine reads a composite strategy set, a product
mirroring the expression shape, only by its size.  `relation` decodes
the rows, `responses` one row, and `best` is membership in it.

Each constructor builds its rows from its parts' rows: a decision shares
one row, the strategies into its argmax, among all strategies; seq asks
its first game once per cut a second-stage strategy leaves and its
second game once per history handed on; tensor asks each factor once per
fibre its partners' moves leave; a product asks only the tagged child.
Pair `(i, j)` of a seq game sits at index `i * width + j`, and tensor and
product profiles are mixed-radix, as `flat_product` lists them, so every
row is index arithmetic on the parts' rows.

States of seq, tensor and product games come from one join per
combinator (`seq_states`, `tensor_states`, `product_states`).  Every
states rule answers as rows index: with the ascending indices of its
states, a join's pairs and profiles where the rows put them.  Only
`game_states` and `expr.separable_states_over` decode them, and inside
the engine only an atom's play decodes its strategy.  A composite
game passes its parts' own `states`; separable states (`expr`) pass each
part's separable states, so Nash and subgame-perfect profiles share the
joins.  A decision's states are a product of choice indices, its argmax
at each asked history and any choice elsewhere, not a scan of its
function space; only games without a `states` rule of their own, such
as the reindexed ones, filter every strategy through their relation.

The Nash path reads tables by index, not by lookup.  A decision takes
its argmax in one pass over the rows of its continuation, a copy
decision over the block of rows its history extends into; a tensor
factor's continuation is a strided slice of the joint table
(`lenses.factor_continuation`); and a normal form, one n-ary tensor of
decisions, gets its Nash profiles from one join.

Unit games and the games of a lens (`trivial_game`) are strategically
trivial: one strategy, always a best response.  So are seq, tensor and
product of trivial games and their reindexed boundaries.  Their rows
are read off without a continuation or a store entry, and the seq, tensor
and product rules build no cut, factor or branch continuation for a
trivial part; the states joins still do.

A seq game pulls a continuation back to its cut stage by stage
(`OpenGame.transport`), a tensor game through its factors' play lenses,
and seq, tensor and product games hand histories on through their parts
(`OpenGame.reach`), so the joins build no composite play lens; a copy
decision reads its cut off the continuation's table, with no play lens.

A top-level call (`check_morphism`, `find_globular_iso`, `relation`,
`responses`, `is_state`, `separable_states_over`, the `states` fallback)
makes one store, a dict passed as `memo`, and drops it on return: `rows`
keeps rows there by game and context, and `derived` each cut, move,
factor, branch or pulled-back table by builder and arguments, so a call builds
each once.  The states joins keep their own tables per call.  A tensor
game builds its boundaries once and its play lenses onto them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

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
    """An open game, keeping no table of its own.  `play`, `transport`, `reach`, `rows`
    and `states` name a strategy by its index; `relation`, `responses` and `best` by value."""

    def __init__(self, src: Diset, dst: Diset, strategies: FiniteSet, play, relation, label="",
                 states=None, transport=None, reach=None, trivial=False):
        self.src = src
        self.dst = dst
        self.strategies = strategies
        self._play = play
        self._relation = relation
        self._states = states
        self._transport = transport or (lambda i, k: apply_continuation(play(i), k))
        self._reach = reach or (lambda i, hists: list(map(play(i).view, hists)))
        self.trivial = trivial
        self.label = label

    def _at(self, i) -> int:
        """`i`, checked to index a strategy: a bool, a value or an index out of range does not."""
        if type(i) is int and 0 <= i < len(self.strategies):
            return i
        raise TypeMismatch(f"not a strategy index of {self.label or 'game'}: {i!r}")

    def play(self, i) -> Lens:
        return self._play(self._at(i))

    def transport(self, i, k) -> TotalFn:
        """`apply_continuation(self.play(i), k)`: `k` on the target pulled back
        to the source, stage by stage in a seq game."""
        return self._transport(self._at(i), k)

    def reach(self, i, hists) -> list:
        """The history `play(i).view` hands on from each of `hists`, in order."""
        return self._reach(self._at(i), hists)

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
    return [h.transport(t, k) for t in range(len(h.strategies))]


def _moves(g: OpenGame, hist) -> list:  # the history each strategy of `g` hands on from `hist`
    return [g.reach(s, (hist,))[0] for s in range(len(g.strategies))]


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


def _tensor_rows(sizes, moves, factor, j, before) -> tuple:
    """The rows of a tensor's factors j.. once the earlier ones moved `before`: factor
    j's rows on each fibre, `factor(j, fibre)`, paired with the rest's by `_pair_rows`."""
    if j == len(sizes) - 1:
        return factor(j, before)
    rests = itertools.product(*moves[j + 1:])  # the later factors' moves, in profile order
    return _pair_rows(sizes[j], [factor(j, before + rest) for rest in rests],
                      lambda s: _tensor_rows(sizes, moves, factor, j + 1, before + (moves[j][s],)))


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
    argmax, any other history allows every choice.  Over one history, asked,
    they are its argmax indices.
    """
    n = len(dom)
    if n == 1 and hs:
        for h in hs:
            dom.index(h)  # raises TypeMismatch off the source, as `s(h)` would
        return top(0)
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

    def play(i):
        return Lens(src, dst, strategies.elements[i], USecond(lit(UNIT)))

    def states(hs, k):
        if k.dom != y:
            raise TypeMismatch("continuation does not match the decision's choices")
        _check_payoffs(k, dst.backward)
        top = _argmax([r[0] for r in k.values])
        return _product_states(x, len(y), hs, lambda i: top)

    def relation(h, k, memo):
        # Every strategy has the same best responses: those into the argmax at h.
        return (_mask(states((h,), k)),) * len(strategies)

    return OpenGame(src, dst, strategies, play, relation, label="decision", states=states,
                    reach=lambda i, hists: list(map(strategies.elements[i], hists)))


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

    def play(i):
        s = strategies.elements[i]
        # `s` is a table over `hist` into `last`, so each pair lies in `out`.
        view = s if n == 1 else _derived_fn(hist, out, tuple(zip(hist.elements, s.values)))
        return Lens(src, dst, view, drop)

    def transport(i, k):
        # `apply_continuation(play(i), k)` by table lookup: history j extended by
        # choice y is row j * len(last) + last.index(y) of `k`, a table on `out`.
        if k.dom != out:
            raise TypeMismatch("continuation does not match lens codomain")
        m, col, rows, s = len(last), last._index, k.values, strategies.elements[i]
        try:  # each row but its last payoff
            values = tuple(rows[j * m + col[y]][: n - 1] for j, y in enumerate(s.values))
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
    width = len(h.strategies)  # pair (s, t) is index s * width + t

    def play(i):
        return lens_compose(g.play(i // width), h.play(i % width))

    def transport(i, k):
        return g.transport(i // width, h.transport(i % width, k))

    def reach(i, hists):
        return h.reach(i % width, g.reach(i // width, hists))

    def relation(hist, k, memo):
        # g is judged against the cut each second-stage strategy leaves, h at
        # the history each first-stage strategy hands on; a trivial g needs no cut.
        cuts = ([(1,)] * width if g.trivial
                else [g.rows(hist, kt, memo) for kt in derived(memo, _cuts, h, k)])
        moves = derived(memo, _moves, g, hist)
        return _pair_rows(len(g.strategies), cuts, lambda s: h.rows(moves[s], k, memo))

    return OpenGame(g.src, h.dst, strategies, play, relation, label="seq",
                    states=lambda hists, k: seq_states(g, h, hists, k, g.states, h.states),
                    transport=transport, reach=reach, trivial=g.trivial and h.trivial)


def tensor_games(*games: OpenGame) -> OpenGame:
    """Play `games` side by side; profiles are mixed-radix, as `flat_product` lists them."""
    if not games:
        raise TypeMismatch("empty tensor family")
    src = diset_tensor(*[g.src for g in games])
    dst = diset_tensor(*[g.dst for g in games])
    strategies = flat_product([g.strategies for g in games])
    sizes = [len(g.strategies) for g in games]
    digits = list(itertools.product(*map(range, sizes)))  # profile i's strategy index in each game

    def transport(i, k):  # `apply_continuation(play(i), k)`, one column per factor
        if k.dom != dst.forward:
            raise TypeMismatch("continuation does not match lens codomain")
        lenses = list(map(OpenGame.play, games, digits[i]))
        seen = map(k, itertools.product(*[l.view.values for l in lenses]))
        cols = map(map, [l.update.apply for l in lenses], zip(*src.forward.elements), zip(*seen))
        return TotalFn(src.forward, src.backward, tuple(zip(*cols)))

    def reach(i, hists):  # each game hands on its own component of `hists`
        own = list(zip(*hists)) or [()] * len(games)
        return list(zip(*map(OpenGame.reach, games, digits[i], own)))

    def relation(hist, k, memo):
        # A factor's continuation depends on its partners' moves only, so it is
        # built once per fibre and shared by every context and game that meets it.
        moves = list(map(functools.partial(derived, memo, _moves), games, hist))

        def factor(j, fibre):  # game j's rows on the fibre its partners' moves leave
            g = games[j]
            return (1,) if g.trivial else g.rows(
                hist[j], derived(memo, factor_continuation, k, j, fibre, g.dst), memo)

        return _tensor_rows(sizes, moves, factor, 0, ())

    return OpenGame(src, dst, strategies,
                    lambda i: _lens_tensor(src, dst, *map(OpenGame.play, games, digits[i])),
                    relation, label="tensor", transport=transport, reach=reach,
                    states=lambda hs, k: tensor_states(games, hs, k, [g.states for g in games]),
                    trivial=all(g.trivial for g in games))


def product_games(games) -> OpenGame:
    """Product of games over shared backward carriers: tagged choice of factor."""
    games = list(games)
    if not games:
        raise TypeMismatch("empty product family")
    src, _ = coproduct_diset([g.src for g in games])
    dst, injections = coproduct_diset([g.dst for g in games])
    strategies = flat_product([g.strategies for g in games])
    # Profiles are mixed-radix, the first child most significant: child j's
    # strategy is digit `i // lows[j] % sizes[j]` of profile i.
    sizes = [len(g.strategies) for g in games]
    lows = [math.prod(sizes[j + 1:]) for j in range(len(games))]

    def play(i):
        return copair_lenses([lens_compose(g.play(i // lows[j] % sizes[j]), injections[j])
                              for j, g in enumerate(games)])

    def reach(i, hists):
        return [Tag(x.side, games[x.side].reach(i // lows[x.side] % sizes[x.side], (x.value,))[0])
                for x in hists]

    def relation(hist, k, memo):
        # Only the tagged child is played, so every other child may deviate freely.
        j = hist.side
        child = games[j]
        kj = None if child.trivial else derived(memo, branch_continuation, k, j, child.dst)
        tagged = child.rows(hist.value, kj, memo)  # a trivial child reads no continuation
        n, low, high = sizes[j], lows[j], math.prod(sizes[:j])
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
    for s in range(len(g.strategies)):
        reached = frozenset(g.reach(s, hists))
        ts = seconds.get(reached)
        if ts is None:
            ts = seconds[reached] = second(reached, k)
        for t in ts:
            ss = firsts.get(t)
            if ss is None:
                ss = firsts[t] = set(first(hists, h.transport(t, k)))
            if s in ss:
                out.append(s * len(h.strategies) + t)
    return out


def tensor_states(games, hists, k: TotalFn, rules) -> list:
    """Profiles, mixed-radix as in the rows: at each joint history, each factor in
    its rule's states on the fibre of `k` its partners' moves leave.

    A factor is asked once per fibre, at the own histories meeting it, its states
    intersected over the fibres one choice of partners leaves until none is left:
    factor 0 for every choice, each later one only where profiles are still live.
    A fibre is keyed by the int where it starts in `k`.  `expr._certificate` lists
    the same contexts, none for an empty `hists`: change both together.
    """
    outs = [g.dst.forward.elements for g in games]
    steps = [math.prod(map(len, outs[j + 1:])) for j in range(len(games))]
    lane = steps[0] * len(outs[0])  # one base-`lane` digit per joint history
    mine = list(zip(*hists)) or [()] * len(games)
    weights = [[step * lane ** t for t in range(len(hists))] for step in steps]
    # What each strategy's moves add to its partners' fibre starts: they sum to them.
    marks = [[sum(map(operator.mul, weights[j], map(g.dst.forward.index, g.reach(s, mine[j]))))
              for s in range(len(g.strategies))] for j, g in enumerate(games)]
    tables, passing = {}, {}

    def allowed(j, w):  # factor j's states where its partners' marks sum to w
        got = passing.get((j, w))
        if got is None:
            meets, rest = {}, w  # fibre start -> the own histories meeting it
            for h in mine[j]:
                rest, f = divmod(rest, lane)
                meets.setdefault(f, []).append(h)
            got = set(range(len(games[j].strategies)))  # every strategy, while no fibre is checked
            for f, own in meets.items():
                kf = tables.get((j, f))
                if kf is None:
                    moves = tuple([o[f // steps[m] % len(o)] for m, o in enumerate(outs) if m != j])
                    kf = tables[(j, f)] = factor_continuation(k, j, moves, games[j].dst)
                got &= set(rules[j](tuple(own), kf))
                if not got:
                    break
            passing[(j, w)] = got
        return got

    rests = [(rest, sum(map(list.__getitem__, marks[1:], rest)))
             for rest in itertools.product(*[range(len(g.strategies)) for g in games[1:]])]
    passes = [[] for _ in marks[0]]  # factor 0's strategy -> the partner choices it passes
    for r, (_, v) in enumerate(rests):
        for s in allowed(0, v):
            passes[s].append(r)
    return [s * len(rests) + r for s, rs in enumerate(passes) for r in rs  # later factors in turn
            if all(t in allowed(j, rests[r][1] + marks[0][s] - marks[j][t])
                   for j, t in enumerate(rests[r][0], 1))]


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
    return OpenGame(lens.dom, g.dst, g.strategies, lambda i: lens_compose(lens, g.play(i)),
                    lambda h, k, memo: g.rows(lens.view(h), k, memo),
                    label=g.label, trivial=g.trivial)


def reindex_target(g: OpenGame, lens: Lens) -> OpenGame:
    """Push the target boundary forward along a lens out of g's target."""
    if lens.dom != g.dst:
        raise TypeMismatch("reindexing lens must start at the target boundary")
    return OpenGame(g.src, lens.cod, g.strategies, lambda i: lens_compose(g.play(i), lens),
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

    return OpenGame(g.src, g.dst, f.dom, lambda i: g.play(at[i]), relation, label=g.label)


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
