"""The `.og` document language: s-expressions describing games to solve.

A document declares finite sets, payoff tables, lenses, games and
composition expressions, plus optional classical descriptions
(normal-form, sequential, extensive) that the command line tool can
solve against the same engine.  Every diagnostic carries the line and
column of the form that caused it.

Toplevel forms:

  (set NAME (a b c))              enumerated elements
  (set NAME (sum A B))            tagged union of two named sets
  (set NAME (prod A B))           pairs
  (payoff NAME (A B) 2 ROWS)      table over flat tuples, into Q^2
  (diset NAME SET CARRIER)        a forward set with a backward carrier
  (lens NAME LENS)
  (game NAME GFORM)
  (expr NAME E)
  (continuation NAME EXPR ROWS)   a closing payoff rule for an expression
  (normal-form NAME (A B) P)
  (sequential NAME (A B) P)
  (extensive NAME N TREE (infoset id id ...) ...)

with carriers `unit`, a set name, or (real N); disets combined by
(tensor D D) with unit `I`; lenses built from id, compose (left to
right), tensor, assoc/unassoc, swap, lunit/runit and their -inv forms,
counit, and (effect D ROWS); games from (decision X Y),
(copy-decision X1 ... Xn), (utility P), (unit D), (trivial-lens L);
expressions from names, (seq E E), (tensor E E) and (product E ...).
Values are written `*`, element names, (pair v v), (inl v), (inr v)
and (vec q ...) with rationals like 3, -1 or 2/3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .classical import ExtensiveGame, TreeNode, normal_form, sequential_game
from .errors import (
    DocumentTypeError,
    EngineError,
    NameResolutionError,
    ParseError,
    SourceError,
)
from .expr import Atom, GameExpr, Product, Seq, Tensor, eval_expr
from .finite import (
    UNIT,
    UNIT_SET,
    Payoff,
    Tag,
    carrier_contains,
    coproduct_set,
    flatten_value,
    format_value,
    inj_name,
    make_set,
    nest_value,
    nested_product,
    product_set,
    total_fn,
)
from .games import copy_decision, decision, trivial_game, unit_game, utility_game
from .lenses import (
    Diset,
    UNIT_DISET,
    assoc_lens,
    counit_lens,
    diset_tensor,
    effect_lens,
    lens_compose,
    lens_identity,
    lens_tensor,
    lunit_inv_lens,
    lunit_lens,
    runit_inv_lens,
    runit_lens,
    swap_lens,
    unassoc_lens,
)

_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
# A paren, an atom, a comment or a newline; any other character is a blank.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*|\n")

#: Deepest list nesting the reader accepts, far above any real document.
#: The reader keeps an explicit stack, but the analysis recurses once per
#: level, so the cap keeps hostile input from exhausting the interpreter's stack.
MAX_DEPTH = 256

#: Deepest composition a declaration may have.  A `set`, `diset`, `lens` or
#: `expr` is 1 deeper than the deepest name or part it is built from, and a
#: `compose` one more per part after the second; a `payoff` is as deep as its
#: deepest domain set plus one per set after the first, a game as its deepest
#: part, and a normal-form or sequential game as its number of players.
#: The engine recurses through names as well as nested forms: under `og solve`
#: on CPython 3.10-3.13 an inline `tensor` overflowed the default recursion
#: limit beyond depth 245, a named `seq` or `product` chain beyond 327, so
#: half the reader's cap leaves room for both at once.
MAX_COMPOSITION = MAX_DEPTH // 2


# ---------------------------------------------------------------------------
# Reading: tokens and s-expressions with source positions.
# ---------------------------------------------------------------------------


class SExpr(NamedTuple):
    atom: object  # str for atoms, None for lists
    items: object  # tuple for lists, None for atoms
    line: int
    col: int

    @property
    def is_atom(self):
        return self.atom is not None


def tokenize(text: str):
    """`(text, line, col)` tuples, 1-based; blanks, newlines and comments are skipped."""
    out = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line, start = line + 1, m.end()
        elif tok[0] != ";":
            out.append((tok, line, m.start() - start + 1))
    return out


def parse_sexprs(text: str):
    items = []  # the innermost open list's items; at depth 0, the document's
    stack = []  # per open list: the items around it, and the line and col of its `(`
    for tok, line, col in tokenize(text):
        if tok == "(":
            if len(stack) >= MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH}", line, col)
            stack.append((items, line, col))
            items = []
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", line, col)
            outer, line, col = stack.pop()
            outer.append(SExpr(None, tuple(items), line, col))
            items = outer
        else:
            items.append(SExpr(tok, None, line, col))
    if stack:
        raise ParseError("unclosed '('", stack[-1][1], stack[-1][2])
    return items


def format_sexpr(node: SExpr) -> str:
    if node.is_atom:
        return node.atom
    return "(" + " ".join(format_sexpr(i) for i in node.items) + ")"


def format_document(nodes) -> str:
    return "".join(format_sexpr(n) + "\n" for n in nodes)


def skeleton(node: SExpr):
    """The tree with positions stripped, for structural comparison."""
    if node.is_atom:
        return node.atom
    return tuple(skeleton(i) for i in node.items)


# ---------------------------------------------------------------------------
# Analysis: turning forms into engine objects.
# ---------------------------------------------------------------------------


#: The names every document starts with, as (kind, value); no declaration may take them.
BUILTINS = {"unit": ("set", UNIT_SET), "I": ("diset", UNIT_DISET)}


def with_article(kind: str) -> str:
    """`an expr`, `a set`: a declaration kind as a message writes it."""
    return ("an " if kind[0] in "aeiou" else "a ") + kind


@dataclass
class Document:
    names: dict  # name -> (kind, value), in declaration order
    forms: list

    @property
    def declarations(self):
        """Every (kind, name) in declaration order."""
        return [(kind, name) for name, (kind, _) in self.names.items()]


def _err(node, message):
    return DocumentTypeError(message, node.line, node.col)


def _flat_row(values):
    """A payoff row's profile as it is written: `(a0 b0 c1)`."""
    return "(" + " ".join(format_value(v) for v in values) + ")"


def _written(v) -> str:
    """A value in the document's own syntax: `(pair * (inl a))`, `(vec 1 2/3)`."""
    if isinstance(v, Tag):
        return f"({inj_name(v.side)} {_written(v.value)})"
    if isinstance(v, tuple):
        if all(isinstance(q, Fraction) for q in v):
            return "(vec" + "".join(f" {q}" for q in v) + ")"
        return f"(pair {_written(v[0])} {_written(v[1])})"
    return format_value(v)


def _need_list(node, what):
    if node.is_atom:
        raise _err(node, f"expected {what}, found `{node.atom}`")
    return node.items


def _need_atom(node, what):
    if not node.is_atom:
        raise _err(node, f"expected {what}, found a list")
    return node.atom


def _need_int(node, what):
    text = _need_atom(node, what)
    try:
        return int(text)
    except ValueError:
        raise _err(node, f"expected {what}, found `{text}`") from None


def _need_count(node, what, noun):
    n = _need_int(node, what)
    if n < 0:
        raise _err(node, f"{noun} cannot be negative, found `{n}`")
    return n


class _Analyzer:
    def __init__(self, forms):
        self.forms = forms
        self.doc = Document({}, list(forms))
        self.depths = {}  # name -> composition depth, for sets, disets, lenses, exprs and payoffs

    def run(self) -> Document:
        for form in self.forms:
            items = _need_list(form, "a declaration")
            if not items:
                raise _err(form, "empty declaration")
            head = _need_atom(items[0], "a declaration keyword")
            handler = getattr(self, "_form_" + head.replace("-", "_"), None)
            if handler is None:
                raise _err(items[0], f"unknown declaration `{head}`")
            depth = self._composition_depth(form, head, items[2:])
            try:
                handler(form, items)
            except SourceError:
                raise
            except EngineError as e:  # e.g. a bound hit outside any `_engine` span
                raise _err(form, str(e)) from e
            if depth is not None and head != "game":
                self.depths[items[1].atom] = depth
        return self.doc

    def _composition_depth(self, form, head, body):
        """The depth of a set, diset, lens, expr, game or payoff declaration, checked
        against `MAX_COMPOSITION` before the form is analysed; None for others."""
        if head not in ("set", "diset", "lens", "expr", "game", "payoff"):
            return None
        if head == "payoff":  # the domain nests one pair per set after the first
            sets = body[0].items if body and not body[0].is_atom else ()
            depth = max(len(sets) - 1, 0) + max(map(self._depth, sets), default=0)
        elif len(body) == 1 and not body[0].is_atom:
            depth = self._depth(body[0]) - (head == "game")
        else:
            depth = 1 + max(map(self._depth, body), default=0)
        if depth > MAX_COMPOSITION:
            raise _err(form, f"composition depth {depth} exceeds {MAX_COMPOSITION}")
        return depth

    def _depth(self, node):
        """1 plus the deepest part of a form, its head aside, and one more per
        `compose` part after the second; a name is as deep as its declaration."""
        if node.is_atom:
            return self.depths.get(node.atom, 0)
        items = node.items
        extra = max(len(items) - 3, 0) if items and items[0].atom == "compose" else 0
        return 1 + extra + max(map(self._depth, items[1:]), default=0)

    # -- shared plumbing ----------------------------------------------------

    def _declare(self, node, kind, name, value):
        if name in BUILTINS or name in self.doc.names:
            raise NameResolutionError(
                f"`{name}` is already defined", node.line, node.col
            )
        self.doc.names[name] = (kind, value)

    def _lookup(self, node, kind):
        name = _need_atom(node, f"{with_article(kind)} name")
        found, value = self.doc.names.get(name) or BUILTINS.get(name, (None, None))
        if found is None:
            raise NameResolutionError(f"unknown name `{name}`", node.line, node.col)
        if found != kind:
            raise NameResolutionError(
                f"`{name}` is {with_article(found)}, not {with_article(kind)}",
                node.line, node.col,
            )
        return value

    def _engine(self, node, fn, *args):
        """Run an engine constructor, pinning failures to a source span."""
        try:
            return fn(*args)
        except EngineError as e:
            raise _err(node, str(e)) from e

    # -- value literals -----------------------------------------------------

    def _value(self, node):
        if node.is_atom:
            if node.atom == "*":
                return UNIT
            if _RATIONAL.match(node.atom):
                return self._rational(node)
            return node.atom
        items = node.items
        if not items or not items[0].is_atom:
            raise _err(node, "expected a value")
        head = items[0].atom
        if head == "pair" and len(items) == 3:
            return (self._value(items[1]), self._value(items[2]))
        if head == "inl" and len(items) == 2:
            return Tag(0, self._value(items[1]))
        if head == "inr" and len(items) == 2:
            return Tag(1, self._value(items[1]))
        if head == "vec":
            return tuple(self._rational(i) for i in items[1:])
        raise _err(node, f"unknown value form `{head}`")

    def _rational(self, node):
        text = _need_atom(node, "a rational")
        m = _RATIONAL.match(text)
        if not m:
            raise _err(node, f"expected a rational, found `{text}`")
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:  # past the interpreter's limit on digits per integer
            raise _err(node, f"`{text[:16]}...` has too many digits") from None
        if not den:
            raise _err(node, f"`{text}` has a zero denominator")
        return Fraction(num, den)

    def _rows(self, where, nodes, fwd, carrier, what):
        """Arrow rows (V -> V) as a total table fwd -> carrier."""
        table = {}
        for node in nodes:
            items = _need_list(node, "a row")
            if len(items) != 3 or not items[1].is_atom or items[1].atom != "->":
                raise _err(node, "expected a row (value -> value)")
            key = self._value(items[0])
            if key not in fwd:
                raise _err(items[0], f"{format_sexpr(items[0])} is not in the domain")
            if key in table:
                raise _err(items[0], f"duplicate row for {format_sexpr(items[0])}")
            val = self._value(items[2])
            if not carrier_contains(carrier, val):
                raise _err(items[2], f"{format_value(val)} is outside the {what}")
            table[key] = val
        for x in fwd:
            if x not in table:
                raise _err(where, f"missing row for {_written(x)}")
        return total_fn(fwd, carrier, table)

    # -- sets, carriers, disets ---------------------------------------------

    def _form_set(self, form, items):
        if len(items) != 3:
            raise _err(form, "expected (set NAME elements-or-constructor)")
        name = _need_atom(items[1], "a set name")
        body = _need_list(items[2], "set elements or a constructor")
        if body and body[0].is_atom and body[0].atom in ("sum", "prod"):
            if len(body) != 3:
                raise _err(items[2], f"expected ({body[0].atom} A B)")
            a = self._lookup(body[1], "set")
            b = self._lookup(body[2], "set")
            build = coproduct_set if body[0].atom == "sum" else product_set
            value = self._engine(items[2], build, a, b)
        else:
            for e in body:
                text = _need_atom(e, "an element name")
                if _RATIONAL.match(text) or text == "*":
                    raise _err(e, f"`{text}` is reserved and cannot name an element")
            value = self._engine(
                items[2], make_set, tuple(e.atom for e in body)
            )
        self._declare(items[1], "set", name, value)

    def _carrier(self, node):
        if node.is_atom:
            return self._lookup(node, "set")
        items = node.items
        if len(items) == 2 and items[0].is_atom and items[0].atom == "real":
            return Payoff(_need_count(items[1], "a dimension", "a payoff dimension"))
        raise _err(node, "expected a set name, `unit` or (real N)")

    def _form_diset(self, form, items):
        if len(items) != 4:
            raise _err(form, "expected (diset NAME SET CARRIER)")
        name = _need_atom(items[1], "a diset name")
        d = Diset(self._lookup(items[2], "set"), self._carrier(items[3]))
        self._declare(items[1], "diset", name, d)

    def _diset(self, node):
        if node.is_atom:
            return self._lookup(node, "diset")
        items = node.items
        if not items or not items[0].is_atom:
            raise _err(node, "expected a diset")
        head = items[0].atom
        if head == "diset" and len(items) == 3:
            return Diset(self._lookup(items[1], "set"), self._carrier(items[2]))
        if head == "tensor" and len(items) == 3:
            return diset_tensor(self._diset(items[1]), self._diset(items[2]))
        raise _err(node, f"unknown diset form `{head}`")

    # -- payoff tables ------------------------------------------------------

    def _form_payoff(self, form, items):
        if len(items) < 4:
            raise _err(form, "expected (payoff NAME (SETS) DIM ROWS)")
        name = _need_atom(items[1], "a payoff name")
        doms = [self._lookup(s, "set") for s in _need_list(items[2], "domain sets")]
        dim = _need_count(items[3], "a dimension", "a payoff dimension")
        dom_set = nested_product(doms)
        table = {}
        for row in items[4:]:
            parts = _need_list(row, "a payoff row")
            if len(parts) != 3 or not parts[1].is_atom or parts[1].atom != "->":
                raise _err(row, "expected a row ((elements) -> (rationals))")
            lhs = _need_list(parts[0], "a profile")
            if len(lhs) != len(doms):
                raise _err(parts[0], f"expected {len(doms)} elements")
            vals = []
            for e, s in zip(lhs, doms):
                v = self._value(e)
                if v not in s:
                    raise _err(e, f"{format_sexpr(e)} is not in the domain")
                vals.append(v)
            key = nest_value(tuple(vals))
            if key in table:
                raise _err(parts[0], f"duplicate row for {_flat_row(vals)}")
            rhs = _need_list(parts[2], "a payoff vector")
            if len(rhs) != dim:
                raise _err(parts[2], f"expected {dim} rationals")
            table[key] = tuple(self._rational(q) for q in rhs)
        for x in dom_set:
            if x not in table:
                raise _err(form, f"missing row for {_flat_row(flatten_value(x, len(doms)))}")
        fn = total_fn(dom_set, Payoff(dim), table)
        self._declare(items[1], "payoff", name, fn)

    # -- lenses -------------------------------------------------------------

    def _form_lens(self, form, items):
        if len(items) != 3:
            raise _err(form, "expected (lens NAME LENS)")
        name = _need_atom(items[1], "a lens name")
        self._declare(items[1], "lens", name, self._lens(items[2]))

    def _lens(self, node):
        if node.is_atom:
            return self._lookup(node, "lens")
        items = node.items
        if not items or not items[0].is_atom:
            raise _err(node, "expected a lens")
        head = items[0].atom
        if head == "id" and len(items) == 2:
            return lens_identity(self._diset(items[1]))
        if head == "compose" and len(items) >= 3:
            acc = self._lens(items[1])
            for part in items[2:]:
                acc = self._engine(part, lens_compose, acc, self._lens(part))
            return acc
        if head == "tensor" and len(items) == 3:
            return lens_tensor(self._lens(items[1]), self._lens(items[2]))
        if head in ("assoc", "unassoc") and len(items) == 4:
            build = assoc_lens if head == "assoc" else unassoc_lens
            return build(*(self._diset(i) for i in items[1:]))
        if head == "swap" and len(items) == 3:
            return swap_lens(self._diset(items[1]), self._diset(items[2]))
        if head in ("lunit", "lunit-inv", "runit", "runit-inv") and len(items) == 2:
            build = {
                "lunit": lunit_lens,
                "lunit-inv": lunit_inv_lens,
                "runit": runit_lens,
                "runit-inv": runit_inv_lens,
            }[head]
            return build(self._diset(items[1]))
        if head == "counit" and len(items) == 2:
            return counit_lens(self._lookup(items[1], "set"))
        if head == "effect" and len(items) >= 2:
            d = self._diset(items[1])
            k = self._rows(node, items[2:], d.forward, d.backward, "backward carrier")
            return effect_lens(d, k)
        raise _err(node, f"unknown lens form `{head}`")

    # -- games and expressions ----------------------------------------------

    def _form_game(self, form, items):
        if len(items) != 3:
            raise _err(form, "expected (game NAME FORM)")
        name = _need_atom(items[1], "a game name")
        body = _need_list(items[2], "a game form")
        if not body or not body[0].is_atom:
            raise _err(items[2], "expected a game form")
        head = body[0].atom
        if head == "decision" and len(body) == 3:
            game = self._engine(
                items[2],
                decision,
                self._lookup(body[1], "set"),
                self._lookup(body[2], "set"),
            )
        elif head == "copy-decision" and len(body) >= 2:
            sets = [self._lookup(s, "set") for s in body[1:]]
            game = self._engine(items[2], copy_decision, sets)
        elif head == "utility" and len(body) == 2:
            game = utility_game(self._lookup(body[1], "payoff"))
        elif head == "unit" and len(body) == 2:
            game = unit_game(self._diset(body[1]))
        elif head == "trivial-lens" and len(body) == 2:
            game = trivial_game(self._lens(body[1]), label=name)
        else:
            raise _err(items[2], f"unknown game form `{head}`")
        game.label = name
        self._declare(items[1], "game", name, game)

    def _form_expr(self, form, items):
        if len(items) != 3:
            raise _err(form, "expected (expr NAME E)")
        name = _need_atom(items[1], "an expression name")
        expr = self._expr(items[2])
        self._declare(items[1], "expr", name, expr)

    def _expr(self, node) -> GameExpr:
        if node.is_atom:
            kind, value = self.doc.names.get(node.atom, (None, None))
            if kind == "game":
                return Atom(value)
            if kind == "expr":
                return value
            raise NameResolutionError(
                f"`{node.atom}` is not a game or expression", node.line, node.col
            )
        items = node.items
        if not items or not items[0].is_atom:
            raise _err(node, "expected an expression")
        head = items[0].atom
        if head == "seq" and len(items) == 3:
            expr = Seq(self._expr(items[1]), self._expr(items[2]))
        elif head == "tensor" and len(items) == 3:
            expr = Tensor(self._expr(items[1]), self._expr(items[2]))
        elif head == "product" and len(items) >= 2:
            expr = Product(tuple(self._expr(i) for i in items[1:]))
        else:
            raise _err(node, f"unknown expression form `{head}`")
        self._engine(node, eval_expr, expr)  # surface boundary mismatches here
        return expr

    def _form_continuation(self, form, items):
        if len(items) < 3:
            raise _err(form, "expected (continuation NAME EXPR ROWS)")
        name = _need_atom(items[1], "a continuation name")
        expr_name = _need_atom(items[2], "an expression name")
        kind, expr = self.doc.names.get(expr_name, (None, None))
        if kind != "expr":
            raise NameResolutionError(
                f"`{expr_name}` is not an expression", items[2].line, items[2].col
            )
        game = eval_expr(expr)
        k = self._rows(
            form, items[3:], game.dst.forward, game.dst.backward, "backward carrier"
        )
        self._declare(items[1], "continuation", name, (expr_name, k))

    # -- classical descriptions ---------------------------------------------

    def _choice_sets(self, node):
        return [self._lookup(s, "set") for s in _need_list(node, "choice sets")]

    def _classical(self, form, items, kind, build):
        if len(items) != 4:
            raise _err(form, "expected (NAME (SETS) PAYOFF)")
        name = _need_atom(items[1], "a name")
        sets = self._choice_sets(items[2])
        # A sequential chain nests one stage per player; a normal form keeps its bound too.
        if len(sets) > MAX_COMPOSITION:
            raise _err(form, f"composition depth {len(sets)} exceeds {MAX_COMPOSITION}")
        payoff = self._lookup(items[3], "payoff")
        if payoff.dom != nested_product(sets):
            raise _err(items[3], "payoff domain does not match the choice sets")
        if payoff.cod != Payoff(len(sets)):
            raise _err(items[3], f"payoff must land in Q^{len(sets)}")
        self._declare(items[1], kind, name, build(sets, lambda p: payoff(nest_value(p))))

    def _form_normal_form(self, form, items):
        self._classical(form, items, "normal-form", normal_form)

    def _form_sequential(self, form, items):
        self._classical(form, items, "sequential", sequential_game)

    def _form_extensive(self, form, items):
        if len(items) < 4:
            raise _err(form, "expected (extensive NAME PLAYERS TREE INFOSETS)")
        name = _need_atom(items[1], "a name")
        players = _need_count(items[2], "a player count", "a player count")
        root = self._tree_node(items[3])
        groups = []
        for node in items[4:]:
            parts = _need_list(node, "(infoset id id ...)")
            if len(parts) < 3 or not parts[0].is_atom or parts[0].atom != "infoset":
                raise _err(node, "expected (infoset id id ...)")
            groups.append(tuple(_need_atom(i, "a node id") for i in parts[1:]))
        game = self._engine(items[1], ExtensiveGame, root, players, tuple(groups))
        self._declare(items[1], "extensive", name, game)

    def _tree_node(self, node) -> TreeNode:
        items = _need_list(node, "a tree node")
        if not items or not items[0].is_atom:
            raise _err(node, "expected (node ...) or (leaf ...)")
        head = items[0].atom
        if head == "leaf" and len(items) == 3:
            node_id = _need_atom(items[1], "a node id")
            pay = tuple(self._rational(q) for q in _need_list(items[2], "payoffs"))
            return self._engine(node, TreeNode, node_id, None, pay, ())
        if head == "node" and len(items) >= 4:
            node_id = _need_atom(items[1], "a node id")
            player = _need_int(items[2], "a player number")
            children = []
            for branch in items[3:]:
                parts = _need_list(branch, "an action branch")
                if len(parts) != 2:
                    raise _err(branch, "expected (ACTION SUBTREE)")
                children.append(
                    (_need_atom(parts[0], "an action"), self._tree_node(parts[1]))
                )
            return self._engine(node, TreeNode, node_id, player, None, children)
        raise _err(node, f"unknown tree form `{head}`")


def parse_document(text: str) -> Document:
    return _Analyzer(parse_sexprs(text)).run()
