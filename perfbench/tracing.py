"""Spans around calls into the engine's public functions, recorded from outside.

The tracer wraps the functions and methods listed in `TARGETS` without
touching the package source.  Engine modules import each other's names
directly (`from .lenses import apply_continuation`), so a function is
replaced in every `opengames.*` module namespace that binds it, not only
in its home module.  Methods and the `TotalFn` constructor are replaced
once on their class.

Spans are kept in flat arrays while the benchmark runs: op id, span name,
parent span, start and end in nanoseconds, plus one amount per span
(returned item count or source bytes).  When an op ends its spans are
folded into per-op totals: calls, inclusive time of outermost spans (`ms`,
which does not double count recursion) and self time (`self_ms`, a span's
duration minus its direct children's).  Once `keep` spans are held, the
spans of further ops are folded and then dropped, so memory and the file
`write` produces stay bounded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (metric prefix, module, attribute, amount) where attribute "Class.method"
# patches a method on the class, and "Class" patches the class constructor.
# Several targets may share one prefix; their spans count as one layer.
TARGETS = [
    ("games.OpenGame.best", "games", "OpenGame.best", None),
    ("games.game_states", "games", "game_states", None),
    ("lenses.left_context", "lenses", "left_context", None),
    ("lenses.right_context", "lenses", "right_context", None),
    ("lenses.apply_continuation", "lenses", "apply_continuation", None),
    ("lenses.lens_compose", "lenses", "lens_compose", None),
    ("lenses.lenses_equal", "lenses", "lenses_equal", None),
    ("finite.TotalFn", "finite", "TotalFn", None),
    ("finite.enumerate_functions", "finite", "enumerate_functions", "result_len"),
    ("expr.eval_expr", "expr", "eval_expr", None),
    ("expr.states_over", "expr", "states_over", None),
    ("expr.separable_states_over", "expr", "separable_states_over", None),
    ("solve.build_normal_form_expr", "solve", "build_normal_form_expr", None),
    ("solve.build_sequential_expr", "solve", "build_sequential_expr", None),
    ("dsl.parse_sexprs", "dsl", "parse_sexprs", None),
    ("dsl.parse_document", "dsl", "parse_document", "arg_len"),
    ("cli.main", "cli", "main", None),
    ("morphisms.check_morphism", "morphisms", "check_morphism", None),
    ("morphisms.morphisms_equal", "morphisms", "morphisms_equal", None),
] + [
    ("cells.cell_build", "cells", name, None)
    for name in (
        "seq_assoc_cell",
        "seq_lunit_cell",
        "seq_runit_cell",
        "unit_split_cell",
        "interchange_cell",
        "tensor_assoc_cell",
        "tensor_lunit_cell",
        "tensor_runit_cell",
        "symmetry_cell",
        "structure_cell",
    )
]

OP = "op"


class Tracer:
    def __init__(self, keep=200_000):
        self.names = [OP]
        self._name_ids = {OP: 0}
        self.op_of = array("i")
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.nested = bytearray()  # 1 if an enclosing span has the same name
        self._depth = [0]
        self._stack = []
        self._op = -1
        self._op_first = 0
        self.op_labels = []
        self.folded = []  # per op: {name: [calls, outer_ns, self_ns, amount]}
        self.keep = keep
        self.dropped_ops = 0

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.op_of.append(self._op)
        self.name_of.append(name_id)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._depth[name_id] else 0)
        self.amount.append(0)
        self.end.append(0)
        self._depth[name_id] += 1
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx, name_id):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[name_id] -= 1

    def begin_op(self, label):
        self._op = len(self.op_labels)
        self.op_labels.append(label)
        self._op_first = len(self.start)
        self._open(0)

    def end_op(self):
        """Close the op's root span, fold its spans, and drop them past the cap."""
        self._close(self._stack[-1], 0)
        self._op = -1
        first = self._op_first
        self.folded.append(self._fold(first))
        if len(self.start) > self.keep:
            for column in (self.op_of, self.name_of, self.parent_of, self.start,
                           self.end, self.amount, self.nested):
                del column[first:]
            self.dropped_ops += 1

    def wrap(self, fn, name, amount=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name_id)
            if amount == "result_len":
                tracer.amount[idx] = len(result)
            elif amount == "arg_len":
                tracer.amount[idx] = len(args[0])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch every binding of every target."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "opengames" or key.startswith("opengames.")
        ]
        for name, module_name, attr, amount in TARGETS:
            home = importlib.import_module(f"opengames.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, amount))
                continue
            obj = getattr(home, attr)
            if isinstance(obj, type):
                obj.__init__ = self.wrap(obj.__init__, name, amount)
                continue
            wrapper = self.wrap(obj, name, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is obj:
                        setattr(module, key, wrapper)

    # -- folding ----------------------------------------------------------

    def _fold(self, first):
        """{name: [calls, outer_ns, self_ns, amount]} over spans first.. of one op."""
        n = len(self.start) - first
        child_ns = [0] * n
        durations = [self.end[first + i] - self.start[first + i] for i in range(n)]
        for i in range(1, n):
            child_ns[self.parent_of[first + i] - first] += durations[i]
        out = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_of[first + i]], [0, 0, 0, 0])
            row[0] += 1
            if not self.nested[first + i]:
                row[1] += durations[i]
            row[2] += durations[i] - child_ns[i]
            row[3] += self.amount[first + i]
        return out

    def write(self, path):
        """Dump the kept spans as one JSON document: names, op labels, span rows."""
        rows = [
            [
                self.op_of[i],
                self.name_of[i],
                self.parent_of[i],
                self.start[i],
                self.end[i],
                self.amount[i],
            ]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["op", "name", "parent", "start_ns", "end_ns", "amount"],
                    "names": self.names,
                    "ops": self.op_labels,
                    "ops_dropped": self.dropped_ops,
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
