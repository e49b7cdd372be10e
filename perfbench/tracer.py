"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions of each ramforge layer by
rebinding every ``ramforge.*`` module attribute (and class attribute) that
refers to them, so calls made through ``from .x import f`` bindings are
seen as well.  `Tracer.uninstall` restores the originals.  ``src/`` is not
touched.

Spans are kept in memory as (id, name, start_ns, end_ns, parent, op,
self_ns, nested) and written as JSON lines by `Tracer.dump`.  A span's self
time is its duration minus the time covered by its child spans; ``nested``
marks a span that runs inside another span of the same name, so inclusive
totals count each interval once.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, attribute, span name) for module-level public functions.
FUNCTIONS = (
    ("ramforge.astower", "as_reduce_K", "astower.reduce_K"),
    ("ramforge.astower", "as_reduce_F", "astower.reduce_F"),
    ("ramforge.ramcalc", "upper_to_lower", "ramcalc"),
    ("ramforge.ramcalc", "lower_to_upper", "ramcalc"),
    ("ramforge.ramcalc", "compose_disjoint", "ramcalc"),
    ("ramforge.ramcalc", "fact1_resolve", "ramcalc"),
    ("ramforge.ramcalc", "parse_multiset", "ramcalc"),
    ("ramforge.pgroups.base", "tables", "pgroups.tables"),
    ("ramforge.pgroups.iso", "is_isomorphic", "pgroups.is_isomorphic"),
    ("ramforge.pgroups.analysis", "central_product", "pgroups.central_product"),
    ("ramforge.pgroups.analysis", "minimal_nonabelian_quotient", "pgroups.minimal_nonabelian_quotient"),
    ("ramforge.pgroups.analysis", "burnside_action_check", "pgroups.burnside_action_check"),
    ("ramforge.pgroups.analysis", "group_basics", "pgroups.group_basics"),
    ("ramforge.pgroups.analysis", "classify_minimal", "pgroups.classify_minimal"),
    ("ramforge.forge", "build_p3_tower", "forge.build"),
    ("ramforge.forge", "derive_nonint", "forge.build"),
    ("ramforge.forge", "derive_chat", "forge.build"),
    ("ramforge.forge", "parse_certificate", "forge.parse"),
    ("ramforge.forge", "verify_certificate", "forge.verify"),
    ("ramforge.cli", "main", "cli.main"),
)

# (module, class, attribute, span name) for methods; every class attribute
# bound to the same function (``__rmul__ = __mul__``) is rebound too.
METHODS = (
    ("ramforge.laurent", "LaurentSeries", "__mul__", "laurent.mul"),
    ("ramforge.laurent", "LaurentSeries", "__add__", "laurent.addsub"),
    ("ramforge.laurent", "LaurentSeries", "__sub__", "laurent.addsub"),
    ("ramforge.laurent", "LaurentSeries", "frobenius", "laurent.frobenius"),
    ("ramforge.forge", "Certificate", "render", "forge.render"),
    ("ramforge.pgroups.base", "TableGroup", "__init__", "pgroups.table_group"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        nested = self._depth[name] > 0
        self._depth[name] += 1
        self._stack.append([len(self.spans) + len(self._stack), name, perf_counter_ns(), 0, nested])

    def exit(self) -> None:
        end = perf_counter_ns()
        sid, name, start, child, nested = self._stack.pop()
        self._depth[name] -= 1
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.op, dur - child, nested))

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper that records one span per call.  ``before(args)`` runs
        before the span opens and its value is passed to
        ``after(tracer, args, result, state)``, which runs after it closes,
        so neither is charged to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer.exit()
            if after:
                after(tracer, args, result, state)
            return result

        return traced

    # -- installing wrappers ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ramforge" or n.startswith("ramforge.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, orig, *HOOKS.get(name, (None, None)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            wrapped = self.wrap(name, orig, *HOOKS.get(name, (None, None)))
            for key, value in list(cls.__dict__.items()):
                if value is orig:
                    self._rebind(cls, key, wrapped)
        base = sys.modules["ramforge.pgroups.base"].PGroup
        order = base.__dict__["order"]
        self._rebind(base, "order", property(self.wrap("pgroups.order", order.fget)))

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (each interval once) and
        self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _sid, name, start, end, _parent, _op, self_ns, nested in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_ns / 1e9
            if not nested:
                row["s"] += (end - start) / 1e9
        return dict(out)

    def covered_s(self, prefix: str, within: str) -> float:
        """Seconds covered by spans whose name starts with ``prefix`` and
        that run inside a span named ``within``, each interval once."""
        by_id = {span[0]: span for span in self.spans}

        def ancestors(span):
            parent = span[4]
            while parent is not None:
                up = by_id[parent]
                yield up[1]
                parent = up[4]

        total = 0
        for span in self.spans:
            if not span[1].startswith(prefix):
                continue
            names = list(ancestors(span))
            if any(n.startswith(prefix) for n in names):
                continue
            if within in names:
                total += span[3] - span[2]
        return total / 1e9

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "self_ns", "nested")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Counters read at span boundaries, keyed by span name: (before, after).


def _mul_after(tracer, args, result, state):
    for x in args:
        coeffs = getattr(x, "coeffs", None)
        if coeffs is not None:
            tracer.counts["laurent.mul.coeffs_in"] += len(coeffs)
            tracer.counts["laurent.mul.nonzero_in"] += len(coeffs) - coeffs.count(0)


def _witness_after(tracer, args, result, state):
    tracer.counts["astower.reduce_F.witness_terms"] += sum(
        len(c.coeffs) - c.coeffs.count(0) for c in result.witness.comps
    )


def _tables_before(args):
    return getattr(args[0], "_tables", None) is not None


def _tables_after(tracer, args, result, hit):
    if hit:
        tracer.counts["pgroups.tables.hits"] += 1
    else:
        tracer.counts["pgroups.tables.elements"] += result.n


def _render_after(tracer, args, result, state):
    tracer.counts["forge.cert_bytes"] += len(result.encode())


HOOKS = {
    "laurent.mul": (None, _mul_after),
    "astower.reduce_F": (None, _witness_after),
    "pgroups.tables": (_tables_before, _tables_after),
    "forge.render": (None, _render_after),
}
