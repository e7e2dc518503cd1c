"""Per-layer tracing from outside realcomp.

`Tracer.install` replaces each listed public function, at the module
attribute through which cli, the other modules and the benchmark call
it, by a wrapper that records a span (name, start, end, parent, op id)
and the counts its arguments and result show.  Spans stay in memory;
self time is a span's duration minus the durations of its direct
children.  `uninstall` puts the originals back.

A wrap point whose name has gone (say after a refactor) is an error, as
is a layer the workload must reach that recorded nothing: either would
otherwise read as a layer that costs zero.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter_ns


class TraceError(RuntimeError):
    pass


def _bits(q) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


# (module, attribute, span name or None for a count-only wrap, hook name)
WRAPS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_spec", "speclang.parse", "on_parse"),
    ("oracle", "expr_to_machine", "oracle.compile", "on_compile"),
    ("cli", "expr_to_machine", "oracle.compile", "on_compile"),
    ("relation", "expr_to_machine", "oracle.compile", "on_compile"),
    ("machine", "refine", "machine.refine", "on_refine"),
    ("cli", "refine", "machine.refine", "on_refine"),
    ("oracle", "refine", "machine.refine", "on_refine"),
    ("relation", "refine", "machine.refine", "on_refine"),
    ("prob", "refine", "machine.refine", "on_refine"),
    ("machine", "domain_neighborhood", "machine.domain", "on_domain"),
    ("cli", "domain_neighborhood", "machine.domain", "on_domain"),
    ("oracle", "apply_machine", None, "on_apply"),
    ("relation", "enumerate_witnesses", "relation.enumerate", None),
    ("cli", "enumerate_witnesses", "relation.enumerate", None),
    ("relation", "member_semi", "relation.member", None),
    ("cli", "member_semi", "relation.member", None),
    ("relation", "witness", None, "on_witness"),
    ("cli", "outcome_mass", "prob.mass", "on_mass"),
    ("cli", "empirical_frequency", "prob.freq", None),
    ("cli", "sample", "prob.sample", None),
    ("prob", "select_index", None, "on_draw"),
    ("natrel", "relation_by_name", None, "on_relation"),
    ("natrel", "equivalence_report", "natrel.report", "on_report"),
]

# Spans and counts each workload must record; zero means a wrap missed.
REQUIRED = {
    "deep": ["machine.refine", "oracle.compile"],
    "spec_mix": ["cli.main", "speclang.parse", "oracle.compile", "machine.refine",
                 "machine.domain", "relation.enumerate", "relation.member",
                 "prob.mass", "prob.freq", "prob.sample", "draws", "indices"],
    "semidecide": ["machine.refine", "machine.domain", "oracle.compile",
                   "relation.member", "natrel.report", "asks", "inner_refines",
                   "indices", "char_calls"],
}

# (metric, unit, better); the per-layer metrics, in report order.
METRICS = [
    ("machine.refine_s", "s", "lower"),
    ("machine.refine_calls", "count", "lower"),
    ("machine.steps", "count", "lower"),
    ("machine.node_queries", "count", "lower"),
    ("machine.ns_per_node_query", "ns", "lower"),
    ("machine.converged_ratio", "ratio", "higher"),
    ("machine.wasted_steps", "count", "lower"),
    ("oracle.tree_nodes", "count", "lower"),
    ("oracle.dag_nodes", "count", "lower"),
    ("oracle.compile_s", "s", "lower"),
    ("oracle.compile_calls", "count", "lower"),
    ("oracle.asks", "count", "lower"),
    ("oracle.inner_refines", "count", "lower"),
    ("oracle.memo_hit_ratio", "ratio", "higher"),
    ("rational.max_bits", "bits", "lower"),
    ("rational.mean_bits", "bits", "lower"),
    ("speclang.parse_s", "s", "lower"),
    ("speclang.calls", "count", "lower"),
    ("speclang.bytes", "B", "lower"),
    ("speclang.bytes_per_s", "B/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("relation.enumerate_s", "s", "lower"),
    ("relation.member_s", "s", "lower"),
    ("relation.indices", "count", "lower"),
    ("relation.refines", "count", "lower"),
    ("relation.distinct_machines", "count", "lower"),
    ("relation.witness_ratio", "ratio", "higher"),
    ("prob.mass_s", "s", "lower"),
    ("prob.freq_s", "s", "lower"),
    ("prob.sample_s", "s", "lower"),
    ("prob.draws", "count", "lower"),
    ("prob.refines", "count", "lower"),
    ("prob.settled_ratio", "ratio", "higher"),
    ("natrel.report_s", "s", "lower"),
    ("natrel.pairs", "count", "lower"),
    ("natrel.char_calls", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "higher"),
]
TIMED_UNITS = {"s", "ns", "1/s", "B/s"}
UNITS = {name: unit for name, unit, _ in METRICS}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, rc):
        self.rc = rc
        self._installed = []
        self.spans = []  # (name, start ns, end ns, parent index, op id)
        self._stack = []
        self.reset()

    def reset(self):
        """Forget what was recorded; installed wraps keep recording."""
        self.spans.clear()
        self._stack.clear()
        self.op = -1
        self.counts = Counter()
        self.bits = []
        self.settled = []
        self._tree = {}
        self._keep = []
        self._rel_machines = set()

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, ident: int):
        self.op = ident

    def end_op(self):
        self.counts["distinct_machines"] += len(self._rel_machines)
        self._rel_machines.clear()
        self._tree.clear()
        self._keep.clear()

    # -- installing ----------------------------------------------------------

    def install(self):
        for module_name, attr, span, hook in WRAPS:
            module = getattr(self.rc, module_name, None)
            original = getattr(module, attr, None)
            if original is None:
                raise TraceError(f"wrap point realcomp.{module_name}.{attr} is gone")
            hook_fn = getattr(self, hook) if hook else None
            setattr(module, attr, self._wrap(original, span, hook_fn, module_name))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span, hook, site):
        if span is None:
            def counted(*args, **kwargs):
                return hook(site, args, kwargs, fn(*args, **kwargs))
            return counted

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            if hook is not None:
                result = hook(site, args, kwargs, result)
            return result

        return traced

    # -- hooks: counts read from arguments and results ---------------------

    def on_parse(self, site, args, kwargs, result):
        self.counts["bytes"] += len(args[0].encode("utf-8"))
        return result

    def on_compile(self, site, args, kwargs, result):
        tree, dag = self.expr_sizes(args[0] if args else kwargs["expr"])
        self.counts["tree_nodes"] += tree
        self.counts["dag_nodes"] += dag
        self._tree[id(result)] = tree
        self._keep.append(result)
        return result

    def _machine_nodes(self, machine) -> int:
        try:
            return self._tree[id(machine)]
        except KeyError:
            raise TraceError("a refined machine was not compiled through a "
                             "wrapped expr_to_machine") from None

    def on_refine(self, site, args, kwargs, result):
        machine = args[0]
        c = self.counts
        if hasattr(result, "steps"):
            steps = result.steps
            c["converged"] += 1
            self.bits.append(_bits(result.value))
            self.bits.append(_bits(result.accuracy))
        else:
            steps = result.steps_taken
            c["wasted_steps"] += steps
        c["steps"] += steps
        c["node_queries"] += steps * self._machine_nodes(machine)
        if site == "oracle":
            c["inner_refines"] += 1
        elif site == "relation":
            c["relation_refines"] += 1
            self._rel_machines.add(id(machine))
        elif site == "prob":
            c["prob_refines"] += 1
        return result

    def on_domain(self, site, args, kwargs, result):
        """Steps of domain_neighborhood: its boxes have width 4 * 2^-n at
        the n-th step (counting from 0), as its docstring documents."""
        c = self.counts
        if isinstance(result, list):
            width = result[0].hi - result[0].lo
            n = 2 + width.denominator.bit_length() - width.numerator.bit_length()
            steps = n + 1
            c["converged"] += 1
        else:
            steps = result.steps_taken
            c["wasted_steps"] += steps
        c["steps"] += steps
        c["node_queries"] += steps * self._machine_nodes(args[0])
        return result

    def on_apply(self, site, args, kwargs, oracle):
        counts = self.counts

        def ask(tolerance):
            counts["asks"] += 1
            return oracle(tolerance)

        return self.rc.oracle.RealOracle(ask, name=oracle.name)

    def on_witness(self, site, args, kwargs, result):
        self.counts["indices"] += 1
        if isinstance(result, self.rc.relation.WitnessEntry):
            self.counts["witness_entries"] += 1
        return result

    def on_mass(self, site, args, kwargs, result):
        self.settled.append(1 - result.unknown)
        return result

    def on_draw(self, site, args, kwargs, result):
        self.counts["draws"] += 1
        return result

    def on_relation(self, site, args, kwargs, rel):
        counts, char = self.counts, rel.char_fn

        def counted_char(x, y):
            counts["char_calls"] += 1
            return char(x, y)

        return dataclasses.replace(rel, char_fn=counted_char)

    def on_report(self, site, args, kwargs, result):
        self.counts["pairs"] += result.total
        return result

    # -- expression sizes ----------------------------------------------------

    def expr_sizes(self, expr) -> tuple:
        """(tree nodes, distinct structural subterms) of an expression DAG.

        Tree size counts shared subterms once per use, as a tree-walking
        compiler visits them; the distinct count is what hash-consing
        would keep.  Both are computed in time linear in the DAG.
        """
        real_expr = self.rc.oracle.RealExpr
        tree: dict = {}
        canon: dict = {}
        key_of: dict = {}
        todo = [(expr, False)]
        while todo:
            node, ready = todo.pop()
            if id(node) in tree:
                continue
            children = [getattr(node, f.name) for f in dataclasses.fields(node)]
            kids = [ch for ch in children if isinstance(ch, real_expr)]
            if not ready:
                todo.append((node, True))
                todo.extend((ch, False) for ch in kids if id(ch) not in tree)
                continue
            tree[id(node)] = 1 + sum(tree[id(ch)] for ch in kids)
            key = (type(node).__name__,) + tuple(
                ("e", key_of[id(ch)]) if isinstance(ch, real_expr) else ("v", ch)
                for ch in children)
            key_of[id(node)] = canon.setdefault(key, len(canon))
        return tree[id(expr)], len(canon)

    # -- metrics -------------------------------------------------------------

    def span_times(self) -> tuple:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), defaultdict(int), defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - covered
        to_s = lambda d: defaultdict(float, {k: v / 1e9 for k, v in d.items()})
        return calls, to_s(incl), to_s(own)

    def check_required(self, workload: str):
        calls, _, _ = self.span_times()
        missing = [name for name in REQUIRED[workload]
                   if calls[name] == 0 and self.counts[name] == 0]
        if missing:
            raise TraceError(f"no calls recorded for {', '.join(missing)} on "
                             f"{workload}: a wrap point is no longer reached")

    def metrics(self) -> dict:
        calls, incl, own = self.span_times()
        c = self.counts
        refine_calls = calls["machine.refine"] + calls["machine.domain"]
        refine_s = own["machine.refine"] + own["machine.domain"]
        return {
            "machine.refine_s": refine_s,
            "machine.refine_calls": refine_calls,
            "machine.steps": c["steps"],
            "machine.node_queries": c["node_queries"],
            "machine.ns_per_node_query": _ratio(refine_s * 1e9, c["node_queries"]),
            "machine.converged_ratio": _ratio(c["converged"], refine_calls),
            "machine.wasted_steps": c["wasted_steps"],
            "oracle.tree_nodes": c["tree_nodes"],
            "oracle.dag_nodes": c["dag_nodes"],
            "oracle.compile_s": incl["oracle.compile"],
            "oracle.compile_calls": calls["oracle.compile"],
            "oracle.asks": c["asks"],
            "oracle.inner_refines": c["inner_refines"],
            "oracle.memo_hit_ratio": _ratio(c["asks"] - c["inner_refines"], c["asks"]),
            "rational.max_bits": max(self.bits, default=0),
            "rational.mean_bits": _ratio(sum(self.bits), len(self.bits)),
            "speclang.parse_s": incl["speclang.parse"],
            "speclang.calls": calls["speclang.parse"],
            "speclang.bytes": c["bytes"],
            "speclang.bytes_per_s": _ratio(c["bytes"], incl["speclang.parse"]),
            "cli.self_s": own["cli.main"],
            "cli.calls": calls["cli.main"],
            "relation.enumerate_s": incl["relation.enumerate"],
            "relation.member_s": incl["relation.member"],
            "relation.indices": c["indices"],
            "relation.refines": c["relation_refines"],
            "relation.distinct_machines": c["distinct_machines"],
            "relation.witness_ratio": _ratio(c["witness_entries"], c["indices"]),
            "prob.mass_s": incl["prob.mass"],
            "prob.freq_s": incl["prob.freq"],
            "prob.sample_s": incl["prob.sample"],
            "prob.draws": c["draws"],
            "prob.refines": c["prob_refines"],
            "prob.settled_ratio": float(_ratio(sum(self.settled), len(self.settled))),
            "natrel.report_s": incl["natrel.report"],
            "natrel.pairs": c["pairs"],
            "natrel.char_calls": c["char_calls"],
        }
