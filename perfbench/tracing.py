"""Spans and counters recorded from outside galdesk.

`Tracer.install` replaces the public functions of each galdesk layer, and a
listed set of methods, with wrappers that record a span around the original:
name, start, end, the enclosing span and the op id.  A wrapped function is
rebound in every galdesk module that imported it by name, so calls made
inside galdesk are seen as well.  `Tracer.uninstall` puts the originals back.
Spans stay in memory until `write_spans` writes them out once.

A few hot helpers get no span of their own, and their time counts toward
their caller: the ffield constructors `normalize`, `eye`, `zeros` and
`inv_scalar`, and all PadicInt arithmetic, of which only multiplications are
counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import workloads
from galdesk import ffield, local_tame, padic_weights, padics, root_datum, scenarios, selmer

LAYERS = {
    "ffield": ffield,
    "selmer": selmer,
    "local_tame": local_tame,
    "padic_weights": padic_weights,
    "padics": padics,
    "root_datum": root_datum,
    "scenarios": scenarios,
}
SKIP_FUNCTIONS = {"ffield": {"normalize", "eye", "zeros", "inv_scalar"}}
METHODS = {
    "ffield": {"QuotientSpace": ("__init__", "coords", "coords_matrix")},
    "selmer": {
        "FiniteGroupAction": ("__post_init__",),
        "SelmerSystem": ("__post_init__", "reciprocity_holds", "exactness_holds",
                         "block_pairing", "stacked_res", "stacked_res_dual"),
        "ConditionAssignment": ("__post_init__", "l_perp", "replaced"),
    },
    "local_tame": {
        "TameGaloisModule": ("__post_init__", "dual_twist", "twisted"),
        "H1Space": ("class_coords", "cocycle_from_coords"),
    },
    "padic_weights": {
        "TruncatedSeries": ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__",
                            "scale", "inverse", "divide", "specialize_to_axis",
                            "dual_reduction"),
        "DichotomyFamily": ("__post_init__",),
    },
    "root_datum": {"RootDatum": ("all_roots",),
                   "TorusElement": ("__post_init__", "root_value")},
}
# Method spans that take the name the per-layer metrics use for them.
RENAMED = {
    "selmer.FiniteGroupAction.__post_init__": "selmer.group_enum",
    "padic_weights.TruncatedSeries.__mul__": "padic_weights.series_mul",
    "padic_weights.TruncatedSeries.inverse": "padic_weights.series_inverse",
}
STEP_SPANS = {"selmer.annihilation_step", "selmer.avoidance_step"}
SELMER_SPANS = {"selmer.selmer", "selmer.dual_selmer"}


def _shape_cells(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape)) if len(shape) == 2 else 0


def _module_key(m) -> tuple:
    return (m.p, m.q, m.twist, m.phi.tobytes(), m.tau.tobytes())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.max_cells = 0
        self.h1_modules: set = set()
        self.ops: list[tuple[int, float]] = []  # (op id, wall seconds)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            record = [name, stack[-1] if stack else -1, self.op, clock(), 0.0]
            spans.append(record)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()
            return out if after is None else after(out, args)

        return traced

    def _count_only(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op_id, fn):
        self.op = op_id
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.ops.append((op_id, time.perf_counter() - t0))
            self.op = -1

    # -- hooks for the counters the span list cannot give -------------------------

    def _rref_cells(self, args, kwargs):
        cells = _shape_cells(args[0])
        self.counts["ffield.rref.cells"] += cells
        self.max_cells = max(self.max_cells, cells)

    def _subspace_draw(self, args, kwargs):
        dim = args[2] if len(args) > 2 else kwargs.get("dim")
        if dim:
            self.counts["ffield.sampling.accepted"] += 1

    def _invertible_draw(self, args, kwargs):
        self.counts["ffield.sampling.accepted"] += 1

    def _matrix_draw(self, args, kwargs):
        self.counts["ffield.sampling.drawn"] += 1

    def _group_order(self, out, args):
        self.counts["selmer.group_order.sum"] += args[0].order
        return out

    def _h1_module(self, args, kwargs):
        self.h1_modules.add((self.op, _module_key(args[0])))

    def _counted_pairing(self, pair, args):
        q = args[0].q
        counts = self.counts

        def counted(x, y):
            counts["local_tame.pair_evals"] += 1
            counts["local_tame.pair_q_steps"] += q
            return pair(x, y)

        return counted

    def _verdict(self, out, args):
        if isinstance(out, padic_weights.Undetermined):
            self.counts["padic_weights.undetermined"] += 1
        return out

    # -- installing ------------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        hooks = {
            "ffield.rref": (self._rref_cells, None),
            "ffield.random_subspace": (self._subspace_draw, None),
            "ffield.random_invertible": (self._invertible_draw, None),
            "ffield.random_matrix": (self._matrix_draw, None),
            "selmer.group_enum": (None, self._group_order),
            "local_tame.h1_space": (self._h1_module, None),
            "local_tame.tate_pairing": (None, self._counted_pairing),
            "padic_weights.constancy_test": (None, self._verdict),
        }
        galdesk_modules = [m for k, m in sys.modules.items() if k.startswith("galdesk.")]
        for layer, mod in LAYERS.items():
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__) \
                        or attr.startswith("_") or attr in SKIP_FUNCTIONS.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                if name == "selmer.finite_cohomology":
                    wrapped = self._by_degree(fn)
                else:
                    wrapped = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for user in galdesk_modules:
                    if vars(user).get(attr) is fn:
                        self._replace(user, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    name = f"{layer}.{cls_name}.{attr}"
                    name = RENAMED.get(name, name)
                    self._replace(cls, attr, self.wrap(name, vars(cls)[attr],
                                                       *hooks.get(name, (None, None))))
        self._replace(workloads, "render", self.wrap("scenarios.render", workloads.render))
        for attr in ("__mul__", "__rmul__"):
            self._replace(padics.PadicInt, attr,
                          self._count_only("padics.mul.calls", vars(padics.PadicInt)[attr]))

    def _by_degree(self, fn):
        per_degree = {d: self.wrap(f"selmer.finite_cohomology.h{d}", fn) for d in (0, 1, 2)}

        @functools.wraps(fn)
        def dispatch(g, degree):
            return per_degree.get(degree, fn)(g, degree)

        return dispatch

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- reading -----------------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, totals divided by the number of passes, as
        {name: (value, unit)}; shares, ratios and maxima are over all passes."""
        child = [0.0] * len(self.spans)
        for name, parent, op, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        for (name, parent, op, t0, t1), inner in zip(self.spans, child):
            self_s[name] += t1 - t0 - inner
            total_s[name] += t1 - t0
            calls[name] += 1
            if parent < 0 and op >= 0:
                top_level += t1 - t0
        op_s = sum(w for _, w in self.ops)

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix + "."))

        def names(table, keys):
            return sum(table[k] for k in keys)

        c = self.counts
        ff_self = layer("ffield", self_s)
        h1_calls = calls["local_tame.h1_space"]
        per_pass = {
            "ffield.calls": (layer("ffield", calls), "count"),
            "ffield.self_s": (ff_self, "s"),
            "ffield.rref.calls": (calls["ffield.rref"], "count"),
            "ffield.rref.self_s": (self_s["ffield.rref"], "s"),
            "ffield.rref.cells": (c["ffield.rref.cells"], "count"),
            "selmer.group_enum.self_s": (self_s["selmer.group_enum"], "s"),
            "selmer.group_order.sum": (c["selmer.group_order.sum"], "count"),
            "selmer.finite_cohomology.h0_s": (total_s["selmer.finite_cohomology.h0"], "s"),
            "selmer.finite_cohomology.h1_s": (total_s["selmer.finite_cohomology.h1"], "s"),
            "selmer.finite_cohomology.h2_s": (total_s["selmer.finite_cohomology.h2"], "s"),
            "selmer.selmer.self_s": (names(self_s, SELMER_SPANS), "s"),
            "selmer.steps.self_s": (names(self_s, STEP_SPANS), "s"),
            "selmer.build.self_s": (sum(v for k, v in self_s.items()
                                        if k.startswith("selmer.build_")
                                        or k == "selmer.random_conditions"), "s"),
            "local_tame.pairing_gram.calls": (calls["local_tame.pairing_gram"], "count"),
            "local_tame.pairing_gram.self_s": (self_s["local_tame.pairing_gram"], "s"),
            "local_tame.pair_evals": (c["local_tame.pair_evals"], "count"),
            "local_tame.pair_q_steps": (c["local_tame.pair_q_steps"], "count"),
            "local_tame.h1_space.calls": (h1_calls, "count"),
            "local_tame.cohomology_dims.self_s": (self_s["local_tame.cohomology_dims"], "s"),
            "local_tame.annihilator_subspace.self_s":
                (self_s["local_tame.annihilator_subspace"], "s"),
            "padic_weights.passage_dichotomy.self_s":
                (self_s["padic_weights.passage_dichotomy"], "s"),
            "padic_weights.series_mul.calls": (calls["padic_weights.series_mul"], "count"),
            "padic_weights.series_mul.self_s": (self_s["padic_weights.series_mul"], "s"),
            "padic_weights.series_inverse.calls":
                (calls["padic_weights.series_inverse"], "count"),
            "padic_weights.series_inverse.self_s":
                (self_s["padic_weights.series_inverse"], "s"),
            "padic_weights.constancy_test.calls":
                (calls["padic_weights.constancy_test"], "count"),
            "padic_weights.undetermined": (c["padic_weights.undetermined"], "count"),
            "padics.mul.calls": (c["padics.mul.calls"], "count"),
            "scenarios.run_scenario_payload.self_s":
                (self_s["scenarios.run_scenario_payload"], "s"),
            "scenarios.render_s": (total_s["scenarios.render"], "s"),
            "root_datum.self_s": (layer("root_datum", self_s), "s"),
        }
        out = {k: (v / passes, unit) for k, (v, unit) in per_pass.items()}
        drawn = c["ffield.sampling.drawn"]
        out.update({
            "ffield.share": (ff_self / op_s if op_s else 0.0, "share"),
            "ffield.rref.max_cells": (self.max_cells, "count"),
            "ffield.sampling.accept_ratio":
                (c["ffield.sampling.accepted"] / drawn if drawn else 0.0, "ratio"),
            "local_tame.h1_space.recompute_ratio":
                (h1_calls / len(self.h1_modules) if self.h1_modules else 0.0, "ratio"),
            "trace.coverage": (top_level / op_s if op_s else 0.0, "share"),
        })
        return out

    def write_spans(self, path, header: list[str]):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for line in header:
                out.write(line + "\n")
            for sid, (name, parent, op, t0, t1) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                      "start": t0, "end": t1}) + "\n")
