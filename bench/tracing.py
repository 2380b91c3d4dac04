"""Spans around the `fas` layers, for the benchmark's traced run only.

`Tracer.installed()` rebinds the public functions named in `HOOKS` in every
`fas` module that holds them (`fas.analytic.marcum_q1` and
`fas.validation.marcum_q1` alike) and restores them on exit; nothing under
`src/` is edited.  A span records name, start, end, parent span and op id in
flat arrays; they stay in memory until `dump` writes them out.  A layer's
self time is its spans' duration minus the time their child spans cover.
"""
from __future__ import annotations

import contextlib
import itertools
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _n_ports(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return int(config.n_ports)


def _count_mc_trials(tracer, args, kwargs, result):
    n = _n_ports(args, kwargs)
    settings = args[1] if len(args) > 1 else kwargs["settings"]
    tracer.counts["mc.trials"] += settings.trials
    tracer.counts[f"mc.trials.n{n}"] += settings.trials


def _count_skipped(tracer, args, kwargs, result):
    if result is None:
        tracer.counts["mc.plan_trials.skipped"] += 1


# (module, function, tag, after): a span per call; `tag` labels the span with
# an int (here the port count), `after` updates counters from the call.
HOOKS = (
    ("specfun", "marcum_q1", None, None),
    ("specfun", "inv_besselj0_envelope", None, None),
    ("analytic", "outage_exact", _n_ports, None),
    ("analytic", "outage_approx", None, None),
    ("bounds", "outage_upper_bound", None, None),
    ("channel", "correlation_profile", None, None),
    ("channel", "draw_channels_batch", None, None),
    ("channel", "envelope_trace", None, None),
    ("design", "min_size_frontier", None, None),
    ("design", "required_mu_and_size", None, None),
    ("design", "min_size", None, None),
    ("mc", "mc_outage_fas", _n_ports, _count_mc_trials),
    ("mc", "plan_trials", None, _count_skipped),
    ("validation", "run_validation", None, None),
)
# Called millions of times per design op at well under a microsecond each:
# counted, not spanned, and only in a counting round of their own
# (`installed(count_only=True)`), so that the counter's cost stays out of the
# span times.
COUNTED = (("bounds", "per_port_bound_factor"),)
# metrics read from Tracer.counts rather than from spans
COUNTERS = ({"analytic.quad.evals", "mc.trials", "mc.plan_trials.skipped",
             "cli.output_bytes"}
            | {f"{module}.{func}.calls" for module, func in COUNTED})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ticks: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, op: int, tag: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(op)
        self.tag.append(tag)
        self._stack.append(idx)
        return idx

    def _current_op(self) -> int:
        return self.op[self._stack[0]] if self._stack else -1

    def wrap(self, name: str, fn, tag=None, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(nid, self._current_op(),
                             tag(args, kwargs) if tag else -1)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after:
                after(self, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn):
        # itertools.count keeps the per-call cost to one C-level next();
        # the totals move into self.counts when the hooks are removed
        ticks = self._ticks.setdefault(name, itertools.count())

        def counted(*args, **kwargs):
            next(ticks)
            return fn(*args, **kwargs)

        return counted

    def counted_quad(self, fn):
        """scipy's quad as `fas.analytic` calls it, also counting integrand
        evaluations through its full_output report."""
        counts = self.counts

        def quad(*args, **kwargs):
            kwargs["full_output"] = 1
            result = fn(*args, **kwargs)
            counts["analytic.quad.evals"] += result[2]["neval"]
            return result[0], result[1]

        return quad

    def root(self, op: int, name: str, fn):
        """Run one op as a root span."""
        idx = self._open(self._name_id(name), op, -1)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    @contextlib.contextmanager
    def installed(self, count_only: bool = False):
        """Rebind the span hooks, or with `count_only` the COUNTED ones alone."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fas" or n.startswith("fas."))]
        wrappers = []
        if count_only:
            for module, func in COUNTED:
                wrappers.append((module, func,
                                 lambda fn, n=f"{module}.{func}.calls":
                                 self.count(n, fn)))
        else:
            for module, func, tag, after in HOOKS:
                wrappers.append((module, func,
                                 lambda fn, n=f"{module}.{func}", t=tag, a=after:
                                 self.wrap(n, fn, t, a)))
            wrappers.append(("analytic", "quad", self.counted_quad))
        restore = []
        try:
            for module, func, make in wrappers:
                home = sys.modules.get(f"fas.{module}")
                original = getattr(home, func, None)
                if original is None:
                    self.missing.append(f"{module}.{func}")
                    continue
                wrapped = make(original)
                for m in modules:
                    if getattr(m, func, None) is original:
                        setattr(m, func, wrapped)
                        restore.append((m, func, original))
            yield self
        finally:
            for m, func, original in reversed(restore):
                setattr(m, func, original)
            for name, ticks in self._ticks.items():
                self.counts[name] += next(ticks)
            self._ticks.clear()

    # ------------------------------------------------------------- results

    def arrays(self) -> dict:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return {"dur": dur, "self": dur - covered,
                "name": np.frombuffer(self.name, dtype=np.int32),
                "tag": np.frombuffer(self.tag, dtype=np.int32)}

    def dump(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32))


def layer_metrics(tracer: Tracer, names, overhead_pct: float) -> dict:
    """The value of each metric in `names`.  A metric of a hook that could not
    be installed is None; a per-call figure with no calls in this workload
    is 0."""
    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def where(name, tag=None):
        mask = a["name"] == ids.get(name, -1)
        return mask if tag is None else mask & (a["tag"] == tag)

    def value(name):
        layer, _, stat = name.rpartition(".")
        if name == "trace.overhead_pct":
            return overhead_pct
        if name in COUNTERS:
            return int(tracer.counts[name])
        if stat == "calls":
            return int(np.count_nonzero(where(layer)))
        if stat == "self_s":
            return float(np.sum(a["self"][where(layer)]))
        if stat == "us_per_call":
            mask = where(layer)
            return (float(np.sum(a["dur"][mask])) / mask.sum() * 1e6
                    if mask.any() else 0.0)
        if stat.startswith("ms_n"):
            durs = a["dur"][where(layer, int(stat[4:]))]
            return statistics.median(durs.tolist()) * 1e3 if durs.size else 0.0
        if stat.startswith("ns_per_trial_n"):
            n = int(stat[len("ns_per_trial_n"):])
            trials = tracer.counts[f"mc.trials.n{n}"]
            spent = float(np.sum(a["dur"][where("mc.mc_outage_fas", n)]))
            return spent / trials * 1e9 if trials else 0.0
        raise KeyError(f"no rule computes the per-layer metric {name!r}")

    values = {name: value(name) for name in names}
    for hook in tracer.missing:
        for name in names:
            if name.startswith(hook + "."):
                values[name] = None
    return values
