"""Span tracer that wraps lofo's public functions from outside the package.

``Tracer.install()`` replaces every public function of each layer module with
a wrapper that records a span (id, parent id, op id, name, start, duration,
self time), and rebinds it at every import site: ``lofo.harness``,
``lofo.cli`` and ``lofo.bounds`` bind ``lcd``, ``weighted_sum_dist``,
``q_exact``, ``solve_tau0``, ``dist_to_lattice`` and ``m_functional`` at
import, so patching the defining module alone would miss those calls.
``FiniteDist.__init__`` is wrapped too, since construction is where finite
laws sort and coalesce.

The characteristic-function evaluators, called once per quadrature node, are
timed in aggregate instead (no span each).  The lattice distance and the
threshold helpers, called once or more per LCD evaluation, are left alone:
wrapping them would slow the scan by about a third, so their time stays in
``lcd`` self time and ``lcd.n_evals`` counts them.  ``uninstall()`` restores
every binding.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("distributions", "concentration", "lcd", "bounds", "quadrature",
          "harness", "serialize", "cli")
AGGREGATE = {"distributions.weighted_cf", "distributions.cf_eval"}
SKIP = {"lcd.dist_to_lattice", "lcd.f_threshold", "lcd.log_plus_threshold"}


class Tracer:
    def __init__(self):
        self.spans = []                      # (id, parent, op, name, start, dur, self)
        self.aggregates = defaultdict(lambda: [0, 0.0])   # name -> [calls, seconds]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []                     # [span id, child seconds, name]
        self._next_id = 0
        self._patched = []                   # (owner, attribute, original)
        self._lcd_keys = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, post=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0, name]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, self.op, name, start, dur, dur - frame[1]))
            if post is not None:
                post(args, kwargs, result)
            return result
        return wrapper

    def _aggregate(self, name, fn):
        acc, stack, clock = self.aggregates[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            acc[0] += 1
            acc[1] += dur
            if stack:
                stack[-1][1] += dur
            return result
        return wrapper

    def _counted_quadrature(self, fn):
        counts = self.counts

        def adaptive_simpson(f, *args, **kwargs):
            def integrand(x):
                counts["quadrature.integrand_evals"] += 1
                return f(x)
            return fn(integrand, *args, **kwargs)
        return adaptive_simpson

    def wrap_op(self, kind, op_id, call):
        """Root span of one benchmark op; spans below it carry its op id."""
        wrapped = self._span(f"op.{kind}", call)

        def run():
            self.op = op_id
            try:
                return wrapped()
            finally:
                self.op = None
        return run

    # -- counters read off results ------------------------------------------

    def _on_lcd(self, signature):
        def post(args, kwargs, res):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            p = bound.arguments
            key = (p["a"].coords.tobytes(), p["L"], str(p["variant"]).lower(), p["tol"])
            self.counts["lcd.repeats"] += key in self._lcd_keys
            self._lcd_keys.add(key)
            self.counts["lcd.n_evals"] += res.n_evals
            self.counts["lcd.gaps"] += len(res.gaps)
        return post

    def _on_finitedist(self, args, kwargs, res):
        if any(frame[2] == "concentration.weighted_sum_dist" for frame in self._stack):
            peak = self.counts["concentration.peak_support_atoms"]
            self.counts["concentration.peak_support_atoms"] = max(peak, args[0].n_atoms)

    def _counter(self, name, amount):
        def post(args, kwargs, res):
            self.counts[name] += amount(args, kwargs, res)
        return post

    def _hooks(self, lcd_fn):
        def written(args, kwargs, res):
            return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
        return {
            "lcd.lcd": self._on_lcd(inspect.signature(lcd_fn)),
            "concentration.q_monte_carlo":
                self._counter("concentration.mc_samples", lambda a, k, r: r.sample_size),
            "bounds.solve_tau0":
                self._counter("bounds.tau0_iterations", lambda a, k, r: r.iterations),
            "serialize.write_canonical": self._counter("serialize.bytes_written", written),
        }

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: sys.modules[f"lofo.{layer}"] for layer in LAYERS}
        hooks = self._hooks(modules["lcd"].lcd)
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in SKIP:
                    continue
                if name in AGGREGATE:
                    wrappers[obj] = self._aggregate(name, obj)
                elif name == "quadrature.adaptive_simpson":
                    wrappers[obj] = self._span(name, self._counted_quadrature(obj))
                else:
                    wrappers[obj] = self._span(name, obj, hooks.get(name))
        finite = modules["distributions"].FiniteDist
        self._patch(finite, "__init__",
                    self._span("distributions.FiniteDist.__init__", finite.__init__,
                               self._on_finitedist))
        for modname, mod in list(sys.modules.items()):
            if modname != "lofo" and not modname.startswith("lofo."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def by_name(self):
        """name -> [calls, inclusive seconds, self seconds]."""
        out = {}
        for _, _, _, name, _, dur, self_s in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += self_s
        for name, (calls, secs) in self.aggregates.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += secs
            row[2] += secs
        return out
