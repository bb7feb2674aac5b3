"""Per-layer tracing of peskit from outside the library.

``Tracer.install()`` replaces the public functions of each peskit layer
with timing wrappers, in every peskit module namespace that holds them
(``bench``, ``kernel_search``, ``nngp`` and ``circuit_search`` import
``maximize`` and ``log_marginal_likelihood`` by name), and on the kernel
classes for ``gram``. ``uninstall()`` puts the originals back. The library
itself is not edited.

Spans nest on one stack, so a span's self time is its duration minus the
time of the traced spans it called. The tracer keeps one stack and is meant
for cells run one after another (``threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from itertools import combinations


# (module, attribute, span name); "Class.method" attributes patch the class
TRACED = (
    ("peskit.bench", "load_dataset", "data.load_dataset"),
    ("peskit.bench", "_run_cell", "bench.cell"),
    ("peskit.optimizer", "maximize", "optimizer.maximize"),
    ("peskit.gp", "log_marginal_likelihood", "gp.log_marginal_likelihood"),
    ("peskit.gp", "fit", "gp.fit"),
    ("peskit.gp", "build_kernel_matrix", "gp.build_kernel_matrix"),
    ("peskit.gp", "predict", "gp.predict"),
    ("peskit.kernels", "ClassicalKernel.gram", "kernels.ClassicalKernel.gram"),
    ("peskit.nngp", "NNGPKernel.gram", "nngp.NNGPKernel.gram"),
    ("peskit.quantum", "QuantumKernel.gram", "quantum.QuantumKernel.gram"),
    ("peskit.quantum", "statevectors", "quantum.statevectors"),
    ("peskit.kernel_search", "search_classical", "kernel_search.search_classical"),
    ("peskit.nngp", "search_depth", "nngp.search_depth"),
    ("peskit.circuit_search", "screen", "circuit_search.screen"),
    ("peskit.circuit_search", "refine", "circuit_search.refine"),
    ("peskit.circuit_search", "search_circuit", "circuit_search.search_circuit"),
)

_MISSING = object()
FAIL_CLASSES = ("not_pd", "nonfinite", "arcsin", "other")
# spans inside which a GP fit counts as a search evaluation
_SEARCH_SPANS = ("optimizer.objective", "circuit_search.screen")


def pair_counts(layers, m):
    """Per-pair R_ZZ count vector of a layer sequence on m qubits."""
    index = {p: k for k, p in enumerate(combinations(range(m), 2))}
    counts = [0] * len(index)
    for layer in layers:
        for pair in layer:
            counts[index[tuple(sorted(pair))]] += 1
    return tuple(counts)


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Span timer and counters for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.failed_evals = dict.fromkeys(FAIL_CLASSES, 0)
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._search_depth = 0  # open spans named in _SEARCH_SPANS
        self._lml_error = None
        self._gp = self._optimizer = self._fit_jitter_default = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._stack.append(_Frame(name))
        if name in _SEARCH_SPANS:
            self._search_depth += 1
        return time.perf_counter()

    def _exit(self, t0):
        dt = time.perf_counter() - t0
        frame = self._stack.pop()
        if frame.name in _SEARCH_SPANS:
            self._search_depth -= 1
        self.calls[frame.name] += 1
        self.seconds[frame.name] += dt
        self.child_seconds[frame.name] += frame.child_s
        if self._stack:
            self._stack[-1].child_s += dt

    def self_seconds(self, name):
        return self.seconds[name] - self.child_seconds[name]


    # -- failure classes -----------------------------------------------------

    def classify(self, exc):
        if isinstance(exc, self._gp.NotPositiveDefiniteError):
            return "not_pd"
        if isinstance(exc, self._gp.KernelEvaluationError):
            return "nonfinite"
        if isinstance(exc, FloatingPointError):
            return "arcsin"
        return "other"

    def _wrap_objective(self, objective):
        sentinel_floor = self._optimizer.SENTINEL / 2

        def traced_objective(x):
            self._lml_error = None
            t0 = self._enter("optimizer.objective")
            try:
                value = objective(x)
            except Exception as exc:
                self.failed_evals[self.classify(exc)] += 1
                raise
            finally:
                self._exit(t0)
            v = float(value)
            if not math.isfinite(v):
                self.failed_evals["nonfinite"] += 1
            elif v <= sentinel_floor:
                # the objective swallowed a failure; class it by its cause
                self.failed_evals[self._lml_error or "other"] += 1
            return value

        return traced_objective

    # -- per-function hooks: before(args, kwargs) -> (args, kwargs) and
    # after(args, kwargs, result), keyed by span name

    def _before_maximize(self, args, kwargs):
        if args:
            return (self._wrap_objective(args[0]),) + tuple(args[1:]), kwargs
        return args, dict(kwargs, objective=self._wrap_objective(kwargs["objective"]))

    def _after_maximize(self, args, kwargs, result):
        self.counts["optimizer.logged_evals"] += len(result.values)

    def _before_fit(self, args, kwargs):
        if not self._search_depth:
            self.counts["gp.fit.outside_objective"] += 1
        return args, kwargs

    def _after_fit(self, args, kwargs, result):
        requested = kwargs.get("jitter", args[5] if len(args) > 5
                               else self._fit_jitter_default)
        if result.jitter > requested:
            self.counts["gp.jitter_escalations"] += 1

    def _before_screen(self, args, kwargs):
        candidates, data = args[0], args[1]
        seen, scored = set(), []
        for c in candidates:  # screen scores each unrefined layer string once
            if c.layers not in seen:
                seen.add(c.layers)
                if not c.refined:
                    scored.append(c)
        m = data.X.shape[1]
        self.counts["circuit_search.screen.scored"] += len(scored)
        self.counts["circuit_search.screen.distinct"] += len(
            {pair_counts(c.layers, m) for c in scored})
        return args, kwargs

    def _before_refine(self, args, kwargs):
        beam, cfg = args[0], args[2]
        if cfg.refine_budget >= 1:
            self.counts["circuit_search.refine.optimized"] += sum(
                not c.refined for c in beam.candidates)
        return args, kwargs

    def _after_search_classical(self, args, kwargs, result):
        rows = result[2].rows
        self.counts["kernel_search.candidates"] += sum(r.n_candidates for r in rows)
        self.counts["kernel_search.iterations"] += len(rows)

    def _after_search_depth(self, args, kwargs, result):
        self.counts["nngp.depths_tried"] += len(result[2])

    def _after_search_circuit(self, args, kwargs, result):
        self.counts["circuit_search.iterations"] += len(result[2])

    def _hooks(self, name):
        before = {"optimizer.maximize": self._before_maximize,
                  "gp.fit": self._before_fit,
                  "circuit_search.screen": self._before_screen,
                  "circuit_search.refine": self._before_refine}.get(name)
        after = {"optimizer.maximize": self._after_maximize,
                 "gp.fit": self._after_fit,
                 "kernel_search.search_classical": self._after_search_classical,
                 "nngp.search_depth": self._after_search_depth,
                 "circuit_search.search_circuit": self._after_search_circuit,
                 }.get(name)
        return before, after

    def _wrap(self, fn, name):
        before, after = self._hooks(name)
        records_cause = name == "gp.log_marginal_likelihood"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            t0 = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if records_cause:
                    self._lml_error = self.classify(exc)
                raise
            finally:
                self._exit(t0)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Replace every traced function in every peskit namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._gp = importlib.import_module("peskit.gp")
        self._optimizer = importlib.import_module("peskit.optimizer")
        self._fit_jitter_default = inspect.signature(
            self._gp.fit).parameters["jitter"].default
        for module_name, attr, name in TRACED:
            cls, fn = _resolve(module_name, attr)
            wrapper = self._wrap(fn, name)
            if cls is not None:
                self._set(cls, attr.split(".")[1], fn, wrapper)
                continue
            for ns in peskit_modules():
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._set(ns, key, fn, wrapper)
        return self

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- report --------------------------------------------------------------

    def metrics(self, n_cells):
        """Per-layer metric values (name -> number) after a traced pass."""
        c, s = self.calls, self.seconds
        maximize_s = s["optimizer.maximize"]
        evals = c["optimizer.objective"]
        n_failed = sum(self.failed_evals.values())
        scored = self.counts["circuit_search.screen.scored"]
        out = {
            "optimizer.maximize.calls": c["optimizer.maximize"],
            "optimizer.maximize.s": maximize_s,
            "optimizer.evals": evals,
            "optimizer.objective.s": s["optimizer.objective"],
            "optimizer.self_s": self.self_seconds("optimizer.maximize"),
            "optimizer.self_share": _share(self.self_seconds("optimizer.maximize"),
                                           maximize_s),
            **{f"optimizer.failed_evals.{k}": v
               for k, v in self.failed_evals.items()},
            "optimizer.fail_ratio": _share(n_failed, evals),
            "gp.log_marginal_likelihood.calls": c["gp.log_marginal_likelihood"],
            "gp.log_marginal_likelihood.s": s["gp.log_marginal_likelihood"],
            "gp.fit.calls": c["gp.fit"],
            "gp.fit.s": s["gp.fit"],
            "gp.fit.self_s": self.self_seconds("gp.fit"),
            "gp.build_kernel_matrix.s": s["gp.build_kernel_matrix"],
            "gp.build_kernel_matrix.self_s": self.self_seconds("gp.build_kernel_matrix"),
            "gp.predict.calls": c["gp.predict"],
            "gp.predict.s": s["gp.predict"],
            "gp.jitter_escalations": self.counts["gp.jitter_escalations"],
            "gp.fit.outside_objective": _share(
                self.counts["gp.fit.outside_objective"], n_cells),
            "kernels.ClassicalKernel.gram.s": s["kernels.ClassicalKernel.gram"],
            "nngp.NNGPKernel.gram.s": s["nngp.NNGPKernel.gram"],
            "quantum.QuantumKernel.gram.s": s["quantum.QuantumKernel.gram"],
            "quantum.statevectors.calls": c["quantum.statevectors"],
            "quantum.statevectors.s": s["quantum.statevectors"],
            "kernel_search.search_classical.s": s["kernel_search.search_classical"],
            "kernel_search.candidates": self.counts["kernel_search.candidates"],
            "kernel_search.iterations": self.counts["kernel_search.iterations"],
            "nngp.search_depth.s": s["nngp.search_depth"],
            "nngp.depths_tried": self.counts["nngp.depths_tried"],
            "circuit_search.screen.calls": c["circuit_search.screen"],
            "circuit_search.screen.s": s["circuit_search.screen"],
            "circuit_search.screen.scored": scored,
            "circuit_search.screen.distinct":
                self.counts["circuit_search.screen.distinct"],
            "circuit_search.screen.distinct_ratio": _share(
                self.counts["circuit_search.screen.distinct"], scored),
            "circuit_search.refine.calls": c["circuit_search.refine"],
            "circuit_search.refine.s": s["circuit_search.refine"],
            "circuit_search.refine.optimized":
                self.counts["circuit_search.refine.optimized"],
            "circuit_search.iterations": self.counts["circuit_search.iterations"],
            "bench.cell.self_s": self.self_seconds("bench.cell"),
            "data.load_dataset.s": s["data.load_dataset"],
        }
        return out


def _share(num, den):
    return float(num) / den if den else 0.0


def peskit_modules():
    """The peskit package and its loaded submodules."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "peskit" or n.startswith("peskit."))]


def _resolve(module_name, attr):
    """(class or None, function) named by a TRACED entry, unwrapped."""
    module = importlib.import_module(module_name)
    cls = None
    if "." in attr:
        cls_name, attr = attr.split(".")
        cls = getattr(module, cls_name)
        fn = cls.__dict__[attr]
    else:
        fn = getattr(module, attr)
    if getattr(fn, "__wrapped_by_tracer__", False):
        fn = fn.__wrapped__
    return cls, fn


def unwrapped_references():
    """(namespace, attribute) pairs that still hold an untraced original.

    Call after ``Tracer.install()``; an empty list means every call into a
    traced function goes through its wrapper.
    """
    originals = {id(fn): fn for _, fn in (_resolve(m, a) for m, a, _ in TRACED)}
    found = []
    for ns in peskit_modules():
        for key, value in vars(ns).items():
            if originals.get(id(value), _MISSING) is value:
                found.append((ns.__name__, key))
            elif inspect.isclass(value) and value.__module__ == ns.__name__:
                found += [(ns.__name__, f"{key}.{meth}")
                          for meth, fn in vars(value).items()
                          if originals.get(id(fn), _MISSING) is fn]
    return found
