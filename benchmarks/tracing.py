"""Per-layer spans and counters, taken by patching supent from outside.

``Tracer.installed()`` replaces the public functions of each supent module
(the names in its ``__all__``), the methods of the xoshiro generator, and
``numpy.linalg.eigvalsh``/``svd`` with wrappers that record a span: name,
start, end, parent span and op id.  A function is replaced under every name
that supent looks it up by, so ``bounds.binary_entropy`` (imported by value)
is covered as well as ``qmath.binary_entropy``.  Leaving the context restores
the originals, so untraced runs execute unmodified code.

Spans are kept in memory (``spans``) while ``keep_spans`` is true and written
out by the caller at the end of the run.  Every span, kept or not, adds to
per-name totals; a span's self time is its duration minus that of its child
spans.  Functions called once per objective point get no span of their own,
which keeps the tracing overhead down, and their time stays with the caller:
``binary_entropy`` calls are counted, ``f_upper_value`` and ``lower_value``
are left unwrapped, and objective points add to the totals without being
kept in ``spans``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from supent import bounds, cli, harness, optimize, qmath, states
from supent.rng import Xoshiro256StarStar

_MODULES = {"cli": cli, "harness": harness, "bounds": bounds, "optimize": optimize, "states": states, "qmath": qmath}

# Spans whose subtree defines a scoped self time: the self time of the
# named layer's spans nested inside them (the span itself included).
ROOTS = {"bounds.certify": "bounds", "harness.random_audit": "harness", "harness.dimension_sweep": "harness"}

# Called once per objective point from inside the objective span.
_UNSPANNED = {"bounds.f_upper_value", "bounds.lower_value"}

_RNG_METHODS = ("next_u64", "random", "randint", "gaussian", "complex_gaussian_matrix", "spawn")


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    return parts[1] if parts[0] == "supent" and len(parts) > 1 else "bench"


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "roots", "index")

    def __init__(self, name, layer, start, roots, index):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.roots = roots
        self.index = index


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[_Frame] = []
        self.spans: list[list] = []
        self.keep_spans = True
        self.op_id = None
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.scoped = defaultdict(float)
        self.counts = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def push(self, name: str, layer: str, keep: bool = True) -> _Frame:
        parent = self.stack[-1] if self.stack else None
        roots = parent.roots if parent is not None else ()
        if name in ROOTS:
            roots = roots + (name,)
        index = -1
        if keep and self.keep_spans:
            index = len(self.spans)
            # The nearest kept ancestor is the parent on record.
            for frame in reversed(self.stack):
                if frame.index >= 0:
                    break
            else:
                frame = None
            self.spans.append([name, 0.0, 0.0, frame.index if frame else -1, self.op_id])
        frame = _Frame(name, layer, self.clock(), roots, index)
        self.stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> None:
        end = self.clock()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        name = frame.name
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += own
        for root in frame.roots:
            if ROOTS[root] == frame.layer:
                self.scoped[root] += own
        if frame.index >= 0:
            record = self.spans[frame.index]
            record[1] = frame.start - self.origin
            record[2] = end - self.origin

    def span(self, name: str, fn, keep: bool = True):
        """``fn`` wrapped so that each call records a span called ``name``.

        With ``keep`` false the span adds to the totals but is not kept in
        ``spans``.
        """
        layer = name.split(".", 1)[0]
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = push(name, layer, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        return wrapper

    def take(self) -> dict:
        """Snapshot of the per-name totals and counters; resets them."""
        snap = {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "scoped": dict(self.scoped),
            "counts": dict(self.counts),
        }
        for table in (self.calls, self.total, self.self_time, self.scoped, self.counts):
            table.clear()
        return snap

    # -- wrappers with counters ---------------------------------------------

    def _eigvalsh(self, fn):
        spanned = self.span("qmath.eigvalsh", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            counts["qmath.eigvalsh.matrices"] += int(np.prod(arr.shape[:-2]))
            counts["qmath.eigvalsh.bytes"] += arr.nbytes
            return spanned(arr, *args, **kwargs)

        return wrapper

    def _shannon_entropy(self, fn):
        spanned = self.span("qmath.shannon_entropy", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            values = p.values if isinstance(p, qmath.Spectrum) else p
            counts["qmath.entropy.elements"] += np.size(values)
            return spanned(p, *args, **kwargs)

        return wrapper

    def _binary_entropy(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["qmath.entropy.elements"] += 2
            return fn(*args, **kwargs)

        return wrapper

    def _objective(self, f):
        # One span per objective point would dominate the kept spans, so
        # these only add to the totals.
        spanned = self.span(f"{_layer_of(f)}.objective", f, keep=False)
        counts = self.counts

        def counted(x):
            counts["optimize.evals"] += 1 if isinstance(x, float) else np.size(x)
            return spanned(x)

        return counted

    def _search(self, name, fn):
        spanned = self.span(name, fn)
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if stack and stack[-1].layer == "optimize":
                # maximize_scalar delegating to minimize_scalar: one search.
                return spanned(f, *args, **kwargs)
            counts["optimize.searches"] += 1
            result = spanned(self._objective(f), *args, **kwargs)
            counts["optimize.converged"] += bool(result.converged)
            return result

        return wrapper

    def _with_callbacks(self, name, fn, params):
        """Span ``fn`` and every callable it receives under ``params``."""
        spanned = self.span(name, fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param in params:
                callback = bound.arguments.get(param)
                if callback is not None:
                    bound.arguments[param] = self.span(f"{_layer_of(callback)}.{param}", callback)
            return spanned(*bound.args, **bound.kwargs)

        return wrapper

    def _rng_method(self, name, fn):
        spanned = self.span(name, fn)
        counts, stack = self.counts, self.stack
        is_gaussian = name == "rng.gaussian"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_gaussian:
                counts["rng.gaussians"] += 1
            if stack and stack[-1].layer == "rng":
                return fn(*args, **kwargs)
            return spanned(*args, **kwargs)

        return wrapper

    def _wrap(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if name in _UNSPANNED:
            return None
        if name == "qmath.binary_entropy":
            return self._binary_entropy(fn)
        if name == "qmath.shannon_entropy":
            return self._shannon_entropy(fn)
        if name in ("optimize.minimize_scalar", "optimize.maximize_scalar"):
            return self._search(name, fn)
        if name == "bounds.minimize_f_with_refinement":
            return self._with_callbacks(name, fn, ("delta_s_fn", "delta_s_batch"))
        return self.span(name, fn)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch supent for the duration of the block."""
        if self.stack:
            raise RuntimeError("cannot install the tracer inside a span")
        lookup_sites = [m for n, m in sys.modules.items() if n == "supent" or n.startswith("supent.")]
        patches = []  # (owner, attribute, original)
        for layer, module in _MODULES.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(layer, attr, fn)
                if wrapper is None:
                    continue
                for site in lookup_sites:
                    for site_attr, value in list(vars(site).items()):
                        if value is fn:
                            patches.append((site, site_attr, fn))
                            setattr(site, site_attr, wrapper)
        for method in _RNG_METHODS:
            fn = vars(Xoshiro256StarStar)[method]
            patches.append((Xoshiro256StarStar, method, fn))
            setattr(Xoshiro256StarStar, method, self._rng_method(f"rng.{method}", fn))
        for attr, wrapper in (("eigvalsh", self._eigvalsh), ("svd", lambda fn: self.span("qmath.svd", fn))):
            fn = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, wrapper(fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one traced stretch, from ``Tracer.take()``."""
    calls, total, own = snap["calls"], snap["total"], snap["self"]
    scoped, counts = snap["scoped"], snap["counts"]

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)

    searches = counts.get("optimize.searches", 0)
    return {
        "qmath.eigvalsh.calls": calls.get("qmath.eigvalsh", 0),
        "qmath.eigvalsh.matrices": counts.get("qmath.eigvalsh.matrices", 0),
        "qmath.eigvalsh.bytes": counts.get("qmath.eigvalsh.bytes", 0),
        "qmath.eigvalsh.s": total.get("qmath.eigvalsh", 0.0),
        "qmath.svd.calls": calls.get("qmath.svd", 0),
        "qmath.svd.s": total.get("qmath.svd", 0.0),
        "qmath.entropy.elements": counts.get("qmath.entropy.elements", 0),
        "qmath.entropy.s": total.get("qmath.shannon_entropy", 0.0),
        "optimize.searches": searches,
        "optimize.evals": counts.get("optimize.evals", 0),
        "optimize.evals_per_search": counts.get("optimize.evals", 0) / searches if searches else 0.0,
        "optimize.converged_frac": counts.get("optimize.converged", 0) / searches if searches else 0.0,
        "optimize.self_s": layer_self("optimize"),
        "bounds.certify.calls": calls.get("bounds.certify", 0),
        "bounds.certify.self_s": scoped.get("bounds.certify", 0.0),
        "bounds.upper_search.s": total.get("bounds.minimize_f_with_refinement", 0.0),
        "bounds.lower_search.s": total.get("bounds.maximize_lower_scalar", 0.0),
        "states.reduced_density.calls": calls.get("states.reduced_density", 0),
        "states.classify_orthogonality.calls": calls.get("states.classify_orthogonality", 0),
        "states.self_s": layer_self("states"),
        "rng.gaussians": counts.get("rng.gaussians", 0),
        "rng.s": sum(v for k, v in total.items() if k.startswith("rng.")),
        "cli.self_s": layer_self("cli"),
        "harness.random_audit.self_s": scoped.get("harness.random_audit", 0.0),
        "harness.dimension_sweep.self_s": scoped.get("harness.dimension_sweep", 0.0),
    }
