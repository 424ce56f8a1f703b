"""Span tracer that wraps phononet's public functions from outside the package.

``Tracer.installed()`` replaces every public function of the traced modules
with a wrapper that records a span (name, parent, start, end), wherever a
reference to it lives: its defining module, every module that imported the
name (``phononet.circulator.scattering`` is ``network.scattering``), the
package namespace and dispatch dicts such as ``experiments.RUNNERS``.
``CascadedModel.rhs`` is wrapped as ``cascade.rhs`` to count generator
applications.  Leaving the context restores the originals, so untraced
passes run the program unchanged.

Spans are named after the defining module, e.g. ``network.internal_spectrum``.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "experiments", "network", "circulator", "waveguide", "transfer", "cascade", "nv")


def _grid_len(name):
    def count(args):
        return len(args[name])
    return count


# Work counters taken from a wrapped call's arguments: span name ->
# (counter name, function of the bound arguments).  The counts depend only
# on the inputs, never on the machine.
_ARG_COUNTS = {
    "network.internal_spectrum": ("network.points", _grid_len("omega_grid")),
    "network.output_spectrum": ("network.points", _grid_len("omega_grid")),
    "circulator.scattering_probabilities": ("circulator.points", _grid_len("omega_grid")),
    "waveguide.simulate_lossy_chain": (
        "waveguide.site_points",
        lambda a: (a["site"] + 1) * len(a["drive_spectrum"].grid),
    ),
    "transfer.pulse_spectrum": (
        "transfer.pulse_spectrum.terms",
        lambda a: len(a["omega_grid"]) * a["n_steps"],
    ),
    "cli.render_csv": ("cli.render.rows", lambda a: len(a["rows"])),
    "cli.render_json": ("cli.render.rows", lambda a: len(a["rows"])),
}

# Largest problem dimension seen: span name -> (counter name, function of
# the bound arguments and the result).
_MAX_COUNTS = {
    "network.build_drift_matrix": ("network.dim_max", lambda a, r: r.dimension),
    "cascade.integrate": ("cascade.dim", lambda a, r: a["model"].dimension),
}


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.count_errors: dict[str, str] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.maxima.clear()
        self._stack.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        arg_count = _ARG_COUNTS.get(name)
        max_count = _MAX_COUNTS.get(name)
        sig = inspect.signature(fn) if (arg_count or max_count) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
            if sig is not None:
                self._record_counts(name, sig, args, kwargs, result, arg_count, max_count)
            return result

        return wrapper

    def _record_counts(self, name, sig, args, kwargs, result, arg_count, max_count):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if arg_count:
                self.counts[arg_count[0]] += int(arg_count[1](a))
            if max_count:
                key, of = max_count
                self.maxima[key] = max(self.maxima.get(key, 0), int(of(a, result)))
        except (KeyError, TypeError, AttributeError) as exc:
            # the signature changed; the count is reported unavailable
            self.count_errors[name] = f"{type(exc).__name__}: {exc}"

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        package = importlib.import_module("phononet")
        modules = {m: importlib.import_module(f"phononet.{m}") for m in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")

        undo = []
        for ns in (package, *modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    undo.append((setattr, ns, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
                            undo.append((dict.__setitem__, obj, key, value))
        model = getattr(modules["cascade"], "CascadedModel", None)
        if model is not None and inspect.isfunction(getattr(model, "rhs", None)):
            original_rhs = model.rhs
            model.rhs = self._wrap(original_rhs, "cascade.rhs")
            undo.append((setattr, model, "rhs", original_rhs))
        try:
            yield self
        finally:
            for restore, target, key, value in reversed(undo):
                restore(target, key, value)

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self times, and root coverage."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        root = 0.0
        for name, parent, start, end in self.spans:
            d = end - start
            calls[name] += 1
            inclusive[name] += d
            self_time[name] += d
            if parent < 0:
                root += d
            else:
                self_time[self.spans[parent][0]] -= d
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "root_s": root,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
