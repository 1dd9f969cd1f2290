"""Spans around sawspec's public functions, installed from outside the package.

``install`` rebinds every module attribute under ``sawspec`` that holds a
public function defined in the package to one timing wrapper per function.
A call is then recorded once, under the function's defining module, whichever
binding it went through: ``sawspec.foundations.constant_C``,
``sawspec.bias.constant_C``, the package namespace, the names ``cli`` imports,
and so on.  The package source is not changed.

A span's self time is its duration minus the durations of the spans it
called.  Private helpers are not wrapped, so their time counts towards the
public function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = (
    "foundations",
    "dedekind",
    "characters",
    "bias",
    "correlations",
    "moments",
    "distribution",
    "phi_error",
    "primes",
    "cli",
)

# Counts computed from a call's arguments, not measured:
# metric -> (span, how calls combine, count of one call).
COMPUTED = {
    "foundations.build_sieves.items": (
        "foundations.build_sieves", sum, lambda a: a["limit"] + 1
    ),
    "dedekind.fft_len": (
        "dedekind.spectrum_all",
        max,
        lambda a: 1 << (2 * a["q"] - 1).bit_length() if a["algorithm"] == "chirp-z" else 0,
    ),
    "phi_error.intervals": ("phi_error.rtilde_moment_exact", sum, lambda a: a["y"]),
}


class Tracer:
    """Per-name call counts, total and self seconds of the spans recorded
    while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.computed: dict[str, int] = {}
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn):
        counters = [(m, c, f) for m, (span, c, f) in COMPUTED.items() if span == name]
        signature = inspect.signature(fn) if counters else None
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans, clock = self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, combine, count in counters:
                    value = count(bound.arguments)
                    self.computed[metric] = combine((self.computed.get(metric, 0), value))
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        wrapper.__perfbench_span__ = name
        return wrapper

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                for name, st in sorted(self.stats.items())
                if st[0]
            },
            "computed": dict(sorted(self.computed.items())),
        }


def _modules():
    package = importlib.import_module("sawspec")
    return [package] + [importlib.import_module(f"sawspec.{m}") for m in LAYERS]


def _is_public_function(obj) -> bool:
    return (
        isinstance(obj, types.FunctionType)
        and obj.__module__.startswith("sawspec.")
        and not obj.__name__.startswith("_")
        and not hasattr(obj, "__perfbench_span__")
    )


def install(tracer: Tracer) -> list[str]:
    """Wrap every public sawspec function at every module attribute that
    binds it; returns the span names."""
    wrappers: dict[int, object] = {}
    for module in _modules():
        for attr, obj in list(vars(module).items()):
            if not _is_public_function(obj):
                continue
            wrapper = wrappers.get(id(obj))
            if wrapper is None:
                layer = obj.__module__.rsplit(".", 1)[1]
                wrapper = tracer.wrap(f"{layer}.{obj.__name__}", obj)
                wrappers[id(obj)] = wrapper
            setattr(module, attr, wrapper)
    return sorted(w.__perfbench_span__ for w in wrappers.values())


def unwrapped_sites() -> list[str]:
    """Places that still hold an unwrapped public sawspec function: module
    attributes, module-level containers, and function defaults."""
    found = []
    for module in _modules():
        for attr, obj in vars(module).items():
            if _is_public_function(obj):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(obj, (list, tuple, set, frozenset, dict)):
                items = obj.values() if isinstance(obj, dict) else obj
                if any(_is_public_function(v) for v in items):
                    found.append(f"{module.__name__}.{attr}[...]")
            if isinstance(obj, types.FunctionType):
                inner = getattr(obj, "__wrapped__", obj)
                defaults = list(inner.__defaults__ or ()) + list(
                    (inner.__kwdefaults__ or {}).values()
                )
                if any(_is_public_function(v) for v in defaults):
                    found.append(f"{module.__name__}.{attr}(defaults)")
    return found
