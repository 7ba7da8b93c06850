"""Span tracing of morreykit from outside the package.

`Tracer.installed()` replaces each traced function with a timing wrapper in
every morreykit module that holds a reference to it (`from .gridfn import
band` gives `norms` its own reference), and on the class for the traced
methods.  Lazy imports inside functions (`trace_function` imports
`atomic_analyze` when called) read the patched module attribute, so they
get the wrapper too.  On exit every original is put back.

A span records its name, start, end, parent span and the op it belongs to.
Self time is a span's duration minus the durations of its direct children.
Spans stay in memory and are reduced to per-name totals after the pass.
Work counters are charged to the innermost open span:

* `fft_points`: elements passed to `numpy.fft.fftn` / `ifftn`;
* `rolls`: calls to `numpy.roll` (the Peetre scans roll once per offset);
* per-function meters that read sizes from arguments or results.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Traced functions per module: the entry points of each layer.  Helpers that
# run inside them (window profiles, spectra, patch adds) are left unwrapped so
# their time counts as the caller's self time.  Names missing from a later
# version of the package are skipped.
TRACED = {
    "growth": ["is_in_Gq", "check_nakai", "trace_transform"],
    "dyadic": ["dilate", "box_mask", "cube_mask", "ancestor", "trace_boxes"],
    "gridfn": ["make_bank", "band", "hl_maximal", "powered_maximal",
               "peetre_maximal", "rychkov_pair", "sample_expand",
               "GridFunction.from_bytes"],
    "norms": ["morrey_norm", "space_norm", "seq_norm", "quark_norm",
              "CoeffField.to_csv", "CoeffField.from_csv"],
    "decomp": ["atomic_analyze", "synthesize", "quark_analyze",
               "quark_synthesize", "validate_atom", "validate_molecule"],
    "trace": ["trace_coeff", "extend_coeff", "trace_bound_I",
              "trace_bound_II", "extension_bound", "trace_function"],
    "verify": ["hardy_campaign", "maximal_campaign",
               "filter_invariance_campaign", "peetre_char_campaign",
               "multiplier_campaign", "pointwise_mult_campaign",
               "embedding_campaign", "counterexample_growth",
               "band_pointwise_campaign", "peetre_maximal_of"],
    "cli": ["main"],
}


def _grid_points(f):
    return f.G ** f.n


# Extra counts read from a traced call: name -> fn(args, kwargs, result).
METERS = {
    "gridfn.peetre_maximal": lambda a, k, r: {"grid_points": _grid_points(a[0])},
    "verify.peetre_maximal_of": lambda a, k, r: {"grid_points": a[3] ** a[4]},
    "norms.CoeffField.to_csv": lambda a, k, r: {"bytes": len(r)},
    "norms.CoeffField.from_csv": lambda a, k, r: {"bytes": len(a[0])},
    "decomp.atomic_analyze": lambda a, k, r: {
        "coefficients": sum(np.size(v) for v in r[0].levels.values())},
}


def _targets(package):
    """(span name, owner object, attribute, original, is_static) for every
    traced function that exists in this version of the package."""
    out = []
    for mod_name, names in TRACED.items():
        module = getattr(package, mod_name)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                raw = vars(cls)[meth]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                out.append((f"{mod_name}.{name}", cls, meth, fn, static))
            elif callable(getattr(module, name, None)):
                out.append((f"{mod_name}.{name}", module, name,
                            getattr(module, name), False))
    return out


@contextmanager
def _patched(package, make_wrapper, counters=(), only=None):
    """Swap the traced functions (those named in `only`, if given) and the
    numpy counters for wrappers in every module of the package; restore on
    exit."""
    modules = [m for name, m in sys.modules.items()
               if name == package.__name__
               or name.startswith(package.__name__ + ".")]
    undo = []
    try:
        for span, owner, attr, fn, static in _targets(package):
            if only is not None and span not in only:
                continue
            wrapper = make_wrapper(span, fn)
            if isinstance(owner, types.ModuleType):
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            undo.append((mod, key, val))
                            setattr(mod, key, wrapper)
            else:
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        for owner, attr, wrapper in counters:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent span index, op]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.op = None  # set by the caller before each op
        self._stack = []  # indices of the open spans
        self._paused = False

    def _wrap(self, name, fn):
        meter = METERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if meter is not None:
                for key, val in meter(args, kwargs, result).items():
                    self.counts[name][key] += val
            return result
        return wrapper

    # -- numpy counters ----------------------------------------------------------

    def _charge(self, key, amount):
        if self._stack and not self._paused:
            self.counts[self.spans[self._stack[-1]][0]][key] += amount

    def _counters(self):
        fftn, ifftn, roll = np.fft.fftn, np.fft.ifftn, np.roll

        def c_fftn(a, *args, **kwargs):
            self._charge("fft_points", np.size(a))
            return fftn(a, *args, **kwargs)

        def c_ifftn(a, *args, **kwargs):
            self._charge("fft_points", np.size(a))
            return ifftn(a, *args, **kwargs)

        def c_roll(a, *args, **kwargs):
            self._charge("rolls", 1)
            return roll(a, *args, **kwargs)

        return [(np.fft, "fftn", c_fftn), (np.fft, "ifftn", c_ifftn),
                (np, "roll", c_roll)]

    def installed(self):
        return _patched(self.package, self._wrap, self._counters())

    @contextmanager
    def paused(self):
        """Let the benchmark's own checks call traced functions unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- results -----------------------------------------------------------

    def summary(self):
        """(self seconds, calls) per span name."""
        self_s, calls = defaultdict(float), defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
        return self_s, calls


class PeakMemory:
    """tracemalloc peak of each call of one function, with no other tracing
    active (tracemalloc slows allocation-heavy code, so this runs in a pass of
    its own)."""

    def __init__(self, package, span):
        self.package = package
        self.span = span
        self.peak_bytes = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes,
                                      tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    def installed(self):
        return _patched(self.package, self._wrap, only={self.span})
