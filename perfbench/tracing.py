"""Span tracer that wraps gammasep's public functions from outside the package.

For the traced run only, every traced function is replaced by a timing
wrapper at every module namespace that binds it (``gammasep.despike``'s
``swt_decompose`` is the same object as ``gammasep.swt``'s, so both get the
same wrapper). Internal calls are therefore caught too, and no file of the
package changes. ``Tracer.uninstall`` puts every original object back.

Spans are aggregated in memory by call path (the tuple of traced names from
the outermost span down), which keeps self time, parent links and counts
without storing one record per call.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = (
    "simulate", "signal_core", "swt", "backends", "despike", "tfmap",
    "tickmodel", "cli",
)

TRACED_FUNCTIONS = {
    "simulate": ("build_realization", "gen_colored_noise", "gen_gamma_burst",
                 "gen_transient"),
    "swt": ("swt_decompose", "iswt_reconstruct", "wavelet_filters"),
    "backends": ("circular_conv", "centered_conv", "centered_conv_complex"),
    "despike": ("separate", "detect_oscillation_center", "threshold_coeffs",
                "build_mask"),
    "tfmap": ("spatiotemporal_map", "map_row", "bandpass", "bandpass_taps",
              "morlet_transform", "morlet_kernel", "envelope_smooth",
              "normalize_by_low_band", "detect_buildup"),
    "tickmodel": ("run_pipeline", "run_mapping_pipeline", "benchmark_report",
                  "separation_stages", "mapping_stages"),
    "cli": ("main", "cmd_simulate", "cmd_despike", "cmd_map", "cmd_bench",
            "read_signal_csv", "write_signal_csv", "write_map_pgm",
            "write_keyvalues"),
}

# Constructors are traced through their __post_init__, patched on the class,
# so that isinstance checks and dataclass machinery keep working.
TRACED_CONSTRUCTORS = {
    "signal_core": ("MultiChannelSignal",),
    "swt": ("FilterPair",),
}


def _kernel_counts(args, kwargs, result):
    """MACs and computed bytes of one convolution call, from array sizes."""
    x, taps = args[0], args[1]
    n, k = len(x), len(taps)
    out_itemsize = result.dtype.itemsize
    taps_itemsize = 16 if result.dtype.kind == "c" else 8
    return {
        "macs": n * k,
        "bytes_computed": 8 * n + taps_itemsize * k + out_itemsize * n,
    }


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _default_counters():
    return {
        "backends.circular_conv": _kernel_counts,
        "backends.centered_conv": _kernel_counts,
        "backends.centered_conv_complex": _kernel_counts,
        "cli.read_signal_csv": lambda a, k, r: _file_bytes(a[0]),
        "cli.write_signal_csv": lambda a, k, r: _file_bytes(a[0]),
        "cli.main": lambda a, k, r: {"exit_nonzero": int(r != 0)},
    }


class Tracer:
    """Installs timing wrappers, aggregates spans by call path, restores.

    ``counters`` maps a traced name (``"<layer>.<function>"``) to a callable
    ``(args, kwargs, result) -> {counter: number}`` evaluated after each
    successful call while tracing is active.
    """

    def __init__(self, package, counters=None):
        self.package = package
        self.counters = _default_counters()
        self.counters.update(counters or {})
        self.active = False
        self.paths = {}      # path tuple -> [calls, total_ns, self_ns]
        self.counts = {}     # (name, counter) -> summed value
        self.raised = {}     # (name, exception class name) -> count
        self.top_level_ns = 0
        self._stack = []     # [name, child_ns] frames of open spans
        self._patches = []   # (owner, attribute, original)
        self.originals = {}  # traced name -> original object

    # -- install / uninstall ------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{layer}")
            for layer in LAYERS
        ]
        by_id = {}
        for layer, names in TRACED_FUNCTIONS.items():
            mod = importlib.import_module(f"{self.package.__name__}.{layer}")
            for fname in names:
                original = getattr(mod, fname)
                name = f"{layer}.{fname}"
                self.originals[name] = original
                by_id[id(original)] = self._wrap(name, original)
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    wrapper = by_id.get(id(value))
                    if wrapper is not None:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            for layer, classes in TRACED_CONSTRUCTORS.items():
                mod = importlib.import_module(f"{self.package.__name__}.{layer}")
                for cname in classes:
                    cls = getattr(mod, cname)
                    original = cls.__dict__["__post_init__"]
                    name = f"{layer}.{cname}"
                    self.originals[name] = original
                    self._patches.append((cls, "__post_init__", original))
                    setattr(cls, "__post_init__", self._wrap(name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        counter = self.counters.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                path = tuple(f[0] for f in stack)
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_ns += elapsed
                entry = self.paths.get(path)
                if entry is None:
                    entry = self.paths[path] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if counter is not None:
                counted_at = clock()
                self.active = False
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[(name, key)] = self.counts.get((name, key), 0) + value
                finally:
                    self.active = True
                    # counting is tracer work: keep it out of the parent's self time
                    if stack:
                        stack[-1][1] += clock() - counted_at
            return result

        return traced

    # -- aggregates ---------------------------------------------------------

    def calls(self, name, within=None):
        """Calls of ``name``; with ``within``, only those below that span."""
        return sum(
            e[0] for p, e in self.paths.items()
            if p[-1] == name and (within is None or within in p[:-1])
        )

    def self_ns(self, name):
        return sum(e[2] for p, e in self.paths.items() if p[-1] == name)

    def total_ns(self, name):
        """Wall time inside outermost spans of ``name`` (recursion counted once)."""
        return sum(
            e[1] for p, e in self.paths.items()
            if p[-1] == name and name not in p[:-1]
        )

    def count(self, name, key):
        return self.counts.get((name, key), 0)

    def raised_count(self, name, exc_name):
        return self.raised.get((name, exc_name), 0)

    def span_table(self):
        """Paths as JSON-ready records, parents before children."""
        return [
            {"path": list(path), "calls": e[0], "total_ns": e[1], "self_ns": e[2]}
            for path, e in sorted(self.paths.items())
        ]
