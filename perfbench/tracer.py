"""Spans around calls into specdist's public functions, from outside the package.

specdist binds functions across modules with ``from ... import``, so
``cli.read_psd_csv``, ``io.geodesic_distance`` or ``divergences.log_ratio``
are separate names for one function object.  A wrapper is installed at
every module binding of the function, found by an identity scan over the
loaded ``specdist`` modules; patching only the defining module would miss
most calls.  Span stacks are kept per thread.

A layer's self time is its span time minus the time of the spans it
encloses.  Counts are taken at the same boundaries from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time

# (module, function) for every layer the benchmark reports.
LAYERS = (
    ("cli", "main"),
    ("io", "read_psd_csv"),
    ("io", "read_timeseries_csv"),
    ("io", "write_psd_csv"),
    ("io", "build_distance_matrix"),
    ("io", "write_distance_matrix_csv"),
    ("spectra", "psd_from_samples"),
    ("spectra", "psd_from_ar"),
    ("spectra", "log_ratio"),
    ("spectra", "geometric_mean"),
    ("divergences", "geodesic_distance"),
    ("divergences", "prediction_ratio"),
    ("grid", "central_variance"),
    ("geodesics", "geodesic_path"),
    ("geodesics", "geodesic_point"),
    ("prediction", "autocov_from_psd"),
    ("prediction", "levinson"),
    ("prediction", "degraded_variance"),
    ("prediction", "rho_empirical"),
    ("estimation", "welch"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)

# Layers whose arguments or results feed the counts.
_COUNTED = frozenset({
    "io.read_psd_csv",
    "io.read_timeseries_csv",
    "io.write_psd_csv",
    "io.write_distance_matrix_csv",
    "divergences.geodesic_distance",
    "estimation.welch",
})

COUNTS = (
    "io.read_bytes",
    "io.write_bytes",
    "divergences.pairs",
    "divergences.inf_pairs",
    "divergences.shared_zero_pairs",
    "estimation.welch.segments",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path) -> int:
    if isinstance(path, (str, os.PathLike)):
        return os.path.getsize(path)
    return 0  # an open stream such as stdout


class Tracer:
    """Per-layer call counts and self time, plus boundary counts, for the
    calls made between :meth:`reset` and reading :attr:`stats`."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {name: [0, 0] for name in LAYER_NAMES}  # calls, self ns
        self.counts = dict.fromkeys(COUNTS, 0)

    # ------------------------------------------------------------ counts

    def _count(self, name: str, args, kwargs, result) -> None:
        counts = self.counts
        if name in ("io.read_psd_csv", "io.read_timeseries_csv"):
            counts["io.read_bytes"] += _file_size(_arg(args, kwargs, 0, "path"))
        elif name in ("io.write_psd_csv", "io.write_distance_matrix_csv"):
            counts["io.write_bytes"] += _file_size(_arg(args, kwargs, 1, "path"))
        elif name == "divergences.geodesic_distance":
            counts["divergences.pairs"] += 1
            if math.isinf(result):
                counts["divergences.inf_pairs"] += 1
            else:
                zeros = _arg(args, kwargs, 0, "f1").zero_set
                if zeros and zeros == _arg(args, kwargs, 1, "f2").zero_set:
                    counts["divergences.shared_zero_pairs"] += 1
        elif name == "estimation.welch":
            length = len(_arg(args, kwargs, 0, "ts"))
            segment = int(_arg(args, kwargs, 1, "segment"))
            hop = int(math.floor(segment * (1.0 - float(_arg(args, kwargs, 2, "overlap")))))
            counts["estimation.welch.segments"] += (length - segment) // hop + 1

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn):
        local = self._local
        counted = name in _COUNTED
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            inner = [0]  # time of enclosed spans
            stack.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                with tracer._lock:
                    record = tracer.stats[name]
                    record[0] += 1
                    record[1] += span - inner[0]
            if counted:
                with tracer._lock:
                    tracer._count(name, args, kwargs, result)
            if stack:
                # the enclosing span also excludes this wrapper's bookkeeping
                stack[-1][0] += clock() - start
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer at each of its bindings in the loaded specdist
        modules.  A layer that no longer exists raises, so a renamed
        function cannot read as a silent 0 ms."""
        if self._patches:
            return
        for module, _ in LAYERS:
            importlib.import_module(f"specdist.{module}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "specdist" or key.startswith("specdist."))
        ]
        for (module, func), name in zip(LAYERS, LAYER_NAMES):
            original = getattr(sys.modules[f"specdist.{module}"], func, None)
            if not callable(original):
                raise LookupError(f"layer {name} is not a function of specdist.{module}")
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def snapshot(self) -> dict:
        """Calls and self time per layer, and the boundary counts."""
        layers = {name: {"calls": c, "self_ms": ns / 1e6} for name, (c, ns) in self.stats.items()}
        return {"layers": layers, "counts": dict(self.counts)}
