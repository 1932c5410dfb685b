"""In-memory span tracing of specquant's public functions, installed from outside.

`installed(tracer)` replaces every public function of the traced modules, in
every specquant namespace that binds it, with a wrapper that records a span
(name, start, end, parent) and restores the originals on exit. Nothing in the
package changes: internal calls such as `select_migration_strength ->
compress_layer` or `channel_stats -> fft` look the name up on their module at
call time, so the wrappers see nested calls too. `CompressedLayer.
low_freq_matrix` is wrapped on the class.
"""

import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("spectral", "budget", "quant", "pipeline", "tensor_io")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or None].

    `hooks` maps a traced name to fn(args, kwargs, result) -> {key: value};
    each returned value is kept in `extras` as (span index, key, value), so a
    count is taken at the boundary where the work happens.
    """

    def __init__(self, hooks=None):
        self.spans = []
        self.extras = []
        self.hooks = hooks or {}
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.extras.append((idx, key, value))
            return result

        return traced


@contextlib.contextmanager
def installed(tracer):
    """Route specquant's public functions through `tracer` for the block."""
    from specquant import pipeline

    namespaces = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "specquant" or name.startswith("specquant.")
    ]
    replaced = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"specquant.{short}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapper = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is fn:
                        replaced.append((ns, bound, fn))
                        setattr(ns, bound, wrapper)
    cls = pipeline.CompressedLayer
    original = cls.low_freq_matrix
    replaced.append((cls, "low_freq_matrix", original))
    cls.low_freq_matrix = tracer.wrap("CompressedLayer.low_freq_matrix", original)
    try:
        yield tracer
    finally:
        for obj, attr, fn in reversed(replaced):
            setattr(obj, attr, fn)


def roots(spans):
    """Index of each span's outermost ancestor (parents precede children)."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent is None else out[parent])
    return out


def child_time(spans):
    """Per span, the total duration of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return covered


def self_times(spans, keep):
    """{name: [calls, self seconds]} over the spans whose index is in `keep`.

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = child_time(spans)
    stats = {}
    for i in keep:
        name, start, end, _ = spans[i]
        entry = stats.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
    return stats
