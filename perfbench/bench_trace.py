"""Per-layer tracing from outside the library.

The hofchain modules bind imported names directly (``from .weylcore import
pochhammer``), so a function is wrapped under every module attribute that
holds it, for example ``hofchain.baxter.pochhammer`` as well as
``hofchain.weylcore.pochhammer``.  Each wrapper records a span: its wall
time, and its self time, which is the span minus the spans of wrapped
functions it called.  Spans are kept only while ``recording`` is set, so
the benchmark's own output checks are never counted.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions wrapped per module; "Operator.__add__" is a method.
TARGETS = {
    "weylcore": ("kron", "Operator.__add__", "weyl_matrices", "pochhammer",
                 "sector_basis"),
    "transfer": ("transfer_T", "transfer_pencil", "commutator_residual",
                 "rll_residual", "sector_spectrum", "hofstadter_hamiltonian"),
    "baxter": ("baxter_vector", "sector_vectors", "t_action_residual",
               "theorem1_ii_residual", "plus_pairing_coeffs",
               "draw_regular_x"),
    "bethe": ("solve_L3", "matrix_A", "rbeq_residual", "oracle_spectrum",
              "cluster_eigenvalues"),
    "curves": ("draw_w_points", "sample_W", "abcd_polys", "averaged_baxter",
               "epsilon_rank", "descended_t_residual"),
    "cli": ("cmd_verify", "cmd_curves", "cmd_butterfly"),
}

# Functions that reach at least 100 calls per round on some workload; they
# also keep every call duration for percentiles.
PERCENTILE_SPANS = (
    "weylcore.kron", "weylcore.Operator.add", "weylcore.weyl_matrices",
    "weylcore.pochhammer", "transfer.transfer_T",
    "transfer.hofstadter_hamiltonian", "baxter.baxter_vector",
    "baxter.sector_vectors", "bethe.rbeq_residual", "curves.averaged_baxter",
)

# Transfer functions whose results are dense operators; their size is
# counted as computed bytes, 16 * dim^2 per complex128 matrix.
DENSE_RESULTS = ("transfer.transfer_T", "transfer.transfer_pencil",
                 "transfer.hofstadter_hamiltonian")

MODULES = ("weylcore", "transfer", "baxter", "bethe", "curves", "cli")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__add__', 'add')}"


SPAN_NAMES = tuple(span_name(m, a) for m in MODULES for a in TARGETS[m])


def _dense_bytes(result) -> int:
    ops = result.coeffs if hasattr(result, "coeffs") else (result,)
    return sum(16 * op.dim * op.dim for op in ops)


class Span:
    __slots__ = ("calls", "total", "self_time", "samples")

    def __init__(self, keep_samples: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.samples = array("d") if keep_samples else None


class Tracer:
    """Span and count accounting for the wrapped hofchain functions."""

    def __init__(self):
        self.spans = {n: Span(n in PERCENTILE_SPANS) for n in SPAN_NAMES}
        self.dense_bytes = 0
        self.redraw_attempts = 0
        self.redraw_successes = 0
        self.recording = False
        self._stack = []      # child-time accumulators of the open spans
        self._patches = []    # (owner, attribute, original)

    def counts(self) -> dict:
        """Exact counts; identical for two rounds over the same inputs."""
        out = {f"{n}.calls": s.calls for n, s in self.spans.items()}
        out["transfer.dense_bytes"] = self.dense_bytes
        out["weylcore.redraw.attempts"] = self.redraw_attempts
        return out

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        dense = name in DENSE_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                span.calls += 1
                span.total += dt
                span.self_time += dt - children[0]
                if self._stack:
                    self._stack[-1][0] += dt
                if span.samples is not None:
                    span.samples.append(dt)
            if dense:
                self.dense_bytes += _dense_bytes(out)
            return out
        return wrapper

    def _wrap_redraw(self, fn):
        @functools.wraps(fn)
        def wrapper(body, rng, *args, **kwargs):
            if not self.recording:
                return fn(body, rng, *args, **kwargs)

            def counted(r):
                self.redraw_attempts += 1
                return body(r)
            out = fn(counted, rng, *args, **kwargs)
            self.redraw_successes += 1
            return out
        return wrapper

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the targets under every hofchain name bound to them."""
        pkg = importlib.import_module("hofchain")
        mods = {m: importlib.import_module(f"hofchain.{m}") for m in MODULES}
        everywhere = [pkg, *mods.values()]
        try:
            for m in MODULES:
                for attr in TARGETS[m]:
                    name = span_name(m, attr)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(mods[m], cls_name)
                        original = vars(cls)[meth]
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth, self._wrap(name, original))
                    else:
                        original = getattr(mods[m], attr)
                        self._patch_everywhere(everywhere, original,
                                               self._wrap(name, original))
            redraw = mods["weylcore"].with_generic_redraw
            self._patch_everywhere(everywhere, redraw,
                                   self._wrap_redraw(redraw))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round means of the span totals; counts are per round."""
        out = {}
        for name, s in self.spans.items():
            out[f"{name}.calls"] = (s.calls // rounds, "count")
            out[f"{name}.total_s"] = (s.total / rounds, "s")
            out[f"{name}.self_s"] = (s.self_time / rounds, "s")
            if s.samples is not None:
                ms = np.asarray(s.samples) * 1e3
                p50, p90 = np.percentile(ms, (50, 90)) if len(ms) else (0, 0)
                out[f"{name}.p50_ms"] = (float(p50), "ms")
                out[f"{name}.p90_ms"] = (float(p90), "ms")
        out["transfer.dense_bytes"] = (self.dense_bytes // rounds, "B")
        out["weylcore.redraw.attempts_per_success"] = (
            self.redraw_attempts / self.redraw_successes
            if self.redraw_successes else 0.0, "attempts/success")
        return out
