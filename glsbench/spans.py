"""Spans around the package's public callables, and the per-layer metrics.

The traced run replaces each hooked callable, at the name its callers look
up, with a wrapper that records a span: name, start, end and the span that
was open when it was called. Spans stay in memory until the run writes them
out. A hooked name that no longer exists is an error, so a rename cannot
turn a layer's numbers into silent zeros.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time

import numpy
import scipy.linalg

import glskit.cli
import glskit.ggkb
import glskit.glsqr
import glskit.gsvd
import glskit.mmio
import glskit.problems
import glskit.wpinv


def _iterations(args, kwargs, result):
    return result.iterations or 0


def _failed_identities(args, kwargs, result):
    return sum(not passed for passed in result.passed)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _hooks():
    """(owner, attribute, span name, value of one call) for every hook.

    Each glskit name is one the workloads' calls reach; the numpy and scipy
    factorizations are hooked whether or not the package calls them yet.
    """
    g = glskit
    strategies = (g.ggkb.DensePinvStrategy, g.ggkb.CholeskyStrategy, g.ggkb.InnerLsqrStrategy)
    hooks = [
        (g.problems, "generate", "problems.generate", None),
        (g.cli, "generate", "problems.generate", None),
        (g.wpinv.GlsProblem, "__init__", "wpinv.problem_build", None),
        (g.wpinv, "wpinv_elden", "wpinv.elden", None),
        (g.wpinv, "check_gmpe", "wpinv.check_gmpe", _failed_identities),
        (g.wpinv, "check_gls_criterion", "wpinv.check_gls_criterion", None),
        (g.glsqr, "check_gls_criterion", "wpinv.check_gls_criterion", None),
        (g.problems, "check_gls_criterion", "wpinv.check_gls_criterion", None),
        (g.gsvd, "gsvd_pair", "gsvd.gsvd_pair", None),
        (g.gsvd, "wpinv_via_gsvd", "gsvd.wpinv_via_gsvd", None),
        (g.ggkb, "cholesky_spd", "linalg.factorization", None),
        (g.problems, "cholesky_spd", "linalg.factorization", None),
        (g.ggkb, "lsqr", "linalg.lsqr", _iterations),
        (g.glsqr, "ggkb_init", "ggkb.init", None),
        (g.glsqr, "ggkb_step", "ggkb.step", None),
        (g.glsqr, "glsqr_solve", "glsqr.solve", _iterations),
        (g.cli, "glsqr_solve", "glsqr.solve", _iterations),
        (g.glsqr, "operator_norm", "glsqr.operator_norm", _iterations),
        (g.glsqr, "certify_solution", "glsqr.certify", None),
        (g.cli, "certify_solution", "glsqr.certify", None),
        (g.mmio, "read_matrix_market", "mmio.read", _file_bytes),
        (g.cli, "read_matrix_market", "mmio.read", _file_bytes),
        (g.cli, "read_vector", "mmio.read", _file_bytes),
        (g.mmio, "write_matrix_market", "mmio.write", _file_bytes),
        (g.mmio, "write_vector", "mmio.write", _file_bytes),
        (g.cli, "write_vector", "mmio.write", _file_bytes),
        (g.cli, "main", "cli.main", None),
    ]
    for owner in (numpy.linalg, scipy.linalg):
        for name in ("svd", "eigh", "qr", "cholesky"):
            hooks.append((owner, name, "linalg.factorization", None))
    for cls in strategies:
        hooks.append((cls, "__init__", "ggkb.strategy_setup", None))
        hooks.append((cls, "apply", "ggkb.gdag_apply", None))
    return hooks


class Tracer:
    """Records spans while ``active``; ``install`` hooks every callable.

    A span is ``[name, start, end, parent index, value]``; the index of a
    span is its position in ``spans``, which is in order of start time.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._open = []
        self._installed = []

    def install(self):
        for owner, attr, name, value in _hooks():
            label = getattr(owner, "__name__", repr(owner))
            try:
                original = getattr(owner, attr)
            except AttributeError:
                raise RuntimeError(
                    f"traced run: {label}.{attr} is missing, so layer {name!r} cannot be measured"
                ) from None
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name, value):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._open[-1] if self._open else None, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if value is not None:
                span[4] = value(args, kwargs, result)
            return result

        return wrapper

    def take(self):
        """The spans recorded since the last call, and a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class _Layers:
    """Totals over the outermost spans of each name (nesting counted once)."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.outer = {}
        for i, span in enumerate(spans):
            ancestor = span[3]
            while ancestor is not None and spans[ancestor][0] != span[0]:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                duration = span[2] - span[1]
                self.outer.setdefault(span[0], []).append(
                    (duration, duration - child_time[i], span[4])
                )

    def count(self, name):
        return len(self.outer.get(name, ()))

    def seconds(self, name):
        return math.fsum(d for d, _, _ in self.outer.get(name, ()))

    def self_seconds(self, name):
        return math.fsum(s for _, s, _ in self.outer.get(name, ()))

    def value(self, name):
        return sum(v for _, _, v in self.outer.get(name, ()))

    def mean_ms(self, name, part):
        durations = [d for d, _, _ in self.outer.get(name, ())][part]
        return 1e3 * statistics.fmean(durations) if durations else 0.0


# name -> (unit, better, value from the layer totals and the sample of one pass)
PER_LAYER = {
    "problems.generate_s": ("s", "lower", lambda t, s: t.seconds("problems.generate")),
    "wpinv.problem_build_s": ("s", "lower", lambda t, s: t.seconds("wpinv.problem_build")),
    "wpinv.elden_s": ("s", "lower", lambda t, s: t.seconds("wpinv.elden")),
    "wpinv.check_gmpe_s": ("s", "lower", lambda t, s: t.seconds("wpinv.check_gmpe")),
    "wpinv.check_gls_criterion_s": (
        "s", "lower", lambda t, s: t.seconds("wpinv.check_gls_criterion")),
    "wpinv.check_gls_criterion_calls": (
        "count", "lower", lambda t, s: t.count("wpinv.check_gls_criterion")),
    "wpinv.gmpe_identity_failures": (
        "count", "lower", lambda t, s: t.value("wpinv.check_gmpe")),
    "gsvd.gsvd_pair_s": ("s", "lower", lambda t, s: t.seconds("gsvd.gsvd_pair")),
    "gsvd.wpinv_via_gsvd_s": ("s", "lower", lambda t, s: t.seconds("gsvd.wpinv_via_gsvd")),
    "linalg.factorizations": ("count", "lower", lambda t, s: t.count("linalg.factorization")),
    "linalg.factorization_s": ("s", "lower", lambda t, s: t.seconds("linalg.factorization")),
    "linalg.lsqr_calls": ("count", "lower", lambda t, s: t.count("linalg.lsqr")),
    "linalg.lsqr_iterations": ("count", "lower", lambda t, s: t.value("linalg.lsqr")),
    "linalg.lsqr_s": ("s", "lower", lambda t, s: t.seconds("linalg.lsqr")),
    "ggkb.strategy_setup_s": ("s", "lower", lambda t, s: t.seconds("ggkb.strategy_setup")),
    "ggkb.steps": ("count", "lower", lambda t, s: t.count("ggkb.step")),
    "ggkb.step_s": ("s", "lower", lambda t, s: t.seconds("ggkb.step")),
    "ggkb.step_self_s": ("s", "lower", lambda t, s: t.self_seconds("ggkb.step")),
    "ggkb.step_ms_first50": ("ms", "lower", lambda t, s: t.mean_ms("ggkb.step", slice(50))),
    "ggkb.step_ms_last50": ("ms", "lower", lambda t, s: t.mean_ms("ggkb.step", slice(-50, None))),
    "ggkb.gdag_applies": ("count", "lower", lambda t, s: t.count("ggkb.gdag_apply")),
    "ggkb.gdag_apply_s": ("s", "lower", lambda t, s: t.seconds("ggkb.gdag_apply")),
    "glsqr.iterations": ("count", "lower", lambda t, s: t.value("glsqr.solve")),
    "glsqr.givens_self_s": ("s", "lower", lambda t, s: t.self_seconds("glsqr.solve")),
    "glsqr.operator_norm_s": ("s", "lower", lambda t, s: t.seconds("glsqr.operator_norm")),
    "glsqr.operator_norm_iterations": (
        "count", "lower", lambda t, s: t.value("glsqr.operator_norm")),
    "glsqr.certify_s": ("s", "lower", lambda t, s: t.seconds("glsqr.certify")),
    "glsqr.forward_error": ("1", "lower", lambda t, s: s.forward_error),
    "mmio.read_s": ("s", "lower", lambda t, s: t.seconds("mmio.read")),
    "mmio.write_s": ("s", "lower", lambda t, s: t.seconds("mmio.write")),
    "mmio.bytes": ("B", "lower", lambda t, s: t.value("mmio.read") + t.value("mmio.write")),
    "cli.self_s": ("s", "lower", lambda t, s: t.self_seconds("cli.main")),
    "failed_ratio": ("1", "lower", lambda t, s: s.failed / s.attempted),
}


def layer_metrics(spans, sample):
    """Per-layer metrics of one traced pass of a workload."""
    layers = _Layers(spans)
    return {name: fn(layers, sample) for name, (_, _, fn) in PER_LAYER.items()}
