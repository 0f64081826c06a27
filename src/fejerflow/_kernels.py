"""Numeric kernels for the verification harness.

The sup-over-window oscillation checks are quadratic in the number of grid
points, so they carry numba-compiled implementations with a pure-numpy
fallback.  Selection: environment variable ``FEJERFLOW_NUMBA`` ("0"/"false"
disables numba); if numba is missing the fallback is used silently.  On the
builtin scenarios they cost next to nothing (``kernels.self_s`` in the
``suitebench/`` traced run).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["pairwise_max_distance", "prefix_min_violation", "using_numba"]


def _numba_enabled() -> bool:
    flag = os.environ.get("FEJERFLOW_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


_HAVE_NUMBA = False
if _numba_enabled():
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - environment without numba
        _HAVE_NUMBA = False


def using_numba() -> bool:
    return _HAVE_NUMBA


# ---------------------------------------------------------------------------
# pairwise max distance (window diameter)
# ---------------------------------------------------------------------------


def _pairwise_max_distance_numpy(xs: np.ndarray) -> float:
    n = xs.shape[0]
    if n < 2:
        return 0.0
    best = 0.0
    block = 1024
    for i in range(0, n, block):
        a = xs[i:i + block]
        for j in range(i, n, block):
            b = xs[j:j + block]
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
            m = float(d2.max())
            if m > best:
                best = m
    return float(np.sqrt(best))


if _HAVE_NUMBA:

    @njit(cache=True, fastmath=False)
    def _pairwise_max_distance_nb(xs):  # pragma: no cover - jitted
        n, d = xs.shape
        best = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                acc = 0.0
                for k in range(d):
                    diff = xs[i, k] - xs[j, k]
                    acc += diff * diff
                if acc > best:
                    best = acc
        return best ** 0.5


def pairwise_max_distance(xs: np.ndarray) -> float:
    """Max pairwise euclidean distance among the rows of xs."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.shape[0] < 2:
        return 0.0
    if _HAVE_NUMBA:
        return float(_pairwise_max_distance_nb(xs))
    return _pairwise_max_distance_numpy(xs)


# ---------------------------------------------------------------------------
# worst violation of H(d_t) <= G(d_s) + a(s) + b(t) + c over pairs s <= t
# ---------------------------------------------------------------------------


def _prefix_min_violation_numpy(h_vals, g_vals, s_err, t_err) -> float:
    lower = np.minimum.accumulate(g_vals + s_err)
    return float((h_vals - t_err - lower).max())


if _HAVE_NUMBA:

    @njit(cache=True, fastmath=False)
    def _prefix_min_violation_nb(h_vals, g_vals, s_err, t_err):  # pragma: no cover
        best = -1.0e300
        running = 1.0e300
        for i in range(h_vals.shape[0]):
            cand = g_vals[i] + s_err[i]
            if cand < running:
                running = cand
            viol = h_vals[i] - t_err[i] - running
            if viol > best:
                best = viol
        return best


def prefix_min_violation(h_vals: np.ndarray, g_vals: np.ndarray,
                         s_err: np.ndarray, t_err: np.ndarray) -> float:
    """max over pairs s <= t of  H(d(x(t),z)) - G(d(x(s),z)) - e(s,t)

    for separable errors e(s, t) = s_err[s] + t_err[t]; the quasi-Fejer
    inequality holds on the window up to eps iff this is <= eps.
    """
    h_vals = np.ascontiguousarray(h_vals, dtype=np.float64)
    g_vals = np.ascontiguousarray(g_vals, dtype=np.float64)
    s_err = np.ascontiguousarray(s_err, dtype=np.float64)
    t_err = np.ascontiguousarray(t_err, dtype=np.float64)
    if _HAVE_NUMBA:
        return float(_prefix_min_violation_nb(h_vals, g_vals, s_err, t_err))
    return _prefix_min_violation_numpy(h_vals, g_vals, s_err, t_err)
