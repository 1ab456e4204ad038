"""Answer check: float64 error by the norm expansion, orthonormality, digest.

``||X - G x U||^2 = ||X||^2 - 2 <X x U^T, G> + <G, G x (U^T U)>``, all in
float64.  ``X x U^T`` is accumulated one mode-0 slab at a time, so neither
the reconstruction nor a float64 copy of the input is ever formed.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Orthonormality tolerance in units of the factor dtype's epsilon.
ORTHO_ULPS = 400
SLAB = 16


def _ttm(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """``t x_mode m`` (``m`` is out x in), plain NumPy."""
    moved = np.moveaxis(t, mode, 0)
    out = (m @ moved.reshape(moved.shape[0], -1)).reshape((m.shape[0],) + moved.shape[1:])
    return np.moveaxis(out, 0, mode)


def project(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """``X x_1 U_1^T ... x_d U_d^T`` in float64, one mode-0 slab at a time."""
    us = [np.asarray(u, dtype=np.float64) for u in factors]
    acc = None
    for i in range(0, x.shape[0], SLAB):
        y = np.asarray(x[i : i + SLAB], dtype=np.float64)
        for mode in range(x.ndim - 1, 0, -1):
            y = _ttm(y, us[mode].T, mode)
        part = _ttm(y, us[0][i : i + SLAB].T, 0)
        acc = part if acc is None else acc + part
    return acc


def relative_error(
    x: np.ndarray, x_norm_sq: float, core: np.ndarray, factors: list[np.ndarray]
) -> float:
    """Float64 ``||X - G x U|| / ||X||`` without forming the reconstruction."""
    g = np.asarray(core, dtype=np.float64)
    cross = float(np.vdot(project(x, factors), g))
    gg = g
    for mode, u in enumerate(factors):
        u64 = np.asarray(u, dtype=np.float64)
        gg = _ttm(gg, u64.T @ u64, mode)
    approx_sq = float(np.vdot(g, gg))
    err_sq = max(x_norm_sq - 2.0 * cross + approx_sq, 0.0)
    return (err_sq / x_norm_sq) ** 0.5


def orthonormality_ulps(factors: list[np.ndarray]) -> float:
    """Largest ``|U^T U - I|`` entry in units of the factor dtype's epsilon."""
    worst = 0.0
    for u in factors:
        u64 = np.asarray(u, dtype=np.float64)
        drift = np.max(np.abs(u64.T @ u64 - np.eye(u.shape[1])), initial=0.0)
        worst = max(worst, float(drift) / float(np.finfo(u.dtype).eps))
    return worst


def digest(core: np.ndarray, factors: list[np.ndarray]) -> str:
    """Bit-identity digest of an answer (dtype, shape and bytes)."""
    h = hashlib.sha256()
    for a in [core, *factors]:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def full_check(
    x: np.ndarray, x_norm_sq: float, eps: float, core: np.ndarray, factors: list[np.ndarray]
) -> dict:
    """Everything but bit-identity, which needs the op's first answer."""
    err = relative_error(x, x_norm_sq, core, factors)
    ulps = orthonormality_ulps(factors)
    finite = bool(np.isfinite(core).all() and all(np.isfinite(u).all() for u in factors))
    return {
        "rel_error": err,
        "ortho_ulps": ulps,
        "finite": finite,
        "meets_eps": err <= eps,
        "orthonormal": ulps <= ORTHO_ULPS,
    }
