"""Closed-form two-configuration Procrustes solvers and the Procrustes distance.

The orthogonal solver finds the matrix Q minimizing ||Q X - Y||_F over the
full orthogonal group (reflections allowed).  The affine solver additionally
optimizes a translation by centering both sides, and works on the common
domain of two partially defined configurations, which yields the
(missing-points) Procrustes distance used throughout the ensemble stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_types import Configuration, RigidMotion, centroid, restrict_common
from .errors import DimensionMismatch

__all__ = [
    "PairAlignment",
    "deterministic_svd",
    "orthogonal_procrustes",
    "affine_procrustes",
    "procrustes_distance",
]

# Relative threshold under which a singular-vector entry counts as zero when
# fixing signs; only affects reproducibility bookkeeping, never Q itself.
_SIGN_EPS = 1e-12


def _column_signs(vecs):
    """+1 or -1 per column: the sign that makes its first entry of
    non-negligible magnitude positive."""
    signs = np.ones(vecs.shape[1])
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.flatnonzero(np.abs(col) > _SIGN_EPS * max(1.0, np.abs(col).max()))
        if big.size and col[big[0]] < 0:
            signs[j] = -1.0
    return signs


def deterministic_svd(m):
    """SVD with a fixed sign convention.

    Singular values come back in decreasing order (LAPACK convention); each
    left singular vector is flipped, together with its right partner, so
    that its first entry of non-negligible magnitude is positive.  The
    products U @ Vt and U @ diag(s) @ Vt are unchanged by the flips; the
    convention just pins the factors themselves so downstream spectral
    embeddings are reproducible.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float))
    signs = _column_signs(u)
    k = min(len(signs), vt.shape[0])
    vt[:k] *= signs[:k, None]
    return u * signs, s, vt


def _as_matrix_pair(x, y):
    """Extract aligned (d, m) matrices from two inputs.

    Accepts Configuration pairs (which must share dim, n_global, and mask)
    or plain array pairs of equal shape.
    """
    if isinstance(x, Configuration) and isinstance(y, Configuration):
        if x.dim != y.dim or x.n_global != y.n_global:
            raise DimensionMismatch("configurations are not compatible")
        if not np.array_equal(x.mask, y.mask):
            raise DimensionMismatch(
                "orthogonal_procrustes needs identical domains; restrict first"
            )
        return x.present_matrix(), y.present_matrix()
    xm = np.asarray(x, dtype=float)
    ym = np.asarray(y, dtype=float)
    if xm.shape != ym.shape or xm.ndim != 2:
        raise DimensionMismatch(f"matrix shapes {xm.shape} and {ym.shape} differ")
    return xm, ym


def orthogonal_procrustes(x, y):
    """Best orthogonal Q matching Q @ X to Y in Frobenius norm.

    Inputs must share a domain (restrict first) and should already be
    centered when translation invariance is wanted.  Q = U Vt for the SVD
    of the cross-covariance Y X^T.  When the cross-covariance is rank
    deficient the minimizer is not unique; the returned Q is the one the
    fixed SVD convention yields.
    """
    xm, ym = _as_matrix_pair(x, y)
    u, _, vt = deterministic_svd(ym @ xm.T)
    return u @ vt


@dataclass(frozen=True)
class PairAlignment:
    """Optimal rigid motion of X onto Y plus the residual distance."""

    motion: RigidMotion
    distance: float
    overlap_size: int


def affine_procrustes(x, y):
    """Best affine isometry of X onto Y over their common domain.

    Restricts both configurations to the intersection of their domains,
    centers each side, solves the orthogonal problem there, and returns the
    motion x -> Qx + (b - Qa) together with the Frobenius residual on the
    overlap.
    """
    xr, yr = restrict_common(x, y)
    a = centroid(xr)
    b = centroid(yr)
    xm = xr.present_matrix() - a[:, None]
    ym = yr.present_matrix() - b[:, None]
    q = orthogonal_procrustes(xm, ym)
    residual = float(np.linalg.norm(q @ xm - ym))
    motion = RigidMotion(q, b - q @ a)
    return PairAlignment(motion=motion, distance=residual, overlap_size=xr.n_present)


def procrustes_distance(x, y):
    """Procrustes distance: the residual of the optimal affine alignment.

    A true (pseudo)metric on full common domains; on partial overlaps it is
    only a dissimilarity measure.
    """
    return affine_procrustes(x, y).distance
