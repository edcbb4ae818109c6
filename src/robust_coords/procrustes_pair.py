"""Closed-form two-configuration Procrustes solvers and the Procrustes distance.

The orthogonal solver finds the matrix Q minimizing ||Q X - Y||_F over the
full orthogonal group (reflections allowed).  The affine solver additionally
optimizes a translation by centering both sides, and works on the common
domain of two partially defined configurations, which yields the
(missing-points) Procrustes distance used throughout the ensemble stage.
Every rotation fit in the package, these two solvers and the ALS sweeps of
``gpa_als``, goes through ``_nearest_orthogonal``: Q = U Vt from one SVD.
No sign convention is needed, since flipping a column of U together with
the matching row of Vt leaves U Vt unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_types import RigidMotion, _check_compatible, _common_domain
from .errors import DimensionMismatch

__all__ = [
    "PairAlignment",
    "orthogonal_procrustes",
    "affine_procrustes",
    "procrustes_distance",
]


def _nearest_orthogonal(cross):
    """The orthogonal Q maximizing trace(Q^T C) for a square cross-covariance
    C: Q = U Vt for the SVD C = U diag(s) Vt."""
    u, _, vt = np.linalg.svd(cross)
    return u @ vt


def orthogonal_procrustes(x, y):
    """Best orthogonal Q matching Q @ X to Y in Frobenius norm.

    Inputs are Configurations on one domain (restrict first) and should be
    centered when translation invariance is wanted.  Q = U Vt for the SVD
    of the cross-covariance Y X^T, with U and Vt as LAPACK returns them;
    their signs do not enter U Vt.  When the cross-covariance is rank
    deficient the minimizer is not unique; the returned Q is the one that
    SVD yields.
    """
    _check_compatible(x, y)
    if not np.array_equal(x.present_indices(), y.present_indices()):
        raise DimensionMismatch("orthogonal_procrustes needs identical domains; restrict first")
    return _nearest_orthogonal(y.present_matrix() @ x.present_matrix().T)


@dataclass(frozen=True)
class PairAlignment:
    """Optimal rigid motion of X onto Y plus the residual distance."""

    motion: RigidMotion
    distance: float
    overlap_size: int


def affine_procrustes(x, y):
    """Best affine isometry of X onto Y over their common domain.

    Takes the columns both configurations define, centers each side,
    solves the orthogonal problem there, and returns the motion
    x -> Qx + (b - Qa) together with the Frobenius residual on the overlap.
    Raises DimensionMismatch and EmptyOverlap as ``restrict_common`` does.
    """
    _, xm, ym = _common_domain(x, y)
    a = xm.mean(axis=1)
    b = ym.mean(axis=1)
    xm -= a[:, None]
    ym -= b[:, None]
    q = _nearest_orthogonal(ym @ xm.T)
    residual = float(np.linalg.norm(q @ xm - ym))
    motion = RigidMotion(q, b - q @ a)
    return PairAlignment(motion=motion, distance=residual, overlap_size=xm.shape[1])


def procrustes_distance(x, y):
    """Procrustes distance: the residual of the optimal affine alignment.

    A true (pseudo)metric on full common domains; on partial overlaps it is
    only a dissimilarity measure.
    """
    return affine_procrustes(x, y).distance
