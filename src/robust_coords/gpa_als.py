"""Generalized Procrustes alignment by alternating least squares.

Given k configurations on a shared index set, find rigid motions g_i and a
mean configuration Z minimizing

    E = (1/k) * sum_i || (g_i . X_i - Z) restricted to the domain of X_i ||_F^2

with Z eliminated as the per-index masked mean of the transformed inputs,
held only over the indices they cover.  Each sweep is the refined update
(Ten Berge 1977) generalized to partial domains: every rotation is solved
against the mean with the configuration's own contribution removed, using
per-index averaging counts and a per-configuration translation, and the
mean is updated after every single rotation.  This solves two
configurations exactly and, unlike the frozen-mean sweep, does not stall at
the antipodal saddle.

The module also houses the diagnostics: the symmetry residuals of the
mean/input cross-covariances that ``als_align`` records (zero at critical
points), the first- and second-derivative forms along one-parameter rotation
subgroups and the Hessian matrix, all three read off one gradient vector and
Hessian matrix in the antisymmetric basis of ``hessian_matrix``, and
essential dimensionality of a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .core_types import Configuration, RigidMotion, _check_compatible, _check_fields, centroid
from .errors import DimensionMismatch, NonFinite, NotAntisymmetric
from .procrustes_pair import _nearest_orthogonal

__all__ = [
    "AlsOptions",
    "GpaProblem",
    "AlignmentResult",
    "gpa_loss",
    "als_align",
    "gradient_form",
    "hessian_form",
    "hessian_matrix",
    "essential_dimension",
]

@dataclass(frozen=True)
class AlsOptions:
    """Termination controls for the ALS sweeps.

    ``tol`` is in loss-change units: a sweep that changes the loss by less
    than ``tol`` terminates the iteration, but only after ``min_iter``
    sweeps have run (guards against stopping at unstable critical points).
    """

    tol: float = 1e-10
    max_iter: int = 500
    min_iter: int = 3

    def __post_init__(self):
        _check_fields(self)
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not (self.max_iter >= self.min_iter >= 0):
            raise ValueError("need max_iter >= min_iter >= 0")


@dataclass(frozen=True)
class GpaProblem:
    """k configurations sharing ambient dimension and global index set."""

    configs: tuple
    options: AlsOptions = field(default_factory=AlsOptions)

    def __post_init__(self):
        configs = tuple(self.configs)
        if not configs:
            raise ValueError("need at least one configuration")
        for c in configs[1:]:
            _check_compatible(configs[0], c)
        object.__setattr__(self, "configs", configs)

    @property
    def k(self):
        return len(self.configs)

    @property
    def dim(self):
        return self.configs[0].dim

    @property
    def n_global(self):
        return self.configs[0].n_global


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Motions, masked mean, and convergence record of one ALS run.

    The solution is in the first input's frame: the first motion's rotation
    is the identity, up to rounding.  ``mean`` is defined exactly on the
    indices covered by at least one input; its column at index j averages
    only the transformed configurations whose domain contains j.
    ``loss_trace`` holds the loss after initialization and after each
    sweep, and ``loss`` (its last entry) and ``iterations`` (the sweeps
    run) are derived from it.  ``symmetry_residuals[i]`` is the relative
    asymmetry of the cross-covariance of the mean and the i-th transformed
    input over its domain, which vanishes at critical points of the loss.
    ``motions`` and ``mean`` are written as point CSVs, so they are left
    out of the JSON record.
    """

    motions: tuple = field(metadata={"json": False})
    mean: Configuration = field(metadata={"json": False})
    loss: float = field(init=False)
    loss_trace: np.ndarray
    iterations: int = field(init=False)
    converged: bool
    symmetry_residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loss", float(self.loss_trace[-1]))
        object.__setattr__(self, "iterations", len(self.loss_trace) - 1)


def _covered(problem):
    """The sorted union of the inputs' present indices, each input's
    positions in it, and 1 / (the number of inputs holding each union index).

    Every input holds at least one index, so no count is zero.  The mean
    over the union is ``_position_totals(...) * inv_counts``.
    """
    idx = [c.present_indices() for c in problem.configs]
    union = np.unique(np.concatenate(idx))
    pos = [np.searchsorted(union, ix) for ix in idx]
    return union, pos, 1.0 / np.bincount(np.concatenate(pos))


def _position_totals(pos, blocks, d, u):
    """Sums (d, u) of the (d, n_i) blocks placed at their union positions."""
    total = np.zeros((d, u))
    for ix, block in zip(pos, blocks):
        total[:, ix] += block
    return total


def gpa_loss(problem, motions):
    """Loss E for explicit motions, with the mean recomputed internally."""
    if len(motions) != problem.k:
        raise DimensionMismatch("need one motion per configuration")
    transformed = []
    for cfg, g in zip(problem.configs, motions):
        if g.dim != problem.dim:
            raise DimensionMismatch("motion dimension mismatch")
        transformed.append(g.apply(cfg.present_matrix()))
    union, pos, inv_counts = _covered(problem)
    mean = _position_totals(pos, transformed, problem.dim, union.size) * inv_counts
    return _masked_loss(pos, transformed, mean)


def _masked_loss(pos, blocks, mean):
    """Mean over configurations of each block's squared distance from the
    mean at its union positions."""
    total = 0.0
    for ix, block in zip(pos, blocks):
        total += float(np.sum((block - mean[:, ix]) ** 2))
    return total / len(blocks)


def _check_finite_loss(value):
    if not np.isfinite(value):
        raise NonFinite("ALS loss became non-finite")


def als_align(problem):
    """Run the ALS sweeps to termination and pin the first input's frame.

    Terminates when the loss changes by less than ``tol`` after at least
    ``min_iter`` sweeps, or at ``max_iter`` sweeps.  The loss is invariant
    under one global rigid motion, so the solution is then rotated by the
    inverse of the first rotation, unless that is already the identity
    within 1e-15.  The mean is held over the indices the inputs cover, not
    all n_global.  Raises NonFinite if the loss leaves the reals.
    """
    opts = problem.options
    k, d = problem.k, problem.dim
    union, pos, inv_counts = _covered(problem)

    # Pre-center each configuration (the translations are re-estimated every
    # sweep, so this only changes the starting point); with full masks the
    # trace then coincides exactly with the full-domain refined sweep's.
    offsets = [centroid(c) for c in problem.configs]
    xc = [c.present_matrix() - a[:, None] for c, a in zip(problem.configs, offsets)]

    rotations = [np.eye(d) for _ in range(k)]
    shifts = [np.zeros(d) for _ in range(k)]
    # C order like every block a sweep makes: np.sum's order follows layout
    blocks = [np.ascontiguousarray(block) for block in xc]

    total = _position_totals(pos, blocks, d, union.size)
    mean = total * inv_counts

    trace = [_masked_loss(pos, blocks, mean)]
    _check_finite_loss(trace[-1])
    converged = False
    for sweep in range(opts.max_iter):
        for i in range(k):
            ix = pos[i]
            shifts[i] = mean[:, ix].mean(axis=1)
            gap = mean[:, ix] - shifts[i][:, None]
            w = inv_counts[ix]
            rotated = rotations[i] @ xc[i]
            rotations[i] = _nearest_orthogonal((gap - rotated * w) @ xc[i].T)
            new_block = rotations[i] @ xc[i] + shifts[i][:, None]
            total[:, ix] += new_block - blocks[i]
            blocks[i] = new_block
            mean[:, ix] = total[:, ix] * w
        # Exact recompute once per sweep to shed incremental round-off.
        total = _position_totals(pos, blocks, d, union.size)
        mean = total * inv_counts
        trace.append(_masked_loss(pos, blocks, mean))
        _check_finite_loss(trace[-1])
        if sweep + 1 >= opts.min_iter and abs(trace[-2] - trace[-1]) < opts.tol:
            converged = True
            break

    motions = tuple(
        RigidMotion(rotations[i], shifts[i] - rotations[i] @ offsets[i])
        for i in range(k)
    )
    residuals = np.array(
        [_symmetry_residual_matrices(mean[:, pos[i]], blocks[i]) for i in range(k)]
    )
    mean_cfg = Configuration._compact(mean, union, problem.n_global)
    # the pin leaves the residuals as they are: ||Q^T M Q - (Q^T M Q)^T||
    # = ||M - M^T|| for orthogonal Q
    q1 = motions[0].rotation
    if not np.allclose(q1, np.eye(d), atol=1e-15):
        head = RigidMotion(q1.T, np.zeros(d))
        motions = tuple(head.compose(g) for g in motions)
        mean_cfg = mean_cfg.transformed(head)
    return AlignmentResult(
        motions=motions,
        mean=mean_cfg,
        loss_trace=np.asarray(trace),
        converged=converged,
        symmetry_residuals=residuals,
    )


def _symmetry_residual_matrices(mean_block, transformed_block):
    m = mean_block @ transformed_block.T
    return float(np.linalg.norm(m - m.T) / max(1.0, np.linalg.norm(m)))


def _derivatives(problem, result):
    """The gradient vector and Hessian matrix of the loss at ``result``.

    Full-domain case.  With Y_i the transformed inputs and Z their mean,
    E = (1/k) sum_i ||Y_i||^2 - ||Z||^2, so along Q_i(t) = exp(A_i t),
    dE = -2 <Z, V> / k and d2E = -2 (||V||^2 / k + <Z, C>) / k for
    V = sum_i A_i Y_i and C = sum_i A_i^2 Y_i (Gower & Dijksterhuis 2004),
    in the coordinates that ``hessian_matrix`` documents.
    """
    if any(c.n_present < c.n_global for c in problem.configs):
        raise DimensionMismatch(
            "the gradient and Hessian diagnostics require full-domain configurations"
        )
    k, d, n = problem.k, problem.dim, problem.n_global
    y = np.stack([g.apply(c.coords) for c, g in zip(problem.configs, result.motions)])
    z = result.mean.coords
    u, v = np.triu_indices(d, 1)
    basis = np.einsum("bd,be->bde", np.eye(d)[u], np.eye(d)[v])
    basis -= basis.transpose(0, 2, 1)  # E_uv - E_vu
    moved = np.einsum("bde,ien->ibdn", basis, y[1:])  # E_b Y_i
    flat = moved.reshape(-1, d * n)
    # <Z, E_b E_c Y_i> = -<E_b Z, E_c Y_i>, symmetrised over b and c
    turned = np.einsum("ibdn,cdn->ibc", moved, np.einsum("bde,en->bdn", basis, z))
    curvature = block_diag(*(turned + turned.transpose(0, 2, 1))) / 2
    return -(2.0 / k) * (flat @ z.ravel()), -(2.0 / k) * (flat @ flat.T / k - curvature)


def _coordinates(problem, directions):
    """The checked directions' coordinates in the basis of ``_derivatives``."""
    k, d = problem.k, problem.dim
    a = np.asarray(directions, dtype=float)
    if a.shape != (k, d, d):
        raise DimensionMismatch(f"need {k} direction matrices of shape ({d},{d})")
    if np.abs(a + a.transpose(0, 2, 1)).max() > 1e-12:
        raise NotAntisymmetric("direction matrices must be antisymmetric")
    if np.abs(a[0]).max() != 0.0:
        raise ValueError("the first direction matrix must be zero")
    u, v = np.triu_indices(d, 1)
    return a[1:, u, v].ravel()


def gradient_form(problem, result, directions):
    """First derivative of the loss along rotations Q_i(t) = exp(A_i t).

    Full-domain case; ``directions`` is as for ``hessian_form``.  Vanishes
    (for every antisymmetric choice) exactly at critical points of the
    constrained loss.
    """
    a = _coordinates(problem, directions)
    gradient, _ = _derivatives(problem, result)
    return float(gradient @ a)


def hessian_form(problem, result, directions):
    """Second derivative of the loss along rotations Q_i(t) = exp(A_i t).

    Full-domain case.  ``directions`` is a length-k sequence of
    antisymmetric d x d matrices whose first entry is zero (the first
    frame is pinned); the form is ``hessian_matrix`` at their coordinates.
    Positive values in every direction certify an isolated local minimum.
    """
    a = _coordinates(problem, directions)
    _, hessian = _derivatives(problem, result)
    return float(a @ hessian @ a)


def hessian_matrix(problem, result):
    """The Hessian in the standard antisymmetric basis, and its eigenvalues.

    Full-domain case.  Coordinates run over configurations i = 2..k (the
    first is pinned) and basis elements E_uv - E_vu with u < v in
    lexicographic order, giving a symmetric matrix of size
    (k-1) * d*(d-1)/2.  Returns (H, eigenvalues).
    """
    _, hessian = _derivatives(problem, result)
    return hessian, np.linalg.eigvalsh(hessian)


def essential_dimension(x, rel_tol):
    """Number of singular values of the centered matrix above rel_tol * max.

    Returns 0 for a configuration whose centered matrix vanishes.
    """
    m = x.present_matrix()
    m = m - m.mean(axis=1, keepdims=True)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s >= rel_tol * s[0]))
