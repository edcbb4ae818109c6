"""Generalized Procrustes alignment by alternating least squares.

Given k configurations on a shared index set, find rigid motions g_i and a
mean configuration Z minimizing

    E = (1/k) * sum_i || (g_i . X_i - Z) restricted to the domain of X_i ||_F^2

with Z eliminated as the per-index masked mean of the transformed inputs.
Each sweep is the refined update (Ten Berge 1977) generalized to partial
domains: every rotation is solved against the mean with the
configuration's own contribution removed, using per-index averaging counts
and a per-configuration translation, and the mean is updated after every
single rotation.  This solves two configurations exactly and, unlike the
frozen-mean sweep, does not stall at the antipodal saddle.

The module also houses the post-hoc diagnostics: symmetry residuals of the
mean/input cross-covariances (zero at critical points), the second-derivative
quadratic form along one-parameter rotation subgroups, and essential
dimensionality of a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core_types import Configuration, RigidMotion, _check_compatible, centroid
from .errors import (
    DimensionMismatch,
    DroppedAllIndices,
    NonFinite,
    NotAntisymmetric,
)
from .procrustes_pair import _nearest_orthogonal

__all__ = [
    "AlsOptions",
    "GpaProblem",
    "AlignmentResult",
    "gpa_loss",
    "als_align",
    "normalize_first_fixed",
    "symmetry_residual",
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

    def masks(self):
        """Stacked presence masks, shape (k, n)."""
        return np.stack([c.mask for c in self.configs])


@dataclass(frozen=True)
class AlignmentResult:
    """Motions, masked mean, and convergence record of one ALS run.

    ``mean`` is defined exactly on the indices covered by at least one
    input; its column at index j averages only the transformed
    configurations whose domain contains j.  ``loss_trace`` holds the loss
    after initialization and after each sweep.  ``motions`` and ``mean``
    are written as point CSVs, so they are left out of the JSON record.
    """

    motions: tuple = field(metadata={"json": False})
    mean: Configuration = field(metadata={"json": False})
    loss: float
    loss_trace: np.ndarray
    iterations: int
    converged: bool
    symmetry_residuals: np.ndarray


def _inverse_counts(idx, n):
    """1 / (number of index sets holding j) for each of n indices, 0 where none does.

    The masked mean is ``_index_totals(...) * _inverse_counts(...)``.
    """
    counts = np.zeros(n)
    for ix in idx:
        counts[ix] += 1.0
    active = counts > 0
    if not active.any():
        raise DroppedAllIndices("no index is present in any configuration")
    inv_counts = np.zeros(n)
    inv_counts[active] = 1.0 / counts[active]
    return inv_counts


def _index_totals(idx, blocks, d, n):
    """Per-index sums (d, n) of the (d, n_i) blocks placed at their index sets."""
    total = np.zeros((d, n))
    for ix, block in zip(idx, blocks):
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
    d, n = problem.dim, problem.n_global
    idx = [cfg.present_indices() for cfg in problem.configs]
    mean = _index_totals(idx, transformed, d, n) * _inverse_counts(idx, n)
    return _masked_loss(idx, transformed, mean)


def _masked_loss(idx, blocks, mean):
    """Mean over configurations of each block's squared distance from the
    mean at its index set."""
    total = 0.0
    for ix, block in zip(idx, blocks):
        total += float(np.sum((block - mean[:, ix]) ** 2))
    return total / len(blocks)


def _check_finite_loss(value):
    if not np.isfinite(value):
        raise NonFinite("ALS loss became non-finite")


def als_align(problem):
    """Run the ALS sweeps to termination.

    Terminates when the loss changes by less than ``tol`` after at least
    ``min_iter`` sweeps, or at ``max_iter`` sweeps.  Raises NonFinite if
    the loss leaves the reals (degenerate input data).
    """
    opts = problem.options
    k, d, n = problem.k, problem.dim, problem.n_global

    idx = [c.present_indices() for c in problem.configs]
    inv_counts = _inverse_counts(idx, n)

    # Pre-center each configuration (the translations are re-estimated every
    # sweep, so this only changes the starting point); with full masks the
    # trace then coincides exactly with the full-domain refined sweep's.
    offsets = [centroid(c) for c in problem.configs]
    xc = [c.present_matrix() - a[:, None] for c, a in zip(problem.configs, offsets)]

    rotations = [np.eye(d) for _ in range(k)]
    shifts = [np.zeros(d) for _ in range(k)]
    blocks = [block.copy() for block in xc]

    total = _index_totals(idx, blocks, d, n)
    mean = total * inv_counts

    trace = [_masked_loss(idx, blocks, mean)]
    _check_finite_loss(trace[-1])
    iterations = 0
    converged = False
    for sweep in range(opts.max_iter):
        for i in range(k):
            ix = idx[i]
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
        total = _index_totals(idx, blocks, d, n)
        mean = total * inv_counts
        iterations = sweep + 1
        trace.append(_masked_loss(idx, blocks, mean))
        _check_finite_loss(trace[-1])
        if iterations >= opts.min_iter and abs(trace[-2] - trace[-1]) < opts.tol:
            converged = True
            break

    motions = tuple(
        RigidMotion(rotations[i], shifts[i] - rotations[i] @ offsets[i])
        for i in range(k)
    )
    mean_cfg = Configuration(mean, inv_counts > 0)
    residuals = np.array(
        [
            _symmetry_residual_matrices(mean[:, idx[i]], blocks[i])
            for i in range(k)
        ]
    )
    return AlignmentResult(
        motions=motions,
        mean=mean_cfg,
        loss=trace[-1],
        loss_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        symmetry_residuals=residuals,
    )


def normalize_first_fixed(result):
    """Rotate the whole solution so the first motion's rotation is Id.

    Applies the inverse of the first rotation to every motion and to the
    mean; the loss and all pairwise relations are unchanged.
    """
    q1 = result.motions[0].rotation
    if np.allclose(q1, np.eye(q1.shape[0]), atol=1e-15):
        return result
    head = RigidMotion(q1.T, np.zeros(q1.shape[0]))
    motions = tuple(head.compose(g) for g in result.motions)
    mean = result.mean.transformed(head)
    return replace(result, motions=motions, mean=mean)


def _symmetry_residual_matrices(mean_block, transformed_block):
    m = mean_block @ transformed_block.T
    return float(np.linalg.norm(m - m.T) / max(1.0, np.linalg.norm(m)))


def symmetry_residual(problem, result, i):
    """Relative asymmetry of Z (transformed X_i)^T over the shared indices.

    Vanishes at critical points of the alignment loss; large values flag a
    run that terminated away from criticality.
    """
    cfg = problem.configs[i]
    block = result.motions[i].apply(cfg.present_matrix())
    return _symmetry_residual_matrices(
        result.mean.coords[:, cfg.present_indices()], block
    )


def _transformed_stack(problem, result):
    if not problem.masks().all():
        raise DimensionMismatch(
            "the gradient and Hessian diagnostics require full-domain configurations"
        )
    stack = np.stack([c.coords for c in problem.configs])
    out = np.empty_like(stack)
    for i, g in enumerate(result.motions):
        out[i] = g.apply(stack[i])
    return out


def _validate_directions(directions, k, d):
    a = np.asarray(directions, dtype=float)
    if a.shape != (k, d, d):
        raise DimensionMismatch(f"need {k} direction matrices of shape ({d},{d})")
    if np.abs(a + a.transpose(0, 2, 1)).max() > 1e-12:
        raise NotAntisymmetric("direction matrices must be antisymmetric")
    if np.abs(a[0]).max() != 0.0:
        raise ValueError("the first direction matrix must be zero")
    return a


def gradient_form(problem, result, directions):
    """First derivative of the loss along rotations Q_i(t) = exp(A_i t).

    Full-domain case.  Vanishes (for every antisymmetric choice) exactly at
    critical points of the constrained loss.
    """
    a = _validate_directions(directions, problem.k, problem.dim)
    y = _transformed_stack(problem, result)
    z = result.mean.coords
    velocity = np.einsum("kde,ken->dn", a, y)
    return float(-(2.0 / problem.k) * np.sum(z * velocity))


def hessian_form(problem, result, directions):
    """Second derivative of the loss along rotations Q_i(t) = exp(A_i t).

    Full-domain case.  ``directions`` is a length-k sequence of
    antisymmetric d x d matrices whose first entry is zero (the first
    configuration's frame is pinned).  Positive values in every direction
    certify an isolated local minimum.
    """
    a = _validate_directions(directions, problem.k, problem.dim)
    y = _transformed_stack(problem, result)
    z = result.mean.coords
    k = problem.k
    velocity = np.einsum("kde,ken->dn", a, y)
    curvature = np.einsum("kde,ken->dn", a @ a, y)
    return float(
        -(2.0 / k) * (np.sum(velocity**2) / k + np.sum(z * curvature))
    )


def _antisym_basis(d):
    basis = []
    for u in range(d):
        for v in range(u + 1, d):
            e = np.zeros((d, d))
            e[u, v] = 1.0
            e[v, u] = -1.0
            basis.append(e)
    return basis


def hessian_matrix(problem, result):
    """Assemble the Hessian in the standard antisymmetric basis.

    Coordinates run over configurations i = 2..k (the first is pinned) and
    basis elements E_uv - E_vu with u < v in lexicographic order, giving a
    symmetric matrix of size (k-1) * d*(d-1)/2.  Returns (H, eigenvalues).
    """
    k, d = problem.k, problem.dim
    basis = _antisym_basis(d)
    m = (k - 1) * len(basis)
    units = []
    for i in range(1, k):
        for e in basis:
            a = np.zeros((k, d, d))
            a[i] = e
            units.append(a)

    def q(a):
        return hessian_form(problem, result, a)

    q_single = [q(a) for a in units]
    h = np.empty((m, m))
    for p in range(m):
        h[p, p] = q_single[p]
        for r in range(p + 1, m):
            q_pair = q(units[p] + units[r])
            h[p, r] = h[r, p] = 0.5 * (q_pair - q_single[p] - q_single[r])
    return h, np.linalg.eigvalsh(h)


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
