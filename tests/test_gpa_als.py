import numpy as np
import pytest
from scipy.linalg import expm

from robust_coords.core_types import Configuration, RigidMotion
from robust_coords.errors import DimensionMismatch, NotAntisymmetric
from robust_coords.gpa_als import (
    AlignmentResult,
    AlsOptions,
    GpaProblem,
    _check_finite_loss,
    _symmetry_residual_matrices,
    als_align,
    essential_dimension,
    gpa_loss,
    gradient_form,
    hessian_form,
    hessian_matrix,
)
from robust_coords.procrustes_pair import (
    _nearest_orthogonal,
    affine_procrustes,
    procrustes_distance,
)

from conftest import random_config, random_motion


def full_problem(rng, k=4, d=2, n=20, **opts):
    cfgs = tuple(random_config(rng, d=d, n=n) for _ in range(k))
    return GpaProblem(cfgs, AlsOptions(**opts))


def masked_problem(rng, k=4, d=2, n=30, prob=0.7, **opts):
    cfgs = tuple(random_config(rng, d=d, n=n, mask_prob=prob) for _ in range(k))
    return GpaProblem(cfgs, AlsOptions(**opts))


def random_antisym_directions(rng, k, d, scale=1.0):
    a = np.zeros((k, d, d))
    for i in range(1, k):
        m = rng.normal(size=(d, d)) * scale
        a[i] = 0.5 * (m - m.T)
    return a


# ------------------------------------------------- full-domain ALS oracle


def als_full(problem, variant):
    """The full-domain sweeps in the centered formulation, as an oracle.

    ``refined`` solves each rotation against the mean with the
    configuration's own contribution removed and updates the mean after
    every rotation; with full domains ``als_align`` must reproduce its loss
    trace.  ``basic`` solves every rotation against the frozen mean, then
    recomputes the mean, and can stall at unstable critical points.
    """
    assert variant in ("basic", "refined")
    assert problem.masks().all()
    opts = problem.options
    k, d = problem.k, problem.dim
    raw = np.stack([c.coords for c in problem.configs])
    centroids = raw.mean(axis=2)
    x = raw - centroids[:, :, None]
    sq_const = float(np.sum(x**2)) / k

    rotations = np.tile(np.eye(d), (k, 1, 1))
    y = x.copy()
    mean = y.mean(axis=0)

    def current_loss():
        # E = (1/k) sum ||X_i||^2 - ||Z||^2, valid because Z is the mean.
        return sq_const - float(np.sum(mean**2))

    trace = [current_loss()]
    _check_finite_loss(trace[-1])
    iterations = 0
    converged = False
    for sweep in range(opts.max_iter):
        if variant == "basic":
            cross = np.einsum("dn,kcn->kdc", mean, x)
            for i in range(k):
                rotations[i] = _nearest_orthogonal(cross[i])
            y = rotations @ x
            mean = y.mean(axis=0)
        else:
            for i in range(k):
                rotations[i] = _nearest_orthogonal((mean - y[i] / k) @ x[i].T)
                y_new = rotations[i] @ x[i]
                mean = mean + (y_new - y[i]) / k
                y[i] = y_new
            mean = y.mean(axis=0)
        iterations = sweep + 1
        trace.append(current_loss())
        _check_finite_loss(trace[-1])
        if iterations >= opts.min_iter and abs(trace[-2] - trace[-1]) < opts.tol:
            converged = True
            break

    motions = tuple(
        RigidMotion(rotations[i], -rotations[i] @ centroids[i]) for i in range(k)
    )
    return AlignmentResult(
        motions=motions,
        mean=Configuration(mean, np.ones(problem.n_global, dtype=bool)),
        loss=trace[-1],
        loss_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        symmetry_residuals=np.array(
            [_symmetry_residual_matrices(mean, y[i]) for i in range(k)]
        ),
    )


# ----------------------------------------------------------------- gpa_loss


def test_loss_zero_for_identical_configs(rng):
    base = random_config(rng, n=15)
    problem = GpaProblem((base, base, base))
    motions = [RigidMotion.identity(2)] * 3
    assert gpa_loss(problem, motions) <= 1e-30


def test_loss_zero_for_single_config(rng):
    cfg = random_config(rng, n=10)
    problem = GpaProblem((cfg,))
    assert gpa_loss(problem, [random_motion(rng, 2)]) <= 1e-25


def test_loss_antipodal_pair(rng):
    x = random_config(rng, n=12)
    centered = Configuration(x.coords - x.coords.mean(axis=1, keepdims=True))
    negated = Configuration(-centered.coords)
    problem = GpaProblem((centered, negated))
    motions = [RigidMotion.identity(2)] * 2
    # mean is zero, so the loss is the average squared norm of the inputs
    expected = float(np.sum(centered.coords**2))
    assert np.isclose(gpa_loss(problem, motions), expected, rtol=1e-12)


def test_loss_forms_agree(rng):
    # direct definition vs the norm-difference shortcut used in the sweeps
    for _ in range(10):
        problem = full_problem(rng, k=3, n=15)
        res = als_align(problem)
        direct = gpa_loss(problem, res.motions)
        assert abs(direct - res.loss) <= 1e-10 * max(1.0, direct)


# ---------------------------------------------------------------- als_align


def test_two_config_loss_matches_closed_form(rng):
    for _ in range(50):
        x = random_config(rng, n=15)
        y = random_config(rng, n=15)
        dist = affine_procrustes(x, y).distance
        res = als_align(GpaProblem((x, y)))
        # with two inputs the aligned halves sit symmetrically around the
        # mean, so the optimal loss is (distance/2)^2 * 2 / 2
        assert abs(res.loss - dist * dist / 4.0) <= 1e-8


def test_exact_alignability(rng):
    base = random_config(rng, d=3, n=25)
    cfgs = tuple(base.transformed(random_motion(rng, 3)) for _ in range(3))
    res = als_align(GpaProblem(cfgs, AlsOptions(tol=1e-17, max_iter=5000)))
    scale = float(np.sum(base.coords**2))
    assert res.loss <= 1e-16 * scale
    assert procrustes_distance(res.mean, base) <= 1e-6


def test_basic_variant_stalls_at_antipodal_saddle(rng):
    x = random_config(rng, n=12)
    centered = Configuration(x.coords - x.coords.mean(axis=1, keepdims=True))
    negated = Configuration(-centered.coords)
    problem = GpaProblem((centered, negated), AlsOptions(min_iter=0))
    res = als_full(problem, "basic")
    assert res.iterations == 1
    for motion in res.motions:
        assert np.allclose(motion.rotation, np.eye(2))
    assert res.loss > 1.0  # nowhere near the achievable optimum
    # the product sweep removes each member's own share of the mean, so it
    # leaves the saddle: the pair is congruent under a half-turn
    scale = float(np.sum(centered.coords**2))
    assert als_align(problem).loss <= 1e-20 * scale


def test_loss_trace_nonincreasing_all_variants(rng):
    for variant in ("basic", "refined", "missing_points"):
        for _ in range(40):
            k = int(rng.integers(2, 6))
            if variant == "missing_points":
                trace = als_align(masked_problem(rng, k=k)).loss_trace
            else:
                trace = als_full(full_problem(rng, k=k), variant).loss_trace
            assert (np.diff(trace) <= 1e-12).all()


def test_missing_variant_reduces_to_refined_on_full_masks(rng):
    for _ in range(20):
        k = int(rng.integers(2, 6))
        cfgs = tuple(random_config(rng, n=18) for _ in range(k))
        refined = als_full(GpaProblem(cfgs), "refined")
        missing = als_align(GpaProblem(cfgs))
        n = min(len(refined.loss_trace), len(missing.loss_trace))
        assert np.abs(refined.loss_trace[:n] - missing.loss_trace[:n]).max() <= 1e-10


def test_mean_is_masked_average_of_members(rng):
    problem = masked_problem(rng, k=5, n=25)
    res = als_align(problem)
    counts = np.zeros(25)
    total = np.zeros((2, 25))
    for cfg, motion in zip(problem.configs, res.motions):
        idx = cfg.present_indices()
        total[:, idx] += motion.apply(cfg.present_matrix())
        counts[idx] += 1
    active = counts > 0
    expected = total[:, active] / counts[active]
    assert np.allclose(res.mean.coords[:, active], expected, atol=1e-9)
    assert np.array_equal(res.mean.mask, active)


def test_mean_perturbation_increases_loss(rng):
    # the masked mean is the unique optimal Z for fixed motions
    problem = full_problem(rng, k=4, n=15)
    res = als_align(problem)
    base = gpa_loss(problem, res.motions)
    blocks = [g.apply(c.present_matrix()) for c, g in zip(problem.configs, res.motions)]
    mean = np.mean(blocks, axis=0)
    k = problem.k
    for _ in range(5):
        bump = np.zeros_like(mean)
        j = rng.integers(0, mean.shape[1])
        bump[:, j] = rng.normal(size=2) * 0.1
        perturbed = mean + bump
        loss = sum(float(np.sum((b - perturbed) ** 2)) for b in blocks) / k
        assert loss > base + 1e-12


def test_first_derivative_vanishes_at_termination(rng):
    for _ in range(10):
        problem = full_problem(rng, k=4, n=20, tol=1e-13, max_iter=3000)
        res = als_align(problem)
        scale = max(1.0, abs(res.loss))
        a = random_antisym_directions(rng, problem.k, problem.dim)
        assert abs(gradient_form(problem, res, a)) <= 1e-6 * scale


# --------------------------------------------------------- normalizations


def test_als_align_pins_the_first_frame(rng):
    # the refined oracle runs the same sweeps without pinning: als_align's
    # solution is the oracle's turned by the inverse of its first rotation,
    # so the first rotation is I, the loss is the same, and the motions
    # relative to the first are unchanged
    problem = full_problem(rng, k=4)
    res = als_align(problem)
    free = als_full(problem, "refined")
    q1 = free.motions[0].rotation
    assert not np.allclose(q1, np.eye(2), atol=1e-3)
    assert np.allclose(res.motions[0].rotation, np.eye(2), atol=1e-12, rtol=0.0)
    assert abs(res.loss - free.loss) <= 1e-12 * max(1.0, free.loss)
    for pinned, g in zip(res.motions, free.motions):
        assert np.allclose(pinned.rotation, q1.T @ g.rotation, atol=1e-9)
        assert np.allclose(pinned.translation, q1.T @ g.translation, atol=1e-9)
    assert np.allclose(res.mean.coords, q1.T @ free.mean.coords, atol=1e-9)
    # the residuals stored before the pin hold for the pinned solution
    for i, cfg in enumerate(problem.configs):
        block = res.motions[i].apply(cfg.coords)
        again = _symmetry_residual_matrices(res.mean.coords, block)
        assert abs(again - res.symmetry_residuals[i]) <= 1e-12


# ------------------------------------------------------------- diagnostics


def test_symmetry_residual_small_at_termination(rng):
    for _ in range(10):
        problem = full_problem(rng, k=4, n=20, tol=1e-12, max_iter=3000)
        res = als_align(problem)
        assert res.symmetry_residuals.max() <= 1e-6


def test_symmetry_residual_zero_for_identical_aligned(rng):
    base = random_config(rng, n=15)
    problem = GpaProblem((base, base, base))
    res = als_align(problem)
    assert res.symmetry_residuals.max() <= 1e-12


def test_symmetry_residual_discriminative_before_alignment(rng):
    # the residual of a random un-aligned input is typically large
    hits = 0
    for _ in range(100):
        problem = full_problem(rng, k=3, n=20)
        motions = tuple(RigidMotion.identity(2) for _ in range(3))
        blocks = [c.coords - c.coords.mean(1, keepdims=True) for c in problem.configs]
        mean = np.mean(blocks, axis=0)
        m = mean @ blocks[1].T
        resid = np.linalg.norm(m - m.T) / max(1.0, np.linalg.norm(m))
        if resid > 1e-2:
            hits += 1
    assert hits >= 90


def test_hessian_form_zero_direction(rng):
    problem = full_problem(rng, k=3)
    res = als_align(problem)
    a = np.zeros((3, 2, 2))
    assert hessian_form(problem, res, a) == 0.0


def test_hessian_form_rejects_bad_directions(rng):
    problem = full_problem(rng, k=3)
    res = als_align(problem)
    bad = np.zeros((3, 2, 2))
    bad[1] = np.array([[0.0, 1.0], [1.0, 0.0]])  # symmetric, not antisymmetric
    with pytest.raises(NotAntisymmetric):
        hessian_form(problem, res, bad)
    nonzero_first = np.zeros((3, 2, 2))
    nonzero_first[0] = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        hessian_form(problem, res, nonzero_first)


def test_rotation_diagnostics_reject_partial_domains(rng):
    problem = masked_problem(rng, k=3)
    res = als_align(problem)
    a = random_antisym_directions(rng, 3, 2)
    for diagnostic in (gradient_form, hessian_form):
        with pytest.raises(DimensionMismatch, match="gradient and Hessian diagnostics"):
            diagnostic(problem, res, a)


def loss_along_path(problem, res, directions, t):
    motions = []
    for i, motion in enumerate(res.motions):
        r = expm(directions[i] * t)
        motions.append(RigidMotion(r @ motion.rotation, r @ motion.translation))
    return gpa_loss(problem, motions)


def test_hessian_matches_finite_differences(rng):
    h = 1e-4
    for _ in range(10):
        k = int(rng.integers(3, 6))
        d = int(rng.choice([2, 3]))
        problem = full_problem(rng, k=k, d=d, n=20, tol=1e-13, max_iter=3000)
        res = als_align(problem)
        a = random_antisym_directions(rng, k, d)
        q = hessian_form(problem, res, a)
        l0 = loss_along_path(problem, res, a, 0.0)
        lp = loss_along_path(problem, res, a, h)
        lm = loss_along_path(problem, res, a, -h)
        fd = (lp - 2.0 * l0 + lm) / (h * h)
        assert abs(q - fd) <= 1e-4 * max(1.0, abs(fd))


def test_hessian_matrix_positive_definite_at_minima(rng):
    for _ in range(5):
        problem = full_problem(rng, k=4, d=2, n=25, tol=1e-13, max_iter=3000)
        res = als_align(problem)
        h, eig = hessian_matrix(problem, res)
        assert h.shape == (3, 3)
        assert np.allclose(h, h.T, atol=1e-9)
        # empirical observation on generic data, not a guarantee
        assert eig.min() > 0


# The direct formulas of the forms and the polarisation that assembled the
# Hessian from them, kept as oracles for the one gradient and Hessian that
# the diagnostics now share.  Agreement is measured against the size of
# the terms (Cauchy-Schwarz bounds of the forms), since the gradient
# vanishes at termination.


def oracle_terms(problem, res, a):
    y = np.stack([g.apply(c.coords) for c, g in zip(problem.configs, res.motions)])
    z = res.mean.coords
    velocity = np.einsum("kde,ken->dn", a, y)
    curvature = np.einsum("kde,ken->dn", a @ a, y)
    return z, velocity, curvature


def gradient_oracle(problem, res, a):
    z, velocity, _ = oracle_terms(problem, res, a)
    scale = (2.0 / problem.k) * np.linalg.norm(z) * np.linalg.norm(velocity)
    return float(-(2.0 / problem.k) * np.sum(z * velocity)), scale


def hessian_oracle(problem, res, a):
    k = problem.k
    z, velocity, curvature = oracle_terms(problem, res, a)
    scale = (2.0 / k) * (
        np.sum(velocity**2) / k + np.linalg.norm(z) * np.linalg.norm(curvature)
    )
    return float(-(2.0 / k) * (np.sum(velocity**2) / k + np.sum(z * curvature))), scale


def polarised_hessian(problem, res):
    k, d = problem.k, problem.dim
    units = []
    for i in range(1, k):
        for u in range(d):
            for v in range(u + 1, d):
                a = np.zeros((k, d, d))
                a[i, u, v], a[i, v, u] = 1.0, -1.0
                units.append(a)
    m = len(units)
    single = [hessian_oracle(problem, res, a)[0] for a in units]
    h = np.empty((m, m))
    for p in range(m):
        h[p, p] = single[p]
        for r in range(p + 1, m):
            pair = hessian_oracle(problem, res, units[p] + units[r])[0]
            h[p, r] = h[r, p] = 0.5 * (pair - single[p] - single[r])
    return h


@pytest.mark.parametrize("converged", [False, True])
def test_diagnostics_agree_with_direct_formulas_and_polarisation(rng, converged):
    for _ in range(12):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 5))
        opts = dict(tol=1e-13, max_iter=3000) if converged else dict(max_iter=1, min_iter=1)
        problem = full_problem(rng, k=k, d=d, n=20, **opts)
        res = als_align(problem)
        h, eig = hessian_matrix(problem, res)
        oracle = polarised_hessian(problem, res)
        assert h.shape == ((k - 1) * d * (d - 1) // 2,) * 2
        assert np.abs(h - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(eig, np.linalg.eigvalsh(h))
        for _ in range(3):
            a = random_antisym_directions(rng, k, d)
            want, scale = gradient_oracle(problem, res, a)
            assert abs(gradient_form(problem, res, a) - want) <= 1e-12 * scale
            want, scale = hessian_oracle(problem, res, a)
            assert abs(hessian_form(problem, res, a) - want) <= 1e-12 * scale


# ---------------------------------------------------- essential dimension


def test_essential_dimension_cases(rng):
    line = Configuration(np.vstack([np.arange(10.0), 2.0 * np.arange(10.0)]))
    assert essential_dimension(line, 0.05) == 1
    square = Configuration(rng.uniform(size=(2, 50)))
    assert essential_dimension(square, 0.05) == 2
    zero = Configuration(np.zeros((2, 5)))
    assert essential_dimension(zero, 0.05) == 0
    point = Configuration(np.ones((3, 4)))
    assert essential_dimension(point, 0.05) == 0
