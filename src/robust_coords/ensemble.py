"""The ensemble pipeline: subsample, embed, compare, cluster, select, average.

Stages, in order:

1. reject off-manifold points: score every present point once, against
   the full input, by its distance from the ``target_dim``-dimensional
   PCA plane of its ``_REJECT_KNN`` nearest neighbours, and reject those
   scoring above ``_REJECT_MEDIAN_MULTIPLE`` times the median score;
   then draw index subsamples of the input, remove the rejected points
   from each, and embed each one under every parameter setting in the
   mesh; one process map spreads the (subsample, setting) pairs over
   forked worker processes (failures, an all-rejected subsample among
   them, are logged and skipped);
2. fill the pairwise dissimilarity matrix with overlap-normalized
   Procrustes distances (residual / sqrt(#shared indices), so pairs with
   different overlap sizes are comparable), all from one batched closed
   form; each member's nearest pair, and every pair where that form loses
   precision to cancellation, is then solved again exactly; pairs that
   share fewer than ``_MIN_SHARED`` indices read inf, and only the 2-d MDS
   view of the matrix gives them a finite sentinel;
3. cut single linkage at a fraction of the median finite dissimilarity
   (floored at a tiny fraction of the members' scale, so that identical
   members stay together), as the connected components of the graph of
   pairs within the cut, without a dendrogram, so pairs that read inf are
   never linked; the sparse verdict is set here, on every cluster that is
   too small or whose median internal dissimilarity exceeds another
   fraction of that median;
4. among the dense clusters left, sample representatives and score them by
   essential dimensionality and the largest finite bar of degree-1 Rips
   persistent homology, run to the enclosing radius so that every 1-cycle
   dies; the good cluster minimizes that bar;
5. align the good cluster's members by missing-points ALS, which pins the
   first member's frame and averages per index;
6. report the averaged embedding plus the indices it never covered
   (rejected points among them, since no member holds them).

Every random choice derives from the pipeline seed, so a fixed
(input, config) pair reproduces bit-identical results.
"""

from __future__ import annotations

import logging
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components
from scipy.spatial import KDTree
from scipy.spatial.distance import pdist, squareform

from . import tda
from .core_types import Configuration, _check_compatible, _check_int_fields, read_points_csv
from .dimred import EmbeddingParams, classical_mds, embed
from .errors import NoGoodCluster, RobustCoordsError, SizeTooLarge
from .gpa_als import AlignmentResult, AlsOptions, GpaProblem, als_align, essential_dimension
from .procrustes_pair import affine_procrustes

__all__ = [
    "PipelineConfig",
    "ClusterReport",
    "Thresholds",
    "MemberRecord",
    "PipelineReport",
    "generate_subsamples",
    "off_manifold_points",
    "build_ensemble",
    "dissimilarity_matrix",
    "cluster_ensemble",
    "select_good_cluster",
    "average_cluster",
    "run_pipeline",
]

logger = logging.getLogger(__name__)

VERDICT_GOOD = "good"
VERDICT_SPARSE = "rejected_sparse"
VERDICT_DIM = "rejected_dim"
VERDICT_PH = "rejected_ph"

# Representative scoring runs the Rips filtration uncapped, so the build
# stops only at the enclosing radius, where the complex is a cone and every
# 1-cycle has died (a loop cut off by a cap would come out as an infinite
# bar and score zero); 100 maxmin landmarks keep that affordable while
# preserving loop scale.
_PH_LANDMARKS = 100

# Off-manifold rejection.  Points lying off the sheet, such as box outliers
# between the turns of a roll, short-circuit every neighbourhood graph that
# holds them (Balasubramanian & Schwartz, Science 2002), so they are left out
# of every member, as in the short-circuit rejection of Choi & Choi's robust
# kernel Isomap (2007).  Scores are taken against the full input: on small
# subsamples the scores of such points and of sheet points overlap.
_REJECT_KNN = 10
_REJECT_MEDIAN_MULTIPLE = 6.0
# The threshold never falls below this fraction of the median k-th
# neighbour distance, so exactly flat input, whose scores are rounding
# noise, loses no point.
_REJECT_FLAT_TOL = 1e-9

# Rows of the dissimilarity matrix computed per batch: bounds the batch's
# temporaries, O(block * k * d^2), and so the peak memory of large ensembles.
_DISSIMILARITY_ROW_BLOCK = 16
# The closed-form residual^2 carries a rounding error of a few machine
# epsilons times the pair's uncentred squared norms (at most 6.5 eps on
# Swiss-roll and buckyball members and on near-copies of 250-2000 points),
# so where it falls below this fraction of them the pair is solved again
# exactly; above it the error stays far below 1e-10 relative.
_CANCELLATION_TOL = 1e-4
# Pairs sharing fewer indices than this are not compared and read inf: one
# shared point always aligns exactly, so it would make any two charts
# identical; two is the least overlap whose residual can be non-zero.
_MIN_SHARED = 2

# The selection cutoffs are fractions of the median dissimilarity, which is
# floored at this fraction of the members' scale (their median RMS radius).
# Members that are one chart differ by rounding only, and cutoffs set by
# rounding noise would split them; real ensembles have medians far above.
_CUTOFF_FLOOR = 1e-6


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of one pipeline run.

    Thresholds are fractions of data-derived scales: single linkage is cut
    at ``cluster_link_fraction`` times the median dissimilarity, a cluster
    is dense when its median internal dissimilarity is below
    ``dense_median_fraction`` times the overall median (that median is
    floored at ``_CUTOFF_FLOOR`` times the members' median RMS radius), and
    the winning cluster's largest degree-1 bar must stay below
    ``ph_bar_fraction`` times the representatives' diameter.
    """

    n_subsamples: int
    subsample_size: int
    dimred: tuple[EmbeddingParams, ...]
    seed: int = 0
    cluster_link_fraction: float = 0.5
    min_cluster_size: int = 5
    dense_median_fraction: float = 0.25
    ph_representatives: int = 5
    ph_bar_fraction: float = 0.1
    essdim_rel_tol: float = 0.05
    als: AlsOptions = field(default_factory=AlsOptions)

    def __post_init__(self):
        _check_int_fields(self)
        dimred = tuple(self.dimred)
        if not dimred:
            raise ValueError("need at least one embedding parameter setting")
        if not all(isinstance(p, EmbeddingParams) for p in dimred):
            raise ValueError("dimred entries must be EmbeddingParams")
        dims = {p.target_dim for p in dimred}
        if len(dims) != 1:
            raise ValueError("all parameter settings must share target_dim")
        object.__setattr__(self, "dimred", dimred)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("n_subsamples", "min_cluster_size", "ph_representatives"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.subsample_size < self.target_dim + 2:
            raise ValueError("subsample_size must be >= target_dim + 2")
        for name in (
            "cluster_link_fraction", "dense_median_fraction", "ph_bar_fraction", "essdim_rel_tol"
        ):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")

    @property
    def target_dim(self):
        return self.dimred[0].target_dim


@dataclass
class ClusterReport:
    """One cluster of ensemble members plus its selection diagnostics; it
    is ``dense`` unless its verdict is ``rejected_sparse``."""

    members: np.ndarray
    median_intra_distance: float
    representatives: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    ph1_max_bars: tuple = ()
    essential_dims: tuple = ()
    rep_diameter: float = float("nan")
    ph_bar_threshold: float = float("nan")
    verdict: str | None = None

    @property
    def size(self):
        return len(self.members)

    @property
    def dense(self):
        return self.verdict != VERDICT_SPARSE


@dataclass(frozen=True)
class Thresholds:
    """The median finite dissimilarity and the two cutoffs derived from it."""

    median_dissimilarity: float
    link_cutoff: float
    dense_cutoff: float


@dataclass(frozen=True)
class MemberRecord:
    """Where one ensemble member came from: its subsample and the position
    of its EmbeddingParams in the mesh, with its point and drop counts."""

    subsample: int
    params: int
    n_points: int
    n_dropped: int


@dataclass
class PipelineReport:
    """Everything one run produced; ``alignment`` is None on failure.

    ``embedding`` is the alignment's mean, ``outliers`` the indices outside
    its mask, and ``good_cluster`` the position of the cluster whose
    verdict is ``good``: None, empty and None on failure.
    """

    clusters: list
    mds_view: Configuration | None
    dissimilarity: np.ndarray
    members: list
    thresholds: Thresholds
    config: PipelineConfig
    alignment: AlignmentResult | None = None

    @property
    def embedding(self):
        return None if self.alignment is None else self.alignment.mean

    @property
    def outliers(self):
        mean = self.embedding
        return np.empty(0, dtype=int) if mean is None else np.flatnonzero(~mean.mask)

    @property
    def good_cluster(self):
        return next((i for i, c in enumerate(self.clusters) if c.verdict == VERDICT_GOOD), None)


def generate_subsamples(n, size, count, seed):
    """`count` sorted index sets of cardinality `size`, without replacement."""
    if not 1 <= size <= n:
        raise SizeTooLarge(f"subsample size {size} invalid for {n} points")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(n, size=size, replace=False)) for _ in range(count)]


def off_manifold_points(x, target_dim):
    """Global indices of the points that lie off the local target_dim-plane.

    A present point's score is its distance from the ``target_dim``-
    dimensional PCA plane through its ``_REJECT_KNN`` nearest neighbours
    (the point itself excluded).  Points scoring above
    ``_REJECT_MEDIAN_MULTIPLE`` times the median score are returned, in
    increasing order; the median is floored at ``_REJECT_FLAT_TOL`` times
    the median k-th neighbour distance, so exactly flat input loses no
    point to rounding.  Nothing is returned when the ambient dimension is at
    most ``target_dim`` (every point lies on such a plane) or when there
    are too few points to fit the planes.
    """
    present = x.present_indices()
    if x.dim <= target_dim or target_dim >= _REJECT_KNN or present.size <= _REJECT_KNN:
        return np.empty(0, dtype=int)
    pts = x.present_matrix().T
    dist, idx = KDTree(pts).query(pts, k=_REJECT_KNN + 1)
    is_self = idx == np.arange(present.size)[:, None]
    # duplicates can crowd a point out of its own neighbour list
    is_self[~is_self.any(axis=1), -1] = True
    nbrs = pts[idx[~is_self].reshape(present.size, _REJECT_KNN)]
    centre = nbrs.mean(axis=1)
    _, _, vt = np.linalg.svd(nbrs - centre[:, None, :], full_matrices=False)
    plane = vt[:, :target_dim, :]
    off = pts - centre
    resid = off - np.einsum("mij,mi->mj", plane, np.einsum("mij,mj->mi", plane, off))
    score = np.linalg.norm(resid, axis=1)
    floor = _REJECT_FLAT_TOL * float(np.median(dist[:, -1]))
    threshold = _REJECT_MEDIAN_MULTIPLE * max(float(np.median(score)), floor)
    return present[score > threshold]


def build_ensemble(x, config):
    """Embed every (subsample, parameter) pair.

    Off-manifold points (see ``off_manifold_points``) are scored once on
    the full input.  The subsamples are drawn from all present points, as
    if nothing were rejected; the rejected points are then removed from
    each subsample before embedding and added to every member's
    ``dropped``, so they become missing points downstream and end up in
    the report's outliers.  Pairs whose embedding fails (fragmented graph,
    too few points, a subsample holding only rejected points, ...) are
    logged and skipped rather than aborting the run.  Each ``external``
    source is read once.

    One task embeds one subsample under one parameter setting, and
    ``_map_in_processes`` runs the A * B tasks of A subsamples and B
    settings in as many processes as there are usable CPUs, capped at the
    number of tasks.  Task k embeds subsample k % A under setting k // A,
    so that every process's share mixes the settings, whose costs differ.
    The members are ordered by subsample, then parameter setting; they,
    their order and the log lines do not depend on the number of processes.
    """
    present = x.present_indices()
    subsamples = generate_subsamples(
        present.size, config.subsample_size, config.n_subsamples, config.seed
    )
    rejected = off_manifold_points(x, config.target_dim)
    if rejected.size:
        logger.info("rejected %d off-manifold points", rejected.size)
    charts = {
        p.source: read_points_csv(p.source) for p in config.dimred if p.method == "external"
    }

    n_sub = len(subsamples)

    def member(k):
        """Task k embedded: the member, or the RobustCoordsError that
        stopped it, returned."""
        a, b = k % n_sub, k // n_sub
        params = config.dimred[b]
        keep = np.zeros(x.n_global, dtype=bool)
        keep[present[subsamples[a]]] = True
        left_out = rejected[keep[rejected]]
        keep[rejected] = False
        try:
            out = embed(x.restrict(keep), params, chart=charts.get(params.source))
        except RobustCoordsError as exc:
            return exc.with_traceback(None)  # its frames would hold the arrays
        out.dropped = np.union1d(out.dropped, left_out)
        out.subsample_index = a
        out.params_index = b
        return out

    results = _map_in_processes(member, n_sub * len(config.dimred))
    outputs = []
    for a in range(n_sub):
        for b in range(len(config.dimred)):
            out = results[b * n_sub + a]
            if isinstance(out, RobustCoordsError):
                logger.warning("embedding failed for subsample %d, params %d: %s", a, b, out)
            else:
                outputs.append(out)
    return outputs


# Where a process finds its own cgroup's CPU quota: a container sees its
# cgroup at the root of this mount.
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _cpu_quota(root):
    """The CPUs' worth of time a cgroup CPU quota allows, rounded up, or
    None when the cgroup under ``root`` sets none that can be read.

    On cgroup v2, ``cpu.max`` holds "<quota> <period>", or "max <period>"
    for no quota; on v1, ``cpu/cpu.cfs_quota_us`` holds the quota, -1 for
    none, and ``cpu/cpu.cfs_period_us`` the period.
    """
    try:
        quota, period = (root / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text()
        except OSError:
            return None
    try:
        quota, period = int(quota), int(period)
    except ValueError:  # "max"
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def _process_count(n):
    """The usable CPUs, capped at the cgroup's CPU quota and at ``n``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    quota = _cpu_quota(_CGROUP_ROOT)
    if quota is not None:
        cpus = min(cpus, quota)
    return max(1, min(cpus, n))


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained onto the error it raised."""

    def __str__(self):
        return self.args[0]


def _map_in_processes(fn, n):
    """[fn(a) for a in range(n)], computed in W = ``_process_count(n)``
    processes.

    Process k of W computes fn(a) for a in range(k, n, W): this process
    takes k = 0, and a forked worker process each other k.  The shares are
    fixed by a alone, so which process computes fn(a) never depends on
    timing.  Workers inherit ``fn`` and what it closes over through the
    fork, so nothing is sent to them.  Each sends back its list of results
    once it is done, and this process reads them in its main thread after
    its own share: a helper thread unpickling results would allocate them
    in a malloc arena of its own and leave the process's peak memory higher
    after every run.  An exception that ``fn`` raises in a worker is raised
    here, chained to the worker's traceback.  Every worker is stopped and
    joined before this returns or raises.
    """
    w = _process_count(n)
    ctx = None
    if w > 1:
        import multiprocessing  # only here, so that importing stays cheap

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            w = 1
    logger.info(
        "%d tasks in %d processes, %d of them in the parent", n, w, len(range(0, n, w))
    )
    results = [None] * n
    procs = []
    try:
        for k in range(1, w):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_map_share, args=(fn, range(k, n, w), writer), daemon=True)
            proc.start()
            writer.close()
            procs.append((proc, reader))
        results[::w] = [fn(a) for a in range(0, n, w)]
        for k, (proc, reader) in enumerate(procs, start=1):
            try:
                outcome = reader.recv()
            except EOFError:  # the worker died before sending
                proc.join()
                raise RuntimeError(f"worker process exited with code {proc.exitcode}") from None
            if isinstance(outcome, tuple):
                exc, text = outcome
                raise exc from _RemoteTraceback(text)
            results[k::w] = outcome
    finally:
        for proc, reader in procs:
            proc.terminate()
            proc.join()
            reader.close()
    return results


def _map_share(fn, share, writer):
    """A worker's body: send [fn(a) for a in share], or the exception that
    stopped it with its formatted traceback, through ``writer``."""
    try:
        outcome = [fn(a) for a in share]
    except Exception as exc:  # raised again in the parent
        outcome = (exc, traceback.format_exc())
    writer.send(outcome)


def dissimilarity_matrix(ensemble):
    """Pairwise overlap-normalized Procrustes distances.

    Entry (i, j) is the alignment residual divided by sqrt(overlap size).
    All entries come from one batched closed form, residual^2 =
    ||X~||^2 + ||Y~||^2 - 2 ||C~||_* over the common domain (X~, Y~ the
    centred sides, C~ their d x d cross-covariance, ||.||_* its nuclear
    norm), which needs no rotation.  That form cancels when two members
    nearly coincide, so ``affine_procrustes`` solves again exactly each
    member's nearest overlapping pair and every pair whose closed-form
    residual^2 is below ``_CANCELLATION_TOL`` times the pair's squared
    norms; every other entry lies within 1e-10 relative of the exact one.
    Pairs sharing fewer than ``_MIN_SHARED`` indices read inf, which is
    the only record of them: a member's nearest pair is its least entry off
    the diagonal, and the inf entries are counted in a log line.  The
    diagonal is zero and the matrix is exactly symmetric.  Raises
    DimensionMismatch when members differ in dim or n_global.
    """
    k = len(ensemble)
    if k < 2:
        raise ValueError("need at least two ensemble members")
    configs = [out.config for out in ensemble]
    for c in configs[1:]:
        _check_compatible(configs[0], c)
    d, redo = _closed_form_dissimilarities(configs)
    off_diagonal = d.copy()
    np.fill_diagonal(off_diagonal, np.inf)
    nearest = off_diagonal.argmin(axis=1)
    has_pair = np.flatnonzero(np.isfinite(off_diagonal.min(axis=1)))
    redo[has_pair, nearest[has_pair]] = True
    for i, j in zip(*np.nonzero(np.triu(redo | redo.T, 1))):
        pa = affine_procrustes(configs[i], configs[j])
        d[i, j] = d[j, i] = pa.distance / np.sqrt(pa.overlap_size)
    missing = np.count_nonzero(np.isinf(d)) // 2
    if missing:
        logger.warning("%d member pairs share fewer than %d indices", missing, _MIN_SHARED)
    return d


def _with_sentinel(d):
    """d with its inf entries (pairs not compared) set to a sentinel of
    twice the largest finite entry, so that classical MDS can place them."""
    finite = np.isfinite(d)
    return np.where(finite, d, 2.0 * d[finite].max())


def _closed_form_dissimilarities(configs):
    """Closed-form dissimilarities and the mask of imprecise pairs.

    The dissimilarities are computed on the upper triangle and mirrored,
    so they are exactly symmetric with a zero diagonal; pairs that share
    fewer than ``_MIN_SHARED`` indices read inf.  The mask marks, on the
    upper triangle only, the other pairs whose residual^2 is at most
    ``_CANCELLATION_TOL`` times their squared norms, where rounding may
    dominate it.  Works in blocks of ``_DISSIMILARITY_ROW_BLOCK`` rows,
    each against the columns from its first row on, so the temporaries stay
    O(block * k * d^2).  Every product is an ``einsum`` without BLAS, whose
    sums do not depend on the BLAS thread count.
    """
    k = len(configs)
    x = np.stack([c.coords for c in configs])  # (k, d, n), absent columns 0
    m = np.stack([c.mask for c in configs]).astype(float)  # (k, n)
    sq = np.einsum("idn,idn->in", x, x, optimize=False)
    d = np.zeros((k, k))
    imprecise = np.zeros((k, k), dtype=bool)
    for start in range(0, k, _DISSIMILARITY_ROW_BLOCK):
        rows = slice(start, min(start + _DISSIMILARITY_ROW_BLOCK, k))
        cols = slice(start, k)
        count = np.einsum("in,jn->ij", m[rows], m[cols], optimize=False)
        sum_x = np.einsum("idn,jn->ijd", x[rows], m[cols], optimize=False)
        sum_y = np.einsum("in,jdn->ijd", m[rows], x[cols], optimize=False)
        norm_x = np.einsum("in,jn->ij", sq[rows], m[cols], optimize=False)
        norm_y = np.einsum("in,jn->ij", m[rows], sq[cols], optimize=False)
        cross = np.einsum("idn,jen->ijde", x[rows], x[cols], optimize=False)
        inv = 1.0 / np.maximum(count, 1.0)
        cross -= sum_x[..., :, None] * sum_y[..., None, :] * inv[..., None, None]
        nuclear = np.linalg.svd(cross, compute_uv=False).sum(axis=-1)
        centred = norm_x + norm_y - ((sum_x**2).sum(-1) + (sum_y**2).sum(-1)) * inv
        resid2 = np.maximum(centred - 2.0 * nuclear, 0.0)
        shared = count >= _MIN_SHARED
        d[rows, cols] = np.where(shared, np.sqrt(resid2 * inv), np.inf)
        cancelled = resid2 <= _CANCELLATION_TOL * (norm_x + norm_y)
        imprecise[rows, cols] = shared & cancelled
    d = np.triu(d, 1)
    return d + d.T, np.triu(imprecise, 1)


def _cutoffs(d, config, scale):
    """The Thresholds of the dissimilarity matrix d.

    The median is taken over the finite off-diagonal entries (pairs not
    compared read inf); ValueError when there is none.  Single linkage is
    cut at ``cluster_link_fraction`` times that median, and a cluster is
    dense up to ``dense_median_fraction`` times it, where under both
    fractions the median is floored at ``_CUTOFF_FLOOR`` times ``scale``,
    the members' median RMS radius (0 sets no floor).
    """
    upper = d[np.triu_indices(d.shape[0], 1)]
    finite = upper[np.isfinite(upper)]
    if not finite.size:
        raise ValueError("the dissimilarity matrix d has no finite off-diagonal entry")
    med = float(np.median(finite))
    base = max(med, _CUTOFF_FLOOR * scale)
    return Thresholds(
        med, config.cluster_link_fraction * base, config.dense_median_fraction * base
    )


def _member_scale(ensemble):
    """The median over members of the RMS radius of their present points."""
    radii = []
    for out in ensemble:
        m = out.config.present_matrix()
        radii.append(np.sqrt(np.mean(np.sum((m - m.mean(axis=1, keepdims=True)) ** 2, axis=0))))
    return float(np.median(radii))


def _median_intra(d, members):
    if len(members) < 2:
        return 0.0
    block = d[np.ix_(members, members)]
    iu = np.triu_indices(len(members), 1)
    return float(np.median(block[iu]))


def cluster_ensemble(d, thresholds, min_cluster_size):
    """Single-linkage clusters of d cut at ``thresholds.link_cutoff``.

    A single-linkage dendrogram cut at height t has the same clusters as
    the connected components of the graph joining members i and j when
    d[i, j] <= t (Gower & Ross, 1969), so the components are found directly.
    Pairs not compared (sharing fewer than ``_MIN_SHARED`` indices) read
    inf in d, so they are never joined.
    A cluster is ``rejected_sparse`` when it is smaller than
    ``min_cluster_size`` or its median internal dissimilarity is above
    ``thresholds.dense_cutoff``; the other (dense) clusters' verdicts stay
    unset for ``select_good_cluster``, which sets them on the returned
    list.  Clusters are ordered by decreasing size, then lowest member.
    """
    _, labels = connected_components(d <= thresholds.link_cutoff, directed=False)
    reports = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        median = _median_intra(d, members)
        sparse = members.size < min_cluster_size or not median <= thresholds.dense_cutoff
        reports.append(ClusterReport(members, median, verdict=VERDICT_SPARSE if sparse else None))
    reports.sort(key=lambda r: (-r.size, int(r.members[0])))
    return reports


def select_good_cluster(clusters, ensemble, config):
    """Pick the dense, full-dimensional cluster with the smallest PH1 bar.

    Only the clusters that ``cluster_ensemble`` left without a verdict (the
    dense ones) are scored.  For each, a seeded sample of representatives
    is checked: every one must have essential dimensionality >= the
    embedding dimension, and the cluster score is the largest degree-1 bar
    among representatives.  The minimizer wins if its score is at most
    ``ph_bar_fraction`` times the representatives' diameter; ties break to
    the larger, then tighter, cluster.  Raises NoGoodCluster (verdicts
    filled in) otherwise.
    """
    survivors = []
    for pos, cluster in enumerate(clusters):
        if cluster.verdict is not None:
            continue
        rng = np.random.default_rng([config.seed, 101, pos])
        n_rep = min(config.ph_representatives, cluster.size)
        reps = np.sort(rng.choice(cluster.members, size=n_rep, replace=False))
        cluster.representatives = reps

        ess = tuple(essential_dimension(ensemble[r].config, config.essdim_rel_tol) for r in reps)
        cluster.essential_dims = ess
        bars = []
        diam = 0.0
        for r in reps:
            dmat = squareform(pdist(ensemble[r].config.present_matrix().T))
            diam = max(diam, float(dmat.max()))
            # called through the module, with keywords, so that a wrapper
            # installed on tda.rips_from_distances sees every call
            diagram = tda.rips_from_distances(
                dmat, max_dim=1, p=2, max_radius=np.inf, landmark_budget=_PH_LANDMARKS
            )
            bars.append(tda.max_bar_length(diagram, 1))
        cluster.ph1_max_bars = tuple(bars)
        cluster.rep_diameter = diam
        cluster.ph_bar_threshold = config.ph_bar_fraction * diam
        if any(e < config.target_dim for e in ess):
            cluster.verdict = VERDICT_DIM
            continue
        survivors.append(pos)

    if not survivors:
        raise NoGoodCluster("no dense cluster with full-dimensional members")

    def score(pos):
        c = clusters[pos]
        return (max(c.ph1_max_bars), -c.size, c.median_intra_distance, pos)

    best = min(survivors, key=score)
    for pos in survivors:
        clusters[pos].verdict = VERDICT_PH
    winner = clusters[best]
    if max(winner.ph1_max_bars) > winner.ph_bar_threshold:
        raise NoGoodCluster(
            "smallest degree-1 bar "
            f"{max(winner.ph1_max_bars):.6g} exceeds threshold "
            f"{winner.ph_bar_threshold:.6g}"
        )
    winner.verdict = VERDICT_GOOD
    return winner


def average_cluster(ensemble, cluster, config):
    """Align the cluster's members and average them per index.

    Returns the AlignmentResult of ``als_align``, in the first member's
    frame.  Its ``mean`` at index j averages exactly the members whose
    domain contains j, and the indices that no member covers are those
    outside ``mean.mask``.
    """
    configs = tuple(ensemble[i].config for i in cluster.members)
    return als_align(GpaProblem(configs, config.als))


def run_pipeline(x, config):
    """Execute the whole pipeline and assemble the report.

    The report is built once, before selection, and only its
    ``alignment`` is set on success.  Raises NoGoodCluster when selection fails; the exception
    carries that report (clusters, verdicts, dissimilarity view) for
    writing diagnostics.  With fewer than two embeddings, or no pair of
    them sharing ``_MIN_SHARED`` indices, there is nothing to compare, and
    it carries no report.
    The dissimilarity view is None for ensembles of two.
    """
    ensemble = build_ensemble(x, config)
    members = [
        MemberRecord(o.subsample_index, o.params_index, o.config.n_present, len(o.dropped))
        for o in ensemble
    ]
    if len(ensemble) < 2:
        raise NoGoodCluster(
            f"only {len(ensemble)} embeddings succeeded; nothing to compare", report=None
        )
    d = dissimilarity_matrix(ensemble)
    if not np.isfinite(d[np.triu_indices(len(d), 1)]).any():
        raise NoGoodCluster(f"no two embeddings share {_MIN_SHARED} or more indices", report=None)
    # the 2-d view of the dissimilarities needs at least 3 members
    mds_view = classical_mds(_with_sentinel(d), 2) if len(ensemble) >= 3 else None
    thresholds = _cutoffs(d, config, _member_scale(ensemble))
    clusters = cluster_ensemble(d, thresholds, config.min_cluster_size)
    report = PipelineReport(
        clusters=clusters, mds_view=mds_view, dissimilarity=d, members=members,
        thresholds=thresholds, config=config,
    )
    try:
        winner = select_good_cluster(clusters, ensemble, config)
    except NoGoodCluster as exc:
        exc.report = report
        raise
    report.alignment = average_cluster(ensemble, winner, config)
    return report
