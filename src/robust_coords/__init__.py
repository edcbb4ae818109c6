"""Robust low-dimensional coordinates from ensembles of embeddings.

The pipeline first rejects off-manifold points: each point is scored, against
the full input, by its distance from the target-dimensional PCA plane of its
nearest neighbours, and points scoring far above the median are left out of
every subsample (``ensemble.off_manifold_points``; its neighbour count and
median multiple are module constants).  It then subsamples the point cloud,
embeds every subsample under a mesh of dimensionality-reduction parameters,
compares the embeddings with the Procrustes distance, selects a dense
topologically simple cluster of them, and averages that cluster under
generalized Procrustes alignment.  Points covered by no selected embedding,
the rejected ones among them, are reported as outliers.
"""

from .core_types import Configuration, RigidMotion, center, centroid, restrict_common
from .dimred import EmbeddingOutput, EmbeddingParams, classical_mds, embed, isomap, pca_embed
from .ensemble import (
    ClusterReport,
    PipelineConfig,
    PipelineReport,
    average_cluster,
    build_ensemble,
    cluster_ensemble,
    dissimilarity_matrix,
    generate_subsamples,
    run_pipeline,
    select_good_cluster,
)
from .errors import (
    DegenerateGraph,
    DimensionMismatch,
    DuplicateId,
    EigensolverFailed,
    EmptyOverlap,
    NoGoodCluster,
    NonFinite,
    NotAntisymmetric,
    NotSymmetric,
    ParseError,
    RobustCoordsError,
    SizeTooLarge,
    TooFewPoints,
    TooManySimplices,
)
from .gpa_als import (
    AlignmentResult,
    AlsOptions,
    GpaProblem,
    als_align,
    essential_dimension,
    gpa_loss,
    gradient_form,
    hessian_form,
    hessian_matrix,
)
from .procrustes_pair import (
    PairAlignment,
    affine_procrustes,
    orthogonal_procrustes,
    procrustes_distance,
)
from .synth import SwissRollSample, add_gaussian_noise, add_uniform_outliers, buckyball, swiss_roll
from .tda import PersistenceDiagram, max_bar_length, maxmin_landmarks, rips_persistence

__version__ = "0.1.0"
