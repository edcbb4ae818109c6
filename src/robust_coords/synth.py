"""Deterministic synthetic fixtures: Swiss roll (with noise and outliers)
and the buckyball vertex cloud.

The Swiss roll sample carries its ground-truth chart: the (arc length,
height) coordinates of each point, which are isometric to the surface
metric and therefore directly comparable, via Procrustes alignment, to any
unrolled embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_types import Configuration

__all__ = [
    "SwissRollSample",
    "swiss_roll",
    "add_gaussian_noise",
    "add_uniform_outliers",
    "buckyball",
]

ROLL_T_MIN = 1.5 * np.pi
ROLL_T_MAX = 4.5 * np.pi
ROLL_HEIGHT = 21.0


@dataclass(frozen=True)
class SwissRollSample:
    """3-d roll points plus their ground-truth 2-d chart, same indexing."""

    points3d: Configuration
    intrinsic: Configuration


def _spiral_arclength(t):
    # antiderivative of sqrt(1 + s^2), zeroed at the inner edge of the roll
    def f(s):
        return 0.5 * (s * np.sqrt(1.0 + s * s) + np.arcsinh(s))

    return f(t) - f(ROLL_T_MIN)


def swiss_roll(n, seed):
    """Sample n points of the roll (t cos t, h, t sin t).

    t is uniform on [1.5*pi, 4.5*pi] and h uniform on [0, 21]; the chart
    stores (arc length along the spiral, h).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    t = rng.uniform(ROLL_T_MIN, ROLL_T_MAX, size=n)
    h = rng.uniform(0.0, ROLL_HEIGHT, size=n)
    points = np.stack([t * np.cos(t), h, t * np.sin(t)])
    chart = np.stack([_spiral_arclength(t), h])
    return SwissRollSample(points3d=Configuration(points), intrinsic=Configuration(chart))


def add_gaussian_noise(x, sigma, seed):
    """Add i.i.d. N(0, sigma^2) per coordinate on the present columns."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return x
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=(x.dim, x.n_global))
    return Configuration(x.coords + noise, x.mask)


def add_uniform_outliers(x, count, seed):
    """Append `count` points uniform in the bounding box of the present data.

    The new points get fresh global indices n_global .. n_global+count-1;
    returns (widened configuration, array of the new indices).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return x, np.empty(0, dtype=int)
    rng = np.random.default_rng(seed)
    present = x.present_matrix()
    lo = present.min(axis=1)
    hi = present.max(axis=1)
    extra = rng.uniform(lo[:, None], hi[:, None], size=(x.dim, count))
    coords = np.concatenate([x.coords, extra], axis=1)
    mask = np.concatenate([x.mask, np.ones(count, dtype=bool)])
    new_indices = np.arange(x.n_global, x.n_global + count)
    return Configuration(coords, mask), new_indices


def _bucky_vertices():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    seeds = [
        (0.0, 1.0, 3.0 * phi),
        (1.0, 2.0 + phi, 2.0 * phi),
        (2.0, 1.0 + 2.0 * phi, phi),
    ]
    verts = []
    for a, b, c in seeds:
        for sa in ((1.0,) if a == 0.0 else (1.0, -1.0)):
            for sb in (1.0, -1.0):
                for sc in (1.0, -1.0):
                    x, y, z = sa * a, sb * b, sc * c
                    # even permutations of three coordinates = cyclic shifts
                    verts.extend([(x, y, z), (z, x, y), (y, z, x)])
    verts = np.array(sorted(set(verts)))
    assert verts.shape == (60, 3)
    return verts


# the 60 vertices on the unit sphere, one per row; built once, read-only
_UNIT_BUCKY = _bucky_vertices()
_UNIT_BUCKY /= np.linalg.norm(_UNIT_BUCKY[0])
_UNIT_BUCKY.flags.writeable = False


def buckyball(sigma, seed):
    """The 60 truncated-icosahedron vertices on the unit sphere, plus noise."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    config = Configuration(_UNIT_BUCKY.T)
    if sigma > 0:
        config = add_gaussian_noise(config, sigma, seed)
    return config
