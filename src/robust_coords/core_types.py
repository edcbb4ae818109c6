"""Configurations: partially defined point sets over a fixed global index set.

A configuration assigns a point in R^d to a subset of the global indices
{0..n-1}.  It is stored as a dense d x n coordinate matrix plus a boolean
presence mask; columns at absent indices are canonically zero, so the matrix
already equals itself multiplied by its own presence projector.  Every stage
of the pipeline (embedding outputs, alignment means, averaged results)
speaks this type.

Points CSV: header ``id,x0,...,x{d-1}``; one row per present index; floats
written with 17 significant digits so a write/read round trip is exact.
"""

from __future__ import annotations

import csv
import numbers
import typing
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicateId, EmptyOverlap, NonFinite, ParseError

__all__ = [
    "Configuration",
    "RigidMotion",
    "restrict_common",
    "centroid",
    "center",
    "read_points_csv",
    "write_points_csv",
]


class Configuration:
    """Immutable d x n coordinate matrix with a presence mask.

    Parameters
    ----------
    coords : array-like, shape (d, n)
        Column j is the point at global index j.  Columns at absent
        indices are zeroed on construction.
    mask : array-like of bool, shape (n,), optional
        Presence flags.  Defaults to all present.

    Raises
    ------
    NonFinite
        If any present coordinate is NaN or infinite.
    ValueError
        If the domain is empty or shapes are inconsistent.
    """

    __slots__ = ("_coords", "_mask", "_present")

    def __init__(self, coords, mask=None):
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-d, got shape {coords.shape}")
        d, n = coords.shape
        if d < 1 or n < 1:
            raise ValueError(f"coords must be nonempty, got shape {coords.shape}")
        if mask is None:
            mask = np.ones(n, dtype=bool)
        else:
            mask = np.array(mask, dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"mask shape {mask.shape} does not match n={n}")
        if not mask.any():
            raise ValueError("configuration domain is empty")
        if not np.isfinite(coords[:, mask]).all():
            raise NonFinite("configuration has non-finite present coordinates")
        coords[:, ~mask] = 0.0
        coords.flags.writeable = False
        mask.flags.writeable = False
        self._coords = coords
        self._mask = mask
        present = np.flatnonzero(mask)
        present.flags.writeable = False
        self._present = present

    @classmethod
    def from_rows(cls, points, indices=None, n_global=None):
        """Build from an (m, d) row-per-point array.

        `indices` gives the global index of each row (defaults to 0..m-1);
        `n_global` widens the index set beyond max(indices)+1 if given.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be 2-d (m, d)")
        m = points.shape[0]
        if indices is None:
            indices = np.arange(m)
        else:
            indices = np.asarray(indices, dtype=int)
            if indices.shape != (m,):
                raise ValueError("indices length must match point count")
            if len(np.unique(indices)) != m:
                raise ValueError("indices must be distinct")
            if m and indices.min() < 0:
                raise ValueError("indices must be nonnegative")
        n = int(indices.max()) + 1 if m else 0
        if n_global is not None:
            if n_global < n:
                raise ValueError("n_global smaller than max index + 1")
            n = int(n_global)
        coords = np.zeros((points.shape[1], n))
        coords[:, indices] = points.T
        mask = np.zeros(n, dtype=bool)
        mask[indices] = True
        return cls(coords, mask)

    @property
    def coords(self):
        """The (d, n) matrix; absent columns are zero."""
        return self._coords

    @property
    def mask(self):
        """Boolean presence flags, shape (n,)."""
        return self._mask

    @property
    def dim(self):
        return self._coords.shape[0]

    @property
    def n_global(self):
        return self._coords.shape[1]

    @property
    def n_present(self):
        return self._present.size

    def present_indices(self):
        """Global indices where the configuration is defined (sorted)."""
        return self._present

    def present_matrix(self):
        """The (d, n_present) matrix of defined columns, in index order."""
        return self._coords[:, self._present]

    def restrict(self, keep_mask):
        """Restrict the domain to present indices flagged in `keep_mask`."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n_global,):
            raise ValueError("keep_mask must cover the global index set")
        new_mask = self._mask & keep_mask
        if not new_mask.any():
            raise EmptyOverlap("restriction leaves an empty domain")
        return Configuration(self._coords, new_mask)

    def transformed(self, motion):
        """Apply a rigid motion x -> Qx + v to the present columns."""
        out = motion.rotation @ self._coords + motion.translation[:, None]
        return Configuration(out, self._mask)

    def __repr__(self):
        return (
            f"Configuration(dim={self.dim}, n_global={self.n_global}, "
            f"n_present={self.n_present})"
        )


@dataclass(frozen=True, eq=False)
class RigidMotion:
    """An affine isometry x -> Qx + v with Q orthogonal (det +/-1 allowed)."""

    rotation: np.ndarray
    translation: np.ndarray

    _ORTHO_TOL = 1e-10

    def __post_init__(self):
        q = np.array(self.rotation, dtype=float)
        v = np.array(self.translation, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if v.shape != (q.shape[0],):
            raise ValueError("translation length must match rotation size")
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise NonFinite("rigid motion has non-finite entries")
        defect = np.linalg.norm(q.T @ q - np.eye(q.shape[0]))
        if defect > self._ORTHO_TOL:
            raise ValueError(f"rotation is not orthogonal (defect {defect:.3e})")
        q.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", v)

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim), np.zeros(dim))

    @property
    def dim(self):
        return self.rotation.shape[0]

    def apply(self, points):
        """Apply to a (d, m) matrix of column points."""
        return self.rotation @ np.asarray(points, dtype=float) + self.translation[:, None]

    def compose(self, other):
        """The motion `self o other` (apply `other` first)."""
        return RigidMotion(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self):
        return RigidMotion(self.rotation.T, -(self.rotation.T @ self.translation))


def _check_compatible(x, y):
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} != {y.dim}")
    if x.n_global != y.n_global:
        raise DimensionMismatch(f"n_global {x.n_global} != {y.n_global}")


_SCALARS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
            str: (str, "a string")}


def _check_value(name, value, hint):
    """Raise ValueError naming ``name`` unless ``value`` has type ``hint``:
    int, float (any real), str, a class, tuple[X, ...] or T | None; numpy
    numbers count, and bools do not."""
    args = typing.get_args(hint)
    if type(None) in args:  # T | None
        if value is None:
            return
        hint, args = args[0], typing.get_args(args[0])
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]
        kind = f"a tuple of {args[0].__name__}"
        ok = isinstance(value, tuple) and all(isinstance(v, args[0]) for v in value)
    else:
        cls, kind = _SCALARS.get(hint, (hint, hint.__name__))
        ok = isinstance(value, cls)
    if isinstance(value, bool) or not ok:
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _check_fields(obj):
    """``_check_value`` on every field of dataclass ``obj``, under its type hint."""
    for name, hint in typing.get_type_hints(type(obj)).items():
        _check_value(name, getattr(obj, name), hint)


def _common_domain(x, y):
    """Mask of the indices both configurations define; raises
    DimensionMismatch or EmptyOverlap."""
    _check_compatible(x, y)
    common = x.mask & y.mask
    if not common.any():
        raise EmptyOverlap("configurations have disjoint domains")
    return common


def restrict_common(x, y):
    """Restrict two configurations to their common domain.

    Returns the pair restricted to the intersection of the two domains,
    values copied; raises EmptyOverlap when the domains are disjoint.
    """
    common = _common_domain(x, y)
    return Configuration(x.coords, common), Configuration(y.coords, common)


def centroid(x):
    """Arithmetic mean of the present columns, shape (d,)."""
    return x.present_matrix().mean(axis=1)


def center(x):
    """Translate so the centroid of the present columns is the origin.

    Returns (centered configuration, subtracted centroid).
    """
    c = centroid(x)
    shifted = x.coords - c[:, None]
    return Configuration(shifted, x.mask), c


def _fmt(x):
    return format(float(x), ".17g")


def read_points_csv(path):
    """Read a points CSV into a Configuration.

    Column 0 is the integer global index; the remaining columns are the
    coordinates.  Missing rows are missing points.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if not header or header[0] != "id":
            raise ParseError("header must start with 'id'", line=1)
        dim = len(header) - 1
        if dim < 1:
            raise ParseError("no coordinate columns", line=1)
        expected = [f"x{i}" for i in range(dim)]
        if header[1:] != expected:
            raise ParseError(
                f"coordinate columns must be {','.join(expected)}", line=1
            )
        ids = []
        rows = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 1:
                raise ParseError(f"expected {dim + 1} fields, got {len(row)}", line=lineno)
            try:
                idx = int(row[0])
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if idx < 0:
                raise ParseError(f"negative id {idx}", line=lineno)
            if idx in seen:
                raise DuplicateId(f"duplicate id {idx}", line=lineno)
            seen.add(idx)
            ids.append(idx)
            rows.append(vals)
    if not ids:
        raise ParseError("file has no data rows")
    return Configuration.from_rows(np.asarray(rows), indices=np.asarray(ids))


def write_points_csv(config, path):
    """Write a Configuration's present points; inverse of read_points_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{i}" for i in range(config.dim)])
        matrix = config.present_matrix()
        for col, idx in enumerate(config.present_indices()):
            writer.writerow([int(idx)] + [_fmt(v) for v in matrix[:, col]])
