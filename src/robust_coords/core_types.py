"""Configurations: partially defined point sets over a fixed global index set.

A configuration assigns a point in R^d to a subset of the global indices
{0..n-1}.  It stores only what is present: the (d, n_present) matrix of
the defined columns, the sorted indices they sit at, and n, so a member
that covers a few hundred of 10^5 indices holds a few hundred columns,
read-only and handed out uncopied.  The dense d x n matrix, zero at absent
indices, and the mask are built on request.  Every stage of the pipeline
(embedding outputs, alignment means, averaged results) speaks this type.

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
    """Immutable points at a subset of the global indices 0..n-1.

    Built from a dense d x n matrix and a presence mask, it keeps the
    read-only (d, n_present) matrix of the present columns, the read-only
    sorted present indices and n.  The matrix is stored in Fortran order,
    the layout that indexing a dense matrix's columns gives: axis-1
    reductions such as ``centroid``'s mean add in an order that depends on
    the layout, so this keeps the results of a configuration built from a
    dense matrix and of one built from its present columns bit for bit equal.

    Parameters
    ----------
    coords : array-like, shape (d, n)
        Column j is the point at global index j.  Columns at absent
        indices are ignored.
    mask : array-like of bool, shape (n,), optional
        Presence flags.  Defaults to all present.

    Raises
    ------
    NonFinite
        If any present coordinate is NaN or infinite.
    ValueError
        If the domain is empty or shapes are inconsistent.
    """

    __slots__ = ("_values", "_present", "_n_global")

    def __init__(self, coords, mask=None):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-d, got shape {coords.shape}")
        d, n = coords.shape
        if d < 1 or n < 1:
            raise ValueError(f"coords must be nonempty, got shape {coords.shape}")
        if mask is None:
            present = np.arange(n)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n,):
                raise ValueError(f"mask shape {mask.shape} does not match n={n}")
            present = np.flatnonzero(mask)
        if not present.size:
            raise ValueError("configuration domain is empty")
        self._set(coords[:, present], present, n)

    def _set(self, values, present, n_global):
        """Hold the (d, m) ``values`` at the sorted indices ``present`` of
        0..n_global-1.  Both are kept and made read-only: ``values`` must be
        new, and ``present`` new or another configuration's."""
        if not np.isfinite(values).all():
            raise NonFinite("configuration has non-finite present coordinates")
        values = np.asfortranarray(values)
        values.flags.writeable = False
        present.flags.writeable = False
        self._values = values
        self._present = present
        self._n_global = int(n_global)

    @classmethod
    def _compact(cls, values, present, n_global):
        """The configuration holding ``values`` (d, m) at the sorted indices
        ``present``, built without a dense matrix; see ``_set``."""
        config = cls.__new__(cls)
        config._set(values, present, n_global)
        return config

    def __reduce__(self):
        # ndarray pickles drop the read-only flag; rebuilt through _compact,
        # a member made in a worker process stays read-only in the parent
        return Configuration._compact, (self._values, self._present, self._n_global)

    @classmethod
    def from_rows(cls, points, indices=None, n_global=None):
        """Build from an (m, d) row-per-point array.

        `indices` gives the global index of each row (defaults to 0..m-1);
        `n_global` widens the index set beyond max(indices)+1 if given.
        Booleans, reals and other non-integers in either raise ValueError.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be 2-d (m, d)")
        m, d = points.shape
        if indices is None:
            indices = np.arange(m)
        else:
            if not isinstance(indices, np.ndarray):  # numpy reads [True, 2] as integers
                for i in indices:
                    _check_value("indices", i, int)
            indices = np.asarray(indices)
            if indices.size and indices.dtype.kind not in "iu":
                raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
            indices = indices.astype(int, copy=False)
            if indices.shape != (m,):
                raise ValueError("indices length must match point count")
            if len(np.unique(indices)) != m:
                raise ValueError("indices must be distinct")
            if m and indices.min() < 0:
                raise ValueError("indices must be nonnegative")
        n = int(indices.max()) + 1 if m else 0
        if n_global is not None:
            _check_value("n_global", n_global, int)
            if n_global < n:
                raise ValueError("n_global smaller than max index + 1")
            n = int(n_global)
        if d < 1 or n < 1:
            raise ValueError(f"coords must be nonempty, got shape {(d, n)}")
        if not m:
            raise ValueError("configuration domain is empty")
        order = np.argsort(indices, kind="stable")
        return cls._compact(points[order].T, indices[order], n)

    @property
    def coords(self):
        """The (d, n) matrix; absent columns are zero.

        Each call builds a new read-only O(d * n_global) array, so the
        library's own stages read the stored ``present_matrix()`` and
        ``present_indices()`` instead.
        """
        coords = np.zeros((self.dim, self._n_global))
        coords[:, self._present] = self._values
        coords.flags.writeable = False
        return coords

    @property
    def mask(self):
        """Boolean presence flags, shape (n,).

        Each call builds a new read-only O(n_global) array; see ``coords``.
        """
        mask = np.zeros(self._n_global, dtype=bool)
        mask[self._present] = True
        mask.flags.writeable = False
        return mask

    @property
    def dim(self):
        return self._values.shape[0]

    @property
    def n_global(self):
        return self._n_global

    @property
    def n_present(self):
        return self._present.size

    def present_indices(self):
        """Global indices where the configuration is defined (sorted)."""
        return self._present

    def present_matrix(self):
        """The stored read-only (d, n_present) matrix of defined columns, in
        index order, in Fortran order."""
        return self._values

    def restrict(self, keep_mask):
        """Restrict the domain to present indices flagged in `keep_mask`."""
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != (self.n_global,):
            raise ValueError("keep_mask must cover the global index set")
        keep = keep_mask[self._present]
        if not keep.any():
            raise EmptyOverlap("restriction leaves an empty domain")
        return Configuration._compact(self._values[:, keep], self._present[keep], self._n_global)

    def transformed(self, motion):
        """Apply a rigid motion x -> Qx + v to the present columns."""
        values = self._values
        if self.n_present == 1 < self._n_global:
            # a matrix times one column rounds as a matrix-vector product,
            # not as the matrix product over the n columns of ``coords``
            values = np.repeat(values, 2, axis=1)
        out = motion.rotation @ values + motion.translation[:, None]
        return Configuration._compact(out[:, :self.n_present], self._present, self._n_global)

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
    """The sorted indices both configurations define, and new (d, m)
    matrices of x's and of y's points there, in Fortran order like
    ``present_matrix()``; raises DimensionMismatch or EmptyOverlap."""
    _check_compatible(x, y)
    common, i, j = np.intersect1d(
        x.present_indices(), y.present_indices(), assume_unique=True, return_indices=True
    )
    if not common.size:
        raise EmptyOverlap("configurations have disjoint domains")
    return common, x.present_matrix()[:, i], y.present_matrix()[:, j]


def restrict_common(x, y):
    """Restrict two configurations to their common domain.

    Returns the pair restricted to the intersection of the two domains,
    values copied; raises EmptyOverlap when the domains are disjoint.
    """
    common, xm, ym = _common_domain(x, y)
    return (
        Configuration._compact(xm, common, x.n_global),
        Configuration._compact(ym, common, y.n_global),
    )


def centroid(x):
    """Arithmetic mean of the present columns, shape (d,)."""
    return x.present_matrix().mean(axis=1)


def center(x):
    """Translate so the centroid of the present columns is the origin.

    Returns (centered configuration, subtracted centroid).
    """
    c = centroid(x)
    shifted = x.present_matrix() - c[:, None]
    return Configuration._compact(shifted, x.present_indices(), x.n_global), c


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
