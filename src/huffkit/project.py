"""Discrete line-sum (Mojette-style) projections and alternating-sign twins.

A direction is a tuple of coprime signed integers, written ``p:q`` (or
``p:q:r`` in 3D).  For a 2D tensor ``a[y, x]`` (y = row, x = column) the
projection bins are the linear form

    t = q*x - p*y

offset so the smallest occupied bin lands at index 0.  For a square N x N
input this gives the standard output length n*(N - 1) + 1 with n = |p| + |q|.
In 3D the voxel (x, y, z) = (axis2, axis1, axis0) is binned by the first two
linearly independent forms among (q, -p, 0), (0, r, -q), (r, 0, -p) applied to
(x, y, z) — each of these is constant along the projection direction.  One
function, `project`, bins both.

Projections of delta-correlated arrays built as outer products inherit flat
spectra: each such projection is one ``project --dir p:q`` run on the
outer product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Tensor, _int_dtype, as_tensor

__all__ = [
    "ProjectionError",
    "ProjectionDirection",
    "as_direction",
    "project",
    "twin",
]


class ProjectionError(ValueError):
    """Raised for invalid directions or operands."""


@dataclass(frozen=True)
class ProjectionDirection:
    """Coprime integer direction ``p:q`` (optionally ``p:q:r``)."""

    p: int
    q: int
    r: int | None = None

    def __post_init__(self):
        comps = self.components
        if any(int(c) != c for c in comps):
            raise ProjectionError(f"direction components must be integers: {self}")
        if all(c == 0 for c in comps):
            raise ProjectionError("direction must not be the zero vector")
        if math.gcd(*(abs(int(c)) for c in comps)) != 1:
            raise ProjectionError(f"direction {self} is not coprime")

    @property
    def components(self) -> tuple[int, ...]:
        if self.r is None:
            return (self.p, self.q)
        return (self.p, self.q, self.r)

    def __str__(self):
        return ":".join(str(c) for c in self.components)


def _direction_components(text: str) -> tuple[int, ...]:
    """The integers of ``"p:q"`` or ``"p:q:r"``, admissible or not; refused unless the text has that form."""
    try:
        nums = tuple(int(v) for v in text.split(":"))
    except ValueError:
        nums = ()
    if len(nums) not in (2, 3):
        raise ProjectionError(f"cannot parse direction {text!r}")
    return nums


def as_direction(d, ndim: int | None = None) -> ProjectionDirection:
    if isinstance(d, str):
        d = _direction_components(d)
    if isinstance(d, (tuple, list)):
        d = ProjectionDirection(*(int(c) for c in d))
    elif not isinstance(d, ProjectionDirection):
        raise ProjectionError(f"not a projection direction: {d!r}")
    if ndim is not None and len(d.components) != ndim:
        raise ProjectionError(
            f"direction {d} has {len(d.components)} components, expected {ndim}"
        )
    return d


def _bin_sums(a: Tensor, flat_bins: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    """Accumulate a's elements into bins; exact in integer mode."""
    # |bin sum| <= sum |a| <= size * max|a|
    dtype = _int_dtype(a.size * a.max_abs()) if a.mode == "int" else np.float64
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out.reshape(-1), flat_bins, a.data.reshape(-1).astype(dtype, copy=False))
    return Tensor(out, a.mode)


def project(a, direction) -> Tensor:
    """Project a 2D tensor along ``p:q``, or a 3D tensor along ``p:q:r``.

    A 2D tensor goes to the 1D bins t = q*x - p*y.  Voxel (x, y, z) = (col,
    row, plane) of a 3D tensor goes to the 2D bin indexed by the first two
    linearly independent forms among q*x - p*y, r*y - q*z, r*x - p*z.  Each
    bin axis starts at 0 (its minimal form value subtracted), and the total
    sum is preserved.  Projecting the outer product of a sequence with itself
    at (1:1) reproduces that sequence's aperiodic auto-correlation exactly.
    """
    a = as_tensor(a)
    if a.ndim not in (2, 3):
        raise ProjectionError(f"project expects a 2D or 3D tensor, got {a.ndim}D")
    d = as_direction(direction, ndim=a.ndim)
    if a.ndim == 2:
        forms = [(d.q, -d.p)]
    else:
        p, q, r = d.components
        # these are d x e_z, d x e_x and d x e_y up to sign; they span the plane
        # normal to the nonzero d, so two of them are always independent
        candidates = [f for f in [(q, -p, 0), (0, r, -q), (r, 0, -p)] if any(f)]
        forms = [candidates[0], next(f for f in candidates[1:] if np.cross(candidates[0], f).any())]
    coords = np.indices(a.shape)[::-1]  # x, y (, z)
    bins = []
    for form in forms:
        s = sum(c * axis for c, axis in zip(form, coords)).reshape(-1)
        bins.append(s - s.min())
    shape = tuple(int(s.max()) + 1 for s in bins)
    return _bin_sums(a, np.ravel_multi_index(bins, shape), shape)


def twin(a) -> Tensor:
    """Alternating-sign copy: element at index i along axis 0 gets (-1)^i.

    An involution; auto-correlation magnitudes (and hence all quality
    metrics) match the input's, while the cross-correlation between an array
    and its twin stays low.
    """
    a = as_tensor(a)
    signs = np.ones(a.shape[0], dtype=np.int64)
    signs[1::2] = -1
    shaped = signs.reshape((-1,) + (1,) * (a.ndim - 1))
    data = a.data
    if a.mode == "int":  # |-a| <= max|a|, which is 2^63 for an entry of -2^63
        data = data.astype(_int_dtype(a.max_abs()), copy=False)
    return Tensor(data * shaped, a.mode)
