"""Structured box grids, nodal fields, coefficient fields and discrete norms.

Everything downstream (spectral route, semigroup kernels, extension solver,
probes) lives on these types.  Grids are axis-aligned boxes in 1D or 2D with
uniform spacing per axis.  The discrete L2 inner product uses the uniform
cell volume h^dim at every node; this convention is shared by all modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "BoundaryCondition",
    "DIRICHLET",
    "NEUMANN",
    "CoefficientField",
]


class GridError(ValueError):
    """Invalid grid, field or coefficient data."""


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition applied on the whole box boundary."""

    kind: str  # "dirichlet" | "neumann"

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise GridError(f"unknown boundary condition kind: {self.kind!r}")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind == "dirichlet"


DIRICHLET = BoundaryCondition("dirichlet")
NEUMANN = BoundaryCondition("neumann")


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box discretization.

    Parameters
    ----------
    extents : tuple of float
        Physical side length per axis, all positive.
    shape : tuple of int
        Number of nodes per axis, each >= 3.  Node i on axis d sits at
        ``i * extents[d] / (shape[d] - 1)``, reproducible exactly from the
        index.
    """

    extents: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.extents) != len(self.shape):
            raise GridError("extents and shape must have equal length")
        if self.dim not in (1, 2):
            raise GridError(f"only 1D and 2D boxes supported, got dim={self.dim}")
        if any(e <= 0 for e in self.extents):
            raise GridError("extents must be positive")
        if any(n < 3 for n in self.shape):
            raise GridError("need at least 3 nodes per axis")
        # the operator's entries are 1/h^2; with h^2 and 1/h^2 finite and positive the
        # cell volume, at least min h^2, is positive too
        for h in self.spacing:
            if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
                raise GridError(f"spacing {h:.3g} out of range: h^2 and 1/h^2 must be finite positive doubles")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return np.arange(n) * (self.extents[axis] / (n - 1))

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays, shaped like the grid (meshgrid 'ij')."""
        axes = [self.axis_coords(d) for d in range(self.dim)]
        if self.dim == 1:
            return axes
        return list(np.meshgrid(*axes, indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for d in range(self.dim):
            idx_lo = [slice(None)] * self.dim
            idx_lo[d] = 0
            idx_hi = [slice(None)] * self.dim
            idx_hi[d] = -1
            mask[tuple(idx_lo)] = True
            mask[tuple(idx_hi)] = True
        return mask

    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask()

    def active_mask(self, bc: BoundaryCondition) -> np.ndarray:
        return self.interior_mask() if bc.is_dirichlet else np.ones(self.shape, bool)


@dataclass(frozen=True)
class GridFunction:
    """Nodal scalar field on a grid.

    Dirichlet-represented fields carry explicit zeros on the boundary nodes;
    helpers below keep that contract when embedding active-node vectors.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, fn(*grid.coords()) * np.ones(grid.shape))

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def ones(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.ones(grid.shape))

    def restrict(self, mask: np.ndarray) -> np.ndarray:
        """Active-node vector (flattened, C order)."""
        return self.values[mask]

    @classmethod
    def embed(cls, grid: Grid, mask: np.ndarray, vec: np.ndarray) -> "GridFunction":
        vals = np.zeros(grid.shape)
        vals[mask] = vec
        return cls(grid, vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def l2_inner(u: GridFunction, v: GridFunction) -> float:
    """Discrete L2 pairing with uniform cell volume h^dim."""
    if u.grid != v.grid:
        raise GridError("fields live on different grids")
    return float(u.grid.cell_volume * np.sum(u.values * v.values))


def l2_norm(u: GridFunction) -> float:
    return math.sqrt(l2_inner(u, u))


def _face_midpoints(grid: Grid, axis: int) -> list[np.ndarray]:
    """Coordinates of face midpoints along `axis` (between adjacent nodes)."""
    coords = [grid.axis_coords(d) for d in range(grid.dim)]
    h = grid.spacing[axis]
    mids = coords[axis][:-1] + 0.5 * h
    coords[axis] = mids
    if grid.dim == 1:
        return coords
    return list(np.meshgrid(*coords, indexing="ij"))


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric coefficient matrix A sampled at cell faces.

    1D: `faces[0]` has shape (n-1, 1, 1) (scalar per edge).
    2D: `faces[0]` shape (nx-1, ny, 2, 2) at x-faces and `faces[1]` shape
    (nx, ny-1, 2, 2) at y-faces.
    `eigen_range` holds the exact smallest and largest eigenvalue over all
    face samples; a field whose smallest one is not positive is refused
    here, so no consumer checks ellipticity again.
    """

    grid: Grid
    faces: tuple[np.ndarray, ...]
    eigen_range: tuple[float, float] = field(init=False)

    def __post_init__(self):
        if len(self.faces) != self.grid.dim:
            raise GridError("need one face-sample array per axis")
        faces = []
        for axis, arr in enumerate(self.faces):
            arr = np.asarray(arr, dtype=float)
            expected = list(self.grid.shape)
            expected[axis] -= 1
            d = self.grid.dim
            if arr.shape != tuple(expected) + (d, d):
                raise GridError(
                    f"face samples on axis {axis} have shape {arr.shape}, "
                    f"expected {tuple(expected) + (d, d)}"
                )
            if not np.allclose(arr, np.swapaxes(arr, -1, -2), rtol=0, atol=0):
                raise GridError("coefficient samples must be exactly symmetric")
            faces.append(arr)
        lo, hi = _eigen_range(faces)
        if not lo > 0:
            raise GridError("coefficient field is not positive definite on samples")
        object.__setattr__(self, "faces", tuple(faces))
        object.__setattr__(self, "eigen_range", (lo, hi))

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "CoefficientField":
        """Sample a matrix-valued callable A(x[, y]) at face midpoints.

        The callable may return a scalar (isotropic), which is promoted to
        a multiple of the identity.
        """
        d = grid.dim
        faces = []
        for axis in range(d):
            pts = _face_midpoints(grid, axis)
            raw = fn(*pts)
            raw = np.asarray(raw, dtype=float)
            base_shape = pts[0].shape
            if raw.shape == base_shape:  # scalar field -> isotropic matrix
                arr = np.zeros(base_shape + (d, d))
                for k in range(d):
                    arr[..., k, k] = raw
            elif raw.shape == base_shape + (d, d):
                arr = raw
            else:
                raise GridError(f"callable returned unexpected shape {raw.shape}")
            faces.append(arr)
        return cls(grid, tuple(faces))

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        return cls.from_callable(grid, lambda *xs: np.ones_like(xs[0]))

    @classmethod
    def constant(cls, grid: Grid, matrix) -> "CoefficientField":
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        d = grid.dim
        if mat.shape == (1, 1) and d == 2:
            mat = mat[0, 0] * np.eye(2)
        if mat.shape != (d, d):
            raise GridError(f"constant coefficient must be {d}x{d}")
        return cls.from_callable(grid, lambda *xs: np.broadcast_to(mat, xs[0].shape + (d, d)).copy())


def _eigen_range(faces: Sequence[np.ndarray]) -> tuple[float, float]:
    """Smallest and largest eigenvalue over all symmetric face samples: the
    scalar itself in 1D; for [[a, b], [b, c]] the larger is hi = mid + rad, mid = (a+c)/2,
    rad = hypot((a-c)/2, b), and the smaller (ac - b^2) / hi, taken as a (c/hi) - b (b/hi):
    free of the cancellation in mid - rad and of overflow in ac."""

    def entries(i, j):
        return np.concatenate([arr[..., i, j].ravel() for arr in faces])

    if len(faces) == 1:
        lo = hi = entries(0, 0)
    else:
        a, b, c = entries(0, 0), entries(0, 1), entries(1, 1)
        mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
        hi = mid + rad
        with np.errstate(divide="ignore", invalid="ignore"):  # hi = 0: a zero sample, nan, refused
            lo = a * (c / hi) - b * (b / hi)
    return float(lo.min()), float(hi.max())


def _node_points(grid: Grid) -> np.ndarray:
    """Node coordinates as a (num_nodes, dim) array in C order."""
    return np.stack([c.ravel() for c in grid.coords()], axis=1)
