"""Assembly of the discrete divergence-form operator -div(A grad u).

The operator is built from the discrete flux energy

    E(u) = sum_faces  vol_f * A_f (du/h)^2   (+ cell-centered cross terms in 2D)

so the matrix is symmetric by construction.  Dividing the stiffness by the
uniform cell volume yields the nodal operator (diag 2/h^2 for the 1D unit
stencil).  The CSR arrays are filled directly from each node's 3-point,
5-point or (with cross terms) 9-point stencil and held by `_CSR`, a small
sparse matrix of numpy arrays (so assembling and applying an operator loads
no SciPy).  Dirichlet conditions are imposed by emitting only the interior
rows and columns; Neumann keeps every node and the zero-flux rows
annihilate constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import (
    BoundaryCondition,
    CoefficientField,
    Grid,
    GridFunction,
    GridError,
)

__all__ = ["DiscreteOperator", "assemble"]

_WALK_FLOATS = 1 << 14  # floats of one row block of the slot walk in `_CSR.__matmul__`: 128 KiB, cache-sized


class _CSR:
    """A sparse matrix in canonical CSR form (column indices sorted and unique
    within each row; int32 index arrays, as SciPy stores them), with what fracell
    needs of one: `@` on a vector or a block of columns, `abs`, `max`, `.T`, `-` (of
    one pattern), `toarray` and the row-sum norm.  `@` and the row sums give the bits of
    `scipy.sparse.csr_matrix`, which sums each row from 0 in CSR order."""

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def _rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """ELL slot tables (column, value), each (max entries a row, rows): slot k of row i
        holds the row's k-th entry in CSR order; padding points at column min(i, m - 1)
        with value 0.0, which adds nothing to a finite sum."""
        n, m = self.shape
        per = np.diff(self.indptr)
        flat = np.arange(self.nnz)  # entry e of row i, slot k sits at k * n + i
        flat -= np.repeat(self.indptr[:-1], per)
        flat *= n
        flat += self._rows()
        cols = np.empty((int(per.max(initial=0)), n), dtype=np.intp)
        cols[:] = np.minimum(np.arange(n), max(m - 1, 0))
        vals = np.zeros(cols.shape)
        cols.ravel()[flat], vals.ravel()[flat] = self.indices, self.data
        return cols, vals

    def __matmul__(self, x):
        """M @ x for a vector or an (m, k) block.  The slot walk adds, slot by slot, each
        row's k-th product to a zero start: SciPy's order, so SciPy's bits.  It runs on the
        vectors as rows (free for a column-contiguous block, one copy for another), in
        blocks of _WALK_FLOATS floats; a block's result is column-contiguous."""
        cols, vals = self._slots
        x = np.asarray(x, dtype=float)
        xt = np.ascontiguousarray(x.T).reshape(-1, self.shape[1])  # one vector a row
        yt = np.zeros((xt.shape[0], self.shape[0]))
        step = max(1, _WALK_FLOATS // max(self.shape[0], 1))
        term = np.empty((min(step, xt.shape[0]), self.shape[0]))  # one product buffer for every slot
        for lo in range(0, xt.shape[0], step):
            xb, yb = xt[lo : lo + step], yt[lo : lo + step]
            t = term[: xb.shape[0]]
            for c, v in zip(cols, vals):
                np.take(xb, c, axis=1, out=t, mode="clip")  # every index is in range: "clip" only skips a buffered copy
                t *= v
                yb += t
        return yt[0] if x.ndim == 1 else yt.T

    def row_sum_norm(self) -> float:
        """max_i sum_j |M_ij|, each row summed by `np.add.reduceat` as SciPy's
        `abs(M).sum(axis=1)` sums it; NaN propagates."""
        starts = self.indptr[:-1][np.diff(self.indptr) > 0]
        return float(np.add.reduceat(np.abs(self.data), starts).max(initial=0.0))

    def __abs__(self) -> _CSR:
        return _CSR(np.abs(self.data), self.indices, self.indptr, self.shape)

    def max(self) -> float:
        """The largest entry, stored or (where any entry is not stored) zero; NaN propagates."""
        top = np.maximum.reduce(self.data) if self.nnz else 0.0
        return float(top if self.nnz == self.shape[0] * self.shape[1] else np.maximum(top, 0.0))

    @property
    def T(self) -> _CSR:
        """The transpose: a stable sort of the entries by column keeps each new row's
        columns (the old rows) ascending."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.shape[1]))))
        return _CSR(self.data[order], self._rows()[order], indptr, self.shape[::-1])

    def __sub__(self, other: _CSR) -> _CSR:
        """M - N for two matrices of one pattern (M - M.T of a structurally symmetric M),
        dropping the zeros as SciPy does; another pattern raises ValueError."""
        same = np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)
        if self.shape != other.shape or not same:
            raise ValueError("difference of two sparse matrices of different patterns")
        data = self.data - other.data
        keep = data != 0.0
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self._rows()[keep], minlength=self.shape[0]))))
        return _CSR(data[keep], self.indices[keep], indptr, self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows(), self.indices] = self.data
        return out


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric operator on the active nodes of a grid.

    Active nodes are the interior for Dirichlet and all nodes for Neumann.
    `matrix` maps active nodal values to active nodal values of -div(A grad u).
    """

    grid: Grid
    bc: BoundaryCondition
    coeff: CoefficientField
    matrix: _CSR

    @property
    def active_mask(self) -> np.ndarray:
        return self.grid.active_mask(self.bc)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def restrict(self, u: GridFunction) -> np.ndarray:
        return u.restrict(self.active_mask)

    def embed(self, vec: np.ndarray) -> GridFunction:
        return GridFunction.embed(self.grid, self.active_mask, vec)


_BACKWARD_ERROR_TOL = 1e-12  # gate of every direct solve: the cylinder and each resolvent


def _gate_backward_error(resid, norm_A, x, b, what: str, error: type, axis=None) -> None:
    """Raise `error` unless the normwise backward error ||r|| / (||A|| ||x|| + ||b||)
    of a solve A x = b with residual r, in the max norm, is at most
    _BACKWARD_ERROR_TOL (NaN fails too).  With axis=-1 each row is a solve of
    its own, gated with its own norms (norm_A then has one entry per row)."""
    scale = norm_A * np.abs(x).max(axis=axis) + np.abs(b).max(axis=axis)
    err = np.divide(np.abs(resid).max(axis=axis), scale, out=np.zeros_like(scale), where=scale != 0.0)
    err = float(np.max(err))  # NaN propagates
    if not err <= _BACKWARD_ERROR_TOL:
        raise error(f"{what} backward error {err:.3e} above {_BACKWARD_ERROR_TOL:g}")


def _tridiagonal(w: np.ndarray, dirichlet: bool) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the 1D stiffness sum_f w_f (u_{f+1} - u_f)^2,
    restricted to the interior nodes under Dirichlet."""
    diag = np.zeros(w.size + 1)
    diag[:-1] += w
    diag[1:] += w
    if dirichlet:
        return diag[1:-1], -w[1:-1]
    return diag, -w


# the 3 x 3 stencil slots (di, dj) in row-major order, i.e. by column; the face
# slots (and the diagonal) are stored always, a cross slot where it is nonzero
_FACE_SLOTS = np.array([[False, True, False], [True, True, True], [False, True, False]])


def _stiffness(grid: Grid, A: CoefficientField, bc: BoundaryCondition) -> _CSR:
    """Stiffness on the active nodes, its CSR arrays filled from each node's 3 x 3
    stencil (1D is the ny = 1 case).  The diagonal is summed face by face (x, then
    y), then over the cells with the node as NE, SE, NW and SW corner: the order
    of the face-by-face triplet sum, so both forms give the same bits."""
    if grid.dim == 1:
        (nx,), ny = grid.shape, 1
        wx = (A.faces[0][:, 0, 0] / grid.spacing[0])[:, None]  # elementary stiffness h * a * (du/h)^2 -> a/h
        wy, c, elem = np.zeros((nx, 0)), np.zeros((nx - 1, 0)), np.zeros((4, 4))
    else:
        (nx, ny), (hx, hy) = grid.shape, grid.spacing
        vol = hx * hy
        Ax, Ay = A.faces  # (nx-1, ny, 2, 2), (nx, ny-1, 2, 2)
        wx = (vol / hx**2) * Ax[:, :, 0, 0]  # vol * A11 * ((u_E - u_W)/hx)^2 per x-face
        wy = (vol / hy**2) * Ay[:, :, 1, 1]
        # cross terms: cell-centered averaged gradients, A12 averaged from the
        # four surrounding face samples.  Element contribution per cell:
        # 2*vol*A12 * gx(u) * gy(u) with gx, gy linear in the 4 corner values.
        c = vol * (0.25 * (Ax[:, :-1, 0, 1] + Ax[:, 1:, 0, 1] + Ay[:-1, :, 0, 1] + Ay[1:, :, 0, 1]))
        gx = 0.5 / hx * np.array([-1.0, 1.0, -1.0, 1.0])  # SW SE NW NE order
        gy = 0.5 / hy * np.array([-1.0, -1.0, 1.0, 1.0])
        elem = np.outer(gx, gy) + np.outer(gy, gx)  # symmetric cross form; SW-SE, SW-NW, SE-NE, NW-NE vanish
    vals = np.zeros((nx, ny, 3, 3))
    d = vals[:, :, 1, 1]
    d[1:] += wx
    d[:-1] += wx
    d[:, 1:] += wy
    d[:, :-1] += wy
    for (di, dj), p in (((1, 1), 3), ((1, 0), 1), ((0, 1), 2), ((0, 0), 0)):  # node as NE, SE, NW, SW
        d[di : nx - 1 + di, dj : ny - 1 + dj] += c * elem[p, p]
    vals[:-1, :, 2, 1] = vals[1:, :, 0, 1] = -wx
    vals[:, :-1, 1, 2] = vals[:, 1:, 1, 0] = -wy
    vals[:-1, :-1, 2, 2], vals[1:, 1:, 0, 0] = c * elem[0, 3], c * elem[3, 0]  # SW <-> NE
    vals[1:, :-1, 0, 2], vals[:-1, 1:, 2, 0] = c * elem[1, 2], c * elem[2, 1]  # SE <-> NW

    active = grid.active_mask(bc).reshape(nx, ny)
    pos = np.full((nx + 2, ny + 2), -1)
    pos[1:-1, 1:-1][active] = np.arange(np.count_nonzero(active))
    cols = np.lib.stride_tricks.sliding_window_view(pos, (3, 3))  # active position of node (i+di, j+dj)
    keep = active[:, :, None, None] & (cols >= 0) & (_FACE_SLOTS | (vals != 0.0))
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=(2, 3))[active])])
    n = indptr.size - 1
    return _CSR(vals[keep], cols[keep], indptr, (n, n))


def _kronecker_factors(op: DiscreteOperator):
    """The operator as a Kronecker sum T_x (x) I + diag(b) (x) T_y of
    tridiagonals, returned as (T_x diagonal, T_x off-diagonal, b, T_y
    diagonal, T_y off-diagonal), or None.  Decided from the coefficient
    field: x-face A11 and y-face A22 samples that do not depend on y, and
    A12 = 0 everywhere.  In 1D, T_y is the 1 x 1 zero."""
    A, dirichlet = op.coeff, op.bc.is_dirichlet
    if op.grid.dim == 1:
        d, e = _tridiagonal(A.faces[0][:, 0, 0] / op.grid.spacing[0] ** 2, dirichlet)
        return d, e, np.zeros_like(d), np.zeros(1), np.zeros(0)
    Ax, Ay = A.faces
    a11, a22 = Ax[:, :, 0, 0], Ay[:, :, 1, 1]
    cross = np.any(Ax[..., 0, 1]) or np.any(Ay[..., 0, 1])
    if cross or np.any(a11 != a11[:, :1]) or np.any(a22 != a22[:, :1]):
        return None
    (hx, hy), ny = op.grid.spacing, op.grid.shape[1]
    d, e = _tridiagonal(a11[:, 0] / hx**2, dirichlet)
    dy, ey = _tridiagonal(np.full(ny - 1, 1.0 / hy**2), dirichlet)
    return d, e, a22[1:-1, 0] if dirichlet else a22[:, 0], dy, ey


def assemble(grid: Grid, A: CoefficientField, bc: BoundaryCondition) -> DiscreteOperator:
    """Assemble -div(A grad u) on the grid under the given boundary condition.

    `A` was checked symmetric and positive definite when it was built.
    """
    if A.grid != grid:
        raise GridError("coefficient field sampled on a different grid")
    M = _stiffness(grid, A, bc)
    M.data *= 1.0 / grid.cell_volume  # by the reciprocal, as `csr / scalar` does: the bits of M / cell_volume
    return DiscreteOperator(grid, bc, A, M)
