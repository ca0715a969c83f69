"""Assembly of the discrete divergence-form operator -div(A grad u).

The operator is built from the discrete flux energy

    E(u) = sum_faces  vol_f * A_f (du/h)^2   (+ cell-centered cross terms in 2D)

so the matrix is symmetric by construction.  Dividing the stiffness by the
uniform cell volume yields the nodal operator (diag 2/h^2 for the 1D unit
stencil).  The CSR arrays are filled directly from each node's 3-point,
5-point or (with cross terms) 9-point stencil.  Dirichlet conditions are
imposed by emitting only the interior rows and columns; Neumann keeps every
node and the zero-flux rows annihilate constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grids import (
    BoundaryCondition,
    CoefficientField,
    Grid,
    GridFunction,
    GridError,
)

__all__ = ["DiscreteOperator", "assemble"]


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse symmetric operator on the active nodes of a grid.

    Active nodes are the interior for Dirichlet and all nodes for Neumann.
    `matrix` maps active nodal values to active nodal values of -div(A grad u).
    """

    grid: Grid
    bc: BoundaryCondition
    coeff: CoefficientField
    matrix: sp.csr_matrix

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

    def symmetry_defect(self) -> float:
        d = self.matrix - self.matrix.T
        return float(abs(d).max()) if d.nnz else 0.0


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


def _stiffness(grid: Grid, A: CoefficientField, bc: BoundaryCondition) -> sp.csr_matrix:
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
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(n, n))


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
