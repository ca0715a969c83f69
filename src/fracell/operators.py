"""Assembly of the discrete divergence-form operator -div(A grad u).

The operator is built from the discrete flux energy

    E(u) = sum_faces  vol_f * A_f (du/h)^2   (+ cell-centered cross terms in 2D)

so the matrix is symmetric by construction.  Dividing the stiffness by the
uniform cell volume yields the nodal operator (diag 2/h^2 for the 1D unit
stencil).  Dirichlet conditions are imposed by eliminating boundary rows and
columns; Neumann keeps every node and the zero-flux rows annihilate
constants.
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
    ellipticity_check,
)

__all__ = ["DiscreteOperator", "assemble", "apply"]


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


def _gate_backward_error(resid, norm_A: float, x, b, what: str, error: type) -> None:
    """Raise `error` unless the normwise backward error ||r|| / (||A|| ||x|| + ||b||)
    of a solve A x = b with residual r, in the max norm, is at most
    _BACKWARD_ERROR_TOL (NaN fails too)."""
    scale = norm_A * np.abs(x).max() + np.abs(b).max()
    err = 0.0 if scale == 0.0 else float(np.abs(resid).max() / scale)
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


def _stiffness_1d(grid: Grid, A: CoefficientField) -> sp.csr_matrix:
    h = grid.spacing[0]
    a = A.faces[0][:, 0, 0]  # scalar per edge
    diag, off = _tridiagonal(a / h, False)  # elementary stiffness h * a * (du/h)^2 -> a/h
    return sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")


def _face_triplets(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """COO triplets of the two-node flux stencils w (u_a - u_b)^2, face by
    face in the order (a,a), (b,b), (a,b), (b,a)."""
    rows = np.stack([a, b, a, b], axis=1).ravel()
    cols = np.stack([a, b, b, a], axis=1).ravel()
    vals = np.stack([w, w, -w, -w], axis=1).ravel()
    return rows, cols, vals


def _stiffness_2d(grid: Grid, A: CoefficientField) -> sp.csr_matrix:
    nx, ny = grid.shape
    hx, hy = grid.spacing
    vol = hx * hy
    Ax, Ay = A.faces  # (nx-1, ny, 2, 2), (nx, ny-1, 2, 2)
    nid = np.arange(nx * ny).reshape(nx, ny)

    # x-face fluxes: vol * A11 * ((u_E - u_W)/hx)^2 per face
    wx = (vol / hx**2) * Ax[:, :, 0, 0]
    x_faces = _face_triplets(nid[:-1, :].ravel(), nid[1:, :].ravel(), wx.ravel())

    # y-face fluxes
    wy = (vol / hy**2) * Ay[:, :, 1, 1]
    y_faces = _face_triplets(nid[:, :-1].ravel(), nid[:, 1:].ravel(), wy.ravel())

    # cross terms: cell-centered averaged gradients, A12 averaged from the
    # four surrounding face samples.  Element contribution per cell:
    # 2*vol*A12 * gx(u) * gy(u) with gx, gy linear in the 4 corner values.
    a12 = 0.25 * (
        Ax[:, :-1, 0, 1]
        + Ax[:, 1:, 0, 1]
        + Ay[:-1, :, 0, 1]
        + Ay[1:, :, 0, 1]
    )
    gx = 0.5 / hx * np.array([-1.0, 1.0, -1.0, 1.0])  # SW SE NW NE order
    gy = 0.5 / hy * np.array([-1.0, -1.0, 1.0, 1.0])
    elem = np.outer(gx, gy) + np.outer(gy, gx)  # symmetric cross form
    corners = np.stack(
        [nid[:-1, :-1], nid[1:, :-1], nid[:-1, 1:], nid[1:, 1:]], axis=-1
    ).reshape(-1, 4)
    # per cell, the 16 entries in row-major order (the triplet order fixes the
    # order in which tocsr sums duplicates); zero entries (zero A12 or a zero
    # of the element form) are not stored
    cell_vals = (vol * a12).reshape(-1, 1, 1) * elem
    keep = cell_vals != 0.0
    shape = cell_vals.shape
    cross = (
        np.broadcast_to(corners[:, :, None], shape)[keep],
        np.broadcast_to(corners[:, None, :], shape)[keep],
        cell_vals[keep],
    )

    rows, cols, vals = (np.concatenate(parts) for parts in zip(x_faces, y_faces, cross))
    n = nx * ny
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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

    Raises on a non-elliptic or non-symmetric coefficient field.
    """
    if A.grid != grid:
        raise GridError("coefficient field sampled on a different grid")
    rep = ellipticity_check(A)
    if rep.lambda1_observed <= 0:
        raise GridError("coefficient field is not positive definite on samples")

    if grid.dim == 1:
        K = _stiffness_1d(grid, A)
    else:
        K = _stiffness_2d(grid, A)

    mask = grid.active_mask(bc).ravel()
    idx = np.flatnonzero(mask)
    K = K[np.ix_(idx, idx)]
    M = (K / grid.cell_volume).tocsr()
    M.sum_duplicates()
    return DiscreteOperator(grid, bc, A, M)


def apply(op: DiscreteOperator, u: GridFunction) -> GridFunction:
    """Matrix-vector product M u, returned as a full grid function."""
    if u.grid != op.grid:
        raise GridError("operand lives on a different grid")
    return op.embed(op.matrix @ op.restrict(u))
