"""Eigendecomposition and the spectral route to L^s, L^{-s} and H^s norms.

The full dense symmetric eigendecomposition (desk scale, <= ~4000 unknowns)
makes this module the reference oracle for the semigroup and extension
routes.  Eigenvectors are orthonormalized in the discrete L2 inner product
(uniform weight h^dim), so kernel matrices built from them are densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .grids import Grid, GridFunction, BoundaryCondition, l2_norm
from .operators import DiscreteOperator

__all__ = [
    "EigenBasis",
    "SpectralCoefficients",
    "SpectralError",
    "CompatibilityError",
    "eigendecompose",
    "fractional_apply",
    "fractional_solve",
    "fractional_solve_sine",
    "hs_energy_norm",
    "scaling_check",
    "ScalingReport",
]


class SpectralError(ValueError):
    """Spectral-route contract violation (bad exponent, incompatible data)."""


class CompatibilityError(SpectralError):
    """Neumann datum with nonzero mean; the problem is not solvable."""


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenpairs of a discrete operator.

    `vectors[:, k]` is the k-th eigenvector on the active nodes, orthonormal
    in the discrete L2 product: weight * vectors.T @ vectors = I.
    """

    grid: Grid
    bc: BoundaryCondition
    active_mask: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    weight: float  # discrete cell volume

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_min_positive(self) -> float:
        pos = self.eigenvalues[self.eigenvalues > 0]
        return float(pos.min())

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.max())

    def eigenfunction(self, k: int) -> GridFunction:
        return GridFunction.embed(self.grid, self.active_mask, self.vectors[:, k])

    def coefficients(self, u: GridFunction) -> np.ndarray:
        """Discrete L2 coefficients <u, phi_k>."""
        return self.weight * (self.vectors.T @ u.restrict(self.active_mask))

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        return GridFunction.embed(self.grid, self.active_mask, self.vectors @ coeffs)

    def apply_fn(self, g, u: GridFunction) -> GridFunction:
        """g(L) u = sum_k g(lambda_k) u_k phi_k.

        `g` maps the eigenvalue array to the mode factors.  Its value at an
        exact zero eigenvalue (the Neumann constant mode) is used as given.
        """
        return self.synthesize(g(self.eigenvalues) * self.coefficients(u))

    def kernel(self, g) -> np.ndarray:
        """Kernel density of g(L): sum_k g(lambda_k) phi_k(x) phi_k(z)."""
        return (self.vectors * g(self.eigenvalues)[None, :]) @ self.vectors.T

    def residual(self, op: DiscreteOperator) -> float:
        """max_k ||M phi_k - lambda_k phi_k||_2 over the active nodes."""
        R = op.matrix @ self.vectors - self.vectors * self.eigenvalues[None, :]
        return float(np.linalg.norm(R, axis=0).max())

    def orthonormality_defect(self) -> float:
        G = self.weight * (self.vectors.T @ self.vectors)
        return float(np.abs(G - np.eye(self.size)).max())


@dataclass(frozen=True)
class SpectralCoefficients:
    """Eigen-coefficients of a field, with its L2 norm for Parseval checks."""

    basis: EigenBasis
    coeffs: np.ndarray
    l2_norm: float

    @classmethod
    def of(cls, basis: EigenBasis, u: GridFunction) -> "SpectralCoefficients":
        return cls(basis, basis.coefficients(u), l2_norm(u))

    def parseval_defect(self) -> float:
        """Relative defect | sum u_k^2 - ||u||^2 | / ||u||^2."""
        if self.l2_norm == 0.0:
            return 0.0
        return abs(float(np.sum(self.coeffs**2)) - self.l2_norm**2) / self.l2_norm**2


def eigendecompose(op: DiscreteOperator, residual_tol: float = 1e-8) -> EigenBasis:
    """Full dense symmetric eigendecomposition of the active-node operator.

    Eigenvectors are rescaled to discrete L2 orthonormality.  Raises with
    residual diagnostics if the decomposition fails the quality gates.
    For Neumann the (round-off sized) lowest eigenvalue is clamped to zero
    and the first eigenvector to the exact constant sign convention; for
    Dirichlet the first eigenvector is flipped positive in the interior.
    """
    dense = op.matrix.toarray()
    dense = 0.5 * (dense + dense.T)
    lam, V = sla.eigh(dense)
    w = op.grid.cell_volume
    V = V / math.sqrt(w)

    if op.bc.is_dirichlet:
        if lam[0] <= 0:
            raise SpectralError(f"Dirichlet operator not positive definite: lambda0={lam[0]}")
    else:
        scale = max(1.0, lam[-1])
        if abs(lam[0]) > 1e-10 * scale:
            raise SpectralError(f"Neumann kernel eigenvalue too large: {lam[0]}")
        lam = lam.copy()
        lam[0] = 0.0
        lam[lam < 0] = 0.0

    # sign convention: ground state nonnegative
    if V[:, 0].sum() < 0:
        V = V.copy()
        V[:, 0] = -V[:, 0]

    basis = EigenBasis(op.grid, op.bc, op.grid.active_mask(op.bc), lam, V, w)
    res = basis.residual(op)
    scale = max(basis.lambda_max, 1.0)
    if res > residual_tol * scale:
        raise SpectralError(
            f"eigensolver residual {res:.3e} exceeds {residual_tol:.1e}*lambda_max"
        )
    return basis


def _check_power(s: float, include_one: bool) -> None:
    hi_ok = s <= 1.0 if include_one else s < 1.0
    if not (0.0 < s and hi_ok):
        rng = "(0,1]" if include_one else "(0,1)"
        raise SpectralError(f"fractional power s={s} outside {rng}")


def fractional_apply(basis: EigenBasis, u: GridFunction, s: float) -> GridFunction:
    """L^s u = sum lambda_k^s u_k phi_k.  Admits s=1 as a consistency hook.

    For Neumann the mean (kernel mode) contributes nothing since the zero
    eigenvalue annihilates it.
    """
    _check_power(s, include_one=True)
    return basis.apply_fn(lambda lam: lam**s, u)


def fractional_solve(basis: EigenBasis, f: GridFunction, s: float,
                     mean_rtol: float = 1e-10) -> GridFunction:
    """Solve L^s u = f through the eigenexpansion: u = sum lambda_k^{-s} f_k phi_k.

    Neumann data must be compatible (zero mean up to `mean_rtol` relative to
    the RMS of f); the solution is returned with zero mean (pseudo-inverse:
    the kernel mode gets the factor 0).
    """
    _check_power(s, include_one=True)
    vec = f.restrict(basis.active_mask)
    if not basis.bc.is_dirichlet:
        rms = float(np.sqrt(np.mean(vec**2)))
        mean = float(np.mean(vec))
        if rms > 0 and abs(mean) > mean_rtol * rms:
            raise CompatibilityError(
                f"Neumann datum has nonzero mean {mean:.3e} (rms {rms:.3e}); "
                "solvability requires a mean-free right hand side"
            )

    def inverse_power(lam):
        inv = np.zeros_like(lam)
        pos = lam > 0
        inv[pos] = lam[pos] ** (-s)
        return inv

    return basis.apply_fn(inverse_power, f)


def hs_energy_norm(basis: EigenBasis, u: GridFunction, s: float) -> float:
    """Spectral H^s energy norm: sqrt( sum lambda_k^s u_k^2 ) = ||L^{s/2} u||_L2."""
    if not 0.0 < s < 1.0:
        raise SpectralError(f"s must lie in (0,1), got {s}")
    c = basis.coefficients(u)
    return math.sqrt(float(np.sum(basis.eigenvalues**s * c**2)))


def fractional_solve_sine(grid: Grid, f: GridFunction, s: float) -> GridFunction:
    """Constant-coefficient fast path: solve L^s u = f on a 1D Dirichlet
    box with A = I through the sine transform and the continuum
    eigenvalues (k pi / extent)^2.

    Equivalent to `fractional_solve` on the A = I eigenbasis up to
    discretization of the spectrum, but O(n log n), so regularity probes
    can run at resolutions where dense eigendecomposition is infeasible.
    """
    from scipy.fft import dst

    if grid.dim != 1:
        raise SpectralError("sine fast path is 1D only")
    _check_power(s, include_one=True)
    n = grid.shape[0]
    interior = f.values[1:-1]
    coef = dst(interior, type=1)
    k = np.arange(1, n - 1)
    lam = (k * np.pi / grid.extents[0]) ** 2
    u_int = dst(coef * lam ** (-s), type=1) / (2.0 * (n - 1))
    out = np.zeros(n)
    out[1:-1] = u_int
    return GridFunction(grid, out)


@dataclass(frozen=True)
class ScalingReport:
    lam_scale: float
    s: float
    max_rel_deviation: float


def scaling_check(
    basis_small: EigenBasis,
    basis_big: EigenBasis,
    u_big: GridFunction,
    s: float,
    lam_scale: float,
) -> ScalingReport:
    """Constant-coefficient scaling law check.

    The grids must be related by exact coordinate scaling: the big grid is
    the small one stretched by `lam_scale` with identical node counts, so
    node i of the small grid is the image of node i of the big grid under
    x -> x/lam_scale.  Compares L_small^s u_small against
    lam_scale^{2s} (L_big^s u_big) on the shared node images, where
    u_small(x) := u_big(lam_scale * x).
    """
    gs, gb = basis_small.grid, basis_big.grid
    if gs.shape != gb.shape:
        raise SpectralError("scaling check requires identical node counts")
    for es, eb in zip(gs.extents, gb.extents):
        if not math.isclose(eb, lam_scale * es, rel_tol=1e-14):
            raise SpectralError(
                f"extents {eb} and {es} not related by lam_scale={lam_scale}"
            )
    if basis_small.bc != basis_big.bc:
        raise SpectralError("boundary conditions differ")

    # matched nodes: same index, coordinates differ by the scale factor
    u_small = GridFunction(gs, u_big.values.copy())
    left = fractional_apply(basis_small, u_small, s)
    right = fractional_apply(basis_big, u_big, s)
    lhs = left.values
    rhs = lam_scale ** (2.0 * s) * right.values
    denom = np.abs(rhs).max()
    dev = np.abs(lhs - rhs).max() / denom if denom > 0 else 0.0
    return ScalingReport(lam_scale, s, float(dev))
