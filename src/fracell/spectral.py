"""Eigendecomposition and the spectral route to L^s, L^{-s} and H^s norms.

The exact eigendecomposition (by tridiagonal factors in O(N n) storage where
the operator splits, else one dense `eigh` that must fit in memory) makes this
module the reference oracle for the semigroup and extension routes.  Factors of
one constant weight take closed-form eigenpairs, the others `eigh_tridiagonal`.
Eigenvectors are orthonormalized in the discrete L2 inner product
(uniform weight h^dim), so kernel matrices built from them are densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, BoundaryCondition
from .operators import DiscreteOperator, _kronecker_factors, _tridiagonal

__all__ = [
    "EigenBasis",
    "SpectralError",
    "CompatibilityError",
    "DenseMemoryError",
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


class DenseMemoryError(SpectralError):
    """Eigenvector or kernel arrays that would not fit in the available memory."""


_RESIDUAL_TOL = 1e-8  # eigenpair residual gate, relative to lambda_max
_KERNEL_RTOL = 1e-10  # a Neumann eigenvalue this small relative to lambda_max is the kernel's 0
_MEAN_RTOL = 1e-10  # a Neumann datum with |mean| above this times its RMS is incompatible
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenpairs of a discrete operator, kept as factors.

    Active nodes form an (nx, ny) array (C order).  Eigenpair (j, k) has the
    vector X[j][:, k] (x) Q[:, j] / sqrt(weight), with Q (ny x ny) and each
    X[j] (nx x nx) l2-orthonormal, column-contiguous; `order` lists the flat
    indices j*nx + k by ascending eigenvalue.  Blocks that share closed-form
    eigenvectors are one read-only broadcast view.  A dense basis is the case
    ny = 1, Q = [[1]].
    """

    grid: Grid
    bc: BoundaryCondition
    active_mask: np.ndarray
    eigenvalues: np.ndarray
    Q: np.ndarray  # (ny, ny)
    X: np.ndarray  # (ny, nx, nx)
    order: np.ndarray  # (N,) flat block index of the m-th eigenpair
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

    def _blocks(self, per_mode: np.ndarray) -> np.ndarray:
        """Values listed in eigenvalue order (last axis), laid out as (ny, nx) blocks."""
        out = np.empty(per_mode.shape)
        out[..., self.order] = per_mode
        return out.reshape(per_mode.shape[:-1] + (self.Q.shape[0], self.X.shape[1]))

    def eigenfunction(self, k: int) -> GridFunction:
        return self.synthesize(np.eye(1, self.size, k)[0])

    def coefficients_batch(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients <row_b, phi_k> of active-node rows (B, N), O(B N (nx + ny))."""
        U = rows.reshape(len(rows), self.X.shape[1], -1) @ self.Q  # [b, x, j]
        C = np.matmul(U.transpose(2, 0, 1), self.X)  # [j, b, k]
        return math.sqrt(self.weight) * C.transpose(1, 0, 2).reshape(len(rows), -1)[:, self.order]

    def synthesize_batch(self, coeffs: np.ndarray) -> np.ndarray:
        """Active-node rows (B, N) of sum_k coeffs[b, k] phi_k."""
        W = np.matmul(self.X, self._blocks(coeffs).transpose(1, 2, 0))  # [j, x, b]
        return (W.transpose(2, 1, 0) @ self.Q.T).reshape(len(coeffs), -1) / math.sqrt(self.weight)

    def coefficients(self, u: GridFunction) -> np.ndarray:
        """Discrete L2 coefficients <u, phi_k>."""
        return self.coefficients_batch(u.restrict(self.active_mask)[None])[0]

    def synthesize(self, coeffs: np.ndarray) -> GridFunction:
        vec = self.synthesize_batch(np.asarray(coeffs)[None])[0]
        return GridFunction.embed(self.grid, self.active_mask, vec)

    def apply_fn(self, g, u: GridFunction) -> GridFunction:
        """g(L) u = sum_k g(lambda_k) u_k phi_k.

        `g` maps the eigenvalue array to the mode factors.  Its value at an
        exact zero eigenvalue (the Neumann constant mode) is used as given.
        """
        return self.synthesize(g(self.eigenvalues) * self.coefficients(u))

    def kernel(self, g) -> np.ndarray:
        """Kernel density of g(L): sum_k g(lambda_k) phi_k(x) phi_k(z), one N x N
        array filled by `kernel_rows` (with ny = 1, its one block G_0 / weight)."""
        _check_memory(self.size * (self.size + self.X.shape[1]), f"kernel matrix of {self.size} unknowns")
        out = np.empty((self.size, self.size)) if self.Q.shape[0] > 1 else None
        for _, rows in self.kernel_rows(g, out):
            pass
        return rows if out is None else out

    def kernel_rows(self, g, out: np.ndarray | None = None):
        """Yield (i, rows i..i+ny-1 of `kernel(g)`) by x-lines: with G_j = X_j diag(g) X_j^T,
        rows (x, .) = Q @ H_x / weight, H_x[j, (x', y')] = G_j[x, x'] Q[y', j], written to
        out[i : i + ny] if given.  With ny = 1 the one block is G_0, divided in place."""
        ny, nx = self.Q.shape[0], self.X.shape[1]
        _check_memory(2 * self.size * (nx + ny), f"kernel rows of {self.size} unknowns")
        G = (self.X * self._blocks(g(self.eigenvalues))[:, None, :]) @ self.X.transpose(0, 2, 1)
        if ny == 1:
            G[0] /= self.weight
            yield 0, G[0]
            return
        for i in range(0, self.size, ny):
            H = (G[:, i // ny, :, None] * self.Q.T[:, None, :]).reshape(ny, -1)
            rows = np.matmul(self.Q, H, out=None if out is None else out[i : i + ny])
            rows /= self.weight
            yield i, rows

    def residual(self, op: DiscreteOperator) -> float:
        """max_k ||(M - lambda_k) v_k||_2 / sqrt(w1) over the active nodes, v_k the
        l2-unit eigenvector and w1 the cell volume of the same node counts on the unit
        box, so residual / lambda_max is free of the unit of length and of the scale of A.
        Built from at most 256 eigenvectors of one y-mode block at a time."""
        lam = self._blocks(self.eigenvalues)
        worst = 0.0
        for j in range(self.Q.shape[0]):
            for c in range(0, self.X.shape[1], 256):
                V = (self.X[j][:, None, c : c + 256] * self.Q[None, :, j, None]).reshape(self.size, -1)
                R = op.matrix @ V
                V *= lam[j, c : c + 256]
                R -= V
                worst = max(worst, float(np.einsum("ik,ik->k", R, R).max()))
        return math.sqrt(worst / _unit_cell_volume(self.grid))

    def orthonormality_defect(self) -> float:
        """max |weight * phi^T phi - I|: exact within a y-mode block, and for
        two blocks the Cauchy-Schwarz bound |Q_j . Q_j'| max_k |X[.][:, k]|^2."""
        GQ, GX = self.Q.T @ self.Q, self.X.transpose(0, 2, 1) @ self.X
        within = np.abs(GX * np.diag(GQ)[:, None, None] - np.eye(self.X.shape[1])).max()
        across = np.abs(GQ - np.diag(np.diag(GQ))).max() * np.diagonal(GX, axis1=1, axis2=2).max()
        return float(max(within, across))


def _available_bytes() -> float:
    """MemAvailable of /proc/meminfo; no limit where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            return next(1024.0 * float(ln.split()[1]) for ln in fh if ln.startswith("MemAvailable:"))
    except (OSError, ValueError, StopIteration):
        return math.inf


def _brief(x, spec: str = "") -> str:
    """`format(x, spec)` below 1e15, else 3 significant digits (of an int past float range too)."""
    if x < 1e15:
        return format(x, spec)
    exp = int(math.log10(x))
    mantissa, shift = f"{x / 10**exp:.2e}".split("e")
    return f"{mantissa}e+{exp + int(shift)}"


def _check_memory(floats: int, what: str) -> None:
    """Refuse, before allocating, `floats` float64 values that memory cannot hold.  An int
    count past float range is compared as 1e307 floats; the need printed is the exact count's,
    rounded up (to 3 significant digits past 1e15 GiB)."""
    avail = _available_bytes()
    if 8.0 * min(floats, 1e307) > avail:
        cents = int(-(-800 * floats // 2**30))  # hundredths of a GiB, rounded up
        if cents < 10**17:
            need = f"{cents // 100}.{cents % 100:02d}"
        else:  # round up to 3 significant digits, which `_brief` prints verbatim
            unit = 10 ** (int(math.log10(cents)) - 2)
            unit *= 10 if cents >= 1000 * unit else 1
            need = _brief(-(-cents // unit) * unit // 100)
        raise DenseMemoryError(f"{what} needs ~{need} GiB, {_brief(avail / 2**30, '.2f')} GiB available")


def eigendecompose(op: DiscreteOperator) -> EigenBasis:
    """Symmetric eigendecomposition of the active-node operator.

    A Kronecker sum T_x (x) I + diag(b) (x) T_y (every 1D operator; see
    `_kronecker_factors`) is diagonalised by factors, the fast
    diagonalisation of Lynch, Rice & Thomas (1964): T_y = Q diag(mu) Q^T,
    then the tridiagonal block T_x + mu_j diag(b) per y-mode j.  Q, mu (T_y
    has one weight) and, for constant b and a one-weight T_x (A = cI or
    diag), the blocks' shared X with lambda = lambda_x + mu_j b0 are the
    closed form of `_line_eigenpairs`; other blocks take `eigh_tridiagonal`,
    and `_factor_residual` gates both.  Any other operator takes one dense
    `eigh` (divide and conquer) if its dense copies fit in the available memory.

    Eigenvectors are rescaled to discrete L2 orthonormality.  Raises with
    residual diagnostics unless the residual (or its certificate) is at most
    _RESIDUAL_TOL lambda_max, a gate free of the unit of length.
    For Neumann the (round-off sized) lowest eigenvalue is clamped to zero
    and the first eigenvector to the exact constant sign convention; for
    Dirichlet the first eigenvector is flipped positive in the interior.
    """
    factors = _kronecker_factors(op)
    if factors is not None:
        d, e, b, dy, ey = factors
        nx, ny = d.size, dy.size
        what = f"{ny} x {nx} x {nx} block eigenvectors"

        def need(blocks):  # Q, the stored X blocks and the larger of their build's copy and the certificate's chunks
            return ny**2 + blocks * nx**2 + max((blocks + 1) * nx**2, 2 * ny * min(nx, 256) * nx)

        _check_memory(need(1), what)
        mu, Q = _line_eigenpairs(dy, ey, op.bc.is_dirichlet)  # T_y has one weight, 1/hy^2 (1D: [0])
        line = _line_eigenpairs(d, e, op.bc.is_dirichlet) if np.all(b == b[0]) else None
        if line is not None:  # every block T_x + mu_j b0 I shares T_x's eigenvectors: one read-only view
            lam, X = line[0] + mu[:, None] * b[0], np.broadcast_to(line[1], (ny, nx, nx))
        else:
            import scipy.linalg as sla

            _check_memory(need(ny), what)
            if ny == 1:  # one y-mode: scipy's batching would copy X
                lam, X = sla.eigh_tridiagonal(d + mu[0] * b, e)
                lam, X = lam[None], X[None]
            else:
                lam, X = sla.eigh_tridiagonal(d + mu[:, None] * b, np.broadcast_to(e, (mu.size, e.size)))
        order = np.argsort(lam, axis=None, kind="stable")
        lam = lam.ravel()[order]
    else:
        import scipy.linalg as sla

        _check_memory(5 * op.size**2, f"dense eigendecomposition of {op.size} unknowns")
        dense = op.matrix.toarray()
        dense = 0.5 * (dense + dense.T)
        lam, V = sla.eigh(dense, driver="evd")
        Q, X, order = np.ones((1, 1)), V[None], np.arange(lam.size)
    w = op.grid.cell_volume

    # each test below is written `not (passing condition)`, so a NaN fails it
    if not math.isfinite(lam[-1]):  # ascending; a NaN elsewhere fails the residual gate through lambda_max
        raise SpectralError(f"lambda_max is not finite: {lam[-1]}")
    if op.bc.is_dirichlet:
        if not lam[0] > 0:
            raise SpectralError(f"Dirichlet operator not positive definite: lambda0={lam[0]}")
    else:
        if not abs(lam[0]) <= _KERNEL_RTOL * lam[-1]:
            raise SpectralError(f"Neumann kernel eigenvalue too large: {lam[0]}")
        lam = lam.copy()
        lam[0] = 0.0
        lam[lam < 0] = 0.0

    # sign convention: ground state nonnegative
    j, k = divmod(int(order[0]), X.shape[1])
    if X[j, :, k].sum() * Q[:, j].sum() < 0:
        assert X.flags.writeable, "a closed-form ground state is positive"
        X[j, :, k] *= -1.0

    basis = EigenBasis(op.grid, op.bc, op.grid.active_mask(op.bc), lam, Q, X, order, w)
    res = basis.residual(op) if factors is None else _factor_residual(basis, op, factors)
    if not res <= _RESIDUAL_TOL * basis.lambda_max:
        raise SpectralError(f"eigensolver residual {res:.3e} exceeds {_RESIDUAL_TOL:.1e}*lambda_max")
    return basis


def _unit_cell_volume(grid: Grid) -> float:
    """Cell volume of the grid's node counts on the unit box: the residual's scale."""
    return math.prod(1 / (n - 1) for n in grid.shape)


def _line_eigenpairs(d: np.ndarray, e: np.ndarray, dirichlet: bool):
    """Exact ascending eigenpairs (lam, V), V l2-orthonormal, of the `_tridiagonal` stencil
    (d, e) of n nodes if all its faces have one weight w, else None.  Dirichlet:
    lam_k = 4w sin^2(k pi / (2(n+1))), V[j, k] ~ sin(j k pi / (n+1)), j, k = 1..n; Neumann:
    lam_k = 4w sin^2(k pi / (2n)), V[j, k] ~ cos((2j+1) k pi / (2n)), j, k = 0..n-1 (DCT-II).
    Each entry is read from one period of sin(2 pi p / m) at its integer phase p reduced
    mod m, so no sine sees an argument past 2 pi.  V is in Fortran order, each eigenvector
    contiguous, as `eigh_tridiagonal` returns it."""
    n = d.size
    w = d[0] / 2 if dirichlet else d[0]  # a Neumann end node has one face
    wd, we = _tridiagonal(np.full(n + 1 if dirichlet else n - 1, w), dirichlet)
    if not (np.array_equal(d, wd) and np.array_equal(e, we)):
        return None
    if dirichlet:
        k, m, scale = np.arange(1, n + 1), 2 * (n + 1), math.sqrt(2 / (n + 1))
        phase, half_angle = np.multiply.outer(k, k), k * np.pi / (2 * (n + 1))
    else:  # cos(x) = sin(x + 2 pi (m/4) / m)
        k, m, scale = np.arange(n), 4 * n, math.sqrt(2 / n)
        phase, half_angle = np.multiply.outer(k, 2 * k + 1) + n, k * np.pi / (2 * n)
    VT = (scale * np.sin(2 * np.pi / m * np.arange(m)))[np.remainder(phase, m, out=phase)]  # [k, j]
    if not dirichlet:
        VT[0] = 1 / math.sqrt(n)
    return 4 * w * np.sin(half_angle) ** 2, VT.T


def _factor_residual(basis: EigenBasis, op: DiscreteOperator, factors) -> float:
    """An upper bound on `basis.residual(op)` from the factors, O(N (nx + ny)).

    With T_y q = mu q + r (mu the Rayleigh quotient) and (T_x + mu B) x = lambda x + rho
    for the stored lambda, ||(M - lambda) x (x) q|| <= ||rho|| ||q|| + (||r|| max b + (delta
    + slack) ||q||) ||x||.  delta = ||M - M_kron||_F compares each stored entry of M with the
    factor value at its offset (inf if M lacks a stencil entry); slack = (m + 3) u (2 max diag
    + delta + lambda_max), m entries a row, bounds the rounding of `residual` itself."""
    d, e, b, dy, ey = factors
    M, nx, ny = op.matrix, d.size, dy.size
    per_row = np.diff(M.indptr)
    row = np.repeat(np.arange(M.shape[0]), per_row)
    lo, off = np.minimum(row, M.indices), np.abs(M.indices - row)  # each entry as the bond (lo, lo + off)
    ep, pe, eyp = np.concatenate((e, [0.0])), np.concatenate(([0.0], e)), np.concatenate((ey, [0.0]))
    diag, x_bond, y_bond = (d[:, None] + b[:, None] * dy).ravel(), np.repeat(ep, ny), (b[:, None] * eyp).ravel()
    kron = (off == 0) * diag[lo] + (off == ny) * x_bond[lo] + (off == 1) * y_bond[lo]  # ny = 1: y_bond is 0
    full = np.count_nonzero(kron) == nx * ny + 2 * (nx - 1) * ny + 2 * nx * (ny - 1)
    delta = np.linalg.norm(M.data - kron) if full else math.inf
    slack = (per_row.max() + 3) * _UNIT_ROUNDOFF * (2.0 * diag.max() + delta + basis.lambda_max)

    Q = basis.Q
    if ny == 1:  # T_y = [dy0]: mu = dy0 and r = 0
        mu, qn, x_coef = dy, np.abs(Q), (delta + slack) * np.abs(Q)
    else:
        TQ = (np.diag(dy) + np.diag(ey, 1) + np.diag(ey, -1)) @ Q
        qq = np.einsum("yj,yj->j", Q, Q)
        mu = np.einsum("yj,yj->j", Q, TQ) / qq
        TQ -= mu * Q
        qn = np.sqrt(qq)[:, None]
        x_coef = np.sqrt(np.einsum("yj,yj->j", TQ, TQ))[:, None] * np.abs(b).max() + (delta + slack) * qn
    shift, lam = (d + mu[:, None] * b)[:, None, :], basis._blocks(basis.eigenvalues)[..., None]
    worst = 0.0
    for c in range(0, nx, 256):
        X = basis.X[:, :, c : c + 256].transpose(0, 2, 1)  # [j, k, x]: each X[j] is in Fortran order
        R = shift - lam[:, c : c + 256]
        R *= X
        r = R.reshape(-1)  # a view of the C-order R: the off-diagonal by flat shifts, pe and ep 0 where a line ends
        r[:-1] += (X * pe).reshape(-1)[1:]
        r[1:] += (X * ep).reshape(-1)[:-1]
        bound = np.sqrt(np.einsum("jkx,jkx->jk", R, R)) * qn
        bound += np.sqrt(np.einsum("jkx,jkx->jk", X, X)) * x_coef
        worst = max(worst, bound.max())
    return float(worst) / math.sqrt(_unit_cell_volume(basis.grid))


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


def fractional_solve(basis: EigenBasis, f: GridFunction, s: float) -> GridFunction:
    """Solve L^s u = f through the eigenexpansion: u = sum lambda_k^{-s} f_k phi_k.

    Neumann data must be compatible (zero mean up to `_MEAN_RTOL` relative to
    the RMS of f); the solution is returned with zero mean (pseudo-inverse:
    the kernel mode gets the factor 0).
    """
    _check_power(s, include_one=True)
    vec = f.restrict(basis.active_mask)
    if not basis.bc.is_dirichlet:
        rms = float(np.sqrt(np.mean(vec**2)))
        mean = float(np.mean(vec))
        if rms > 0 and abs(mean) > _MEAN_RTOL * rms:
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
