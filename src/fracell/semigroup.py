"""Heat semigroup, Balakrishnan quadrature and the kernels it generates.

Singular t-integrals int_0^inf g(t) dt/t^(1+sigma) are computed with the
log substitution t = e^tau on a uniform tau grid (trapezoid rule).  The
endpoints are tied to the operator spectrum: t_min resolves e^(-t lambda_max),
t_max pushes the slowest-decaying tail below tolerance.  A calibrated rule
reproduces lambda^s over the whole spectrum to ~1e-9 relative, and that
accuracy transfers verbatim to operator functions by eigen-expansion.

Kernel matrices are densities: entries are built from L2-orthonormal
eigenvectors, so their magnitudes are directly comparable to the continuum
bounds.  The jump kernel (off-diagonal only; the diagonal diverges in the
continuum) is evaluated modewise with the constant subtracted, which is
exact off the diagonal by completeness and avoids the catastrophic
cancellation of the raw truncated t-integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridFunction, _node_points
from .operators import DiscreteOperator, _CSR, _gate_backward_error
from .spectral import EigenBasis, _check_memory

__all__ = [
    "SingularQuadrature",
    "KernelMatrix",
    "KillingField",
    "QuadratureError",
    "heat_apply",
    "balakrishnan_apply",
    "jump_kernel",
    "killing_term",
    "nonlocal_bilinear_form",
    "greens_function",
    "greens_route_agreement",
    "poisson_kernel",
    "KernelFit",
    "kernel_slope_fit",
    "kernel_log_fit",
]


class QuadratureError(ValueError):
    """Uncalibrated or inconsistent singular quadrature."""


_TOL, _DTAU = 1e-9, 0.25  # truncation tolerance and log-spacing of the spectrum-tied rules


@dataclass(frozen=True)
class SingularQuadrature:
    """Node/weight rule for int_0^inf g(t) dt / t^(1+exponent).

    exponent = s handles the Balakrishnan/jump-kernel/Poisson weight
    dt/t^(1+s); exponent = -s handles the Green-function weight dt/t^(1-s).
    Weights absorb the substitution: value(g) = sum_j w_j g(t_j).
    """

    exponent: float
    t_min: float
    t_max: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (0 < self.t_min < self.t_max):
            raise QuadratureError("need 0 < t_min < t_max")
        if np.any(self.weights <= 0):
            raise QuadratureError("weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def build(cls, exponent: float, t_min: float, t_max: float, n: int) -> "SingularQuadrature":
        tau = np.linspace(math.log(t_min), math.log(t_max), n)
        dtau = tau[1] - tau[0]
        w = np.full(n, dtau)
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(exponent, t_min, t_max, np.exp(tau), w * np.exp(-exponent * tau))

    @classmethod
    def _spaced(cls, exponent: float, t_min: float, t_max: float, dtau: float) -> "SingularQuadrature":
        """`build` with log-spacing at most dtau; t_min = 0 or t_max = inf is an error."""
        if not 0.0 < t_min < t_max < math.inf:
            raise QuadratureError(f"t-range [{t_min:.3g}, {t_max:.3g}] at s={abs(exponent):.10g} over- or underflows")
        n = int(math.ceil((math.log(t_max) - math.log(t_min)) / dtau)) + 1
        return cls.build(exponent, t_min, t_max, n)

    @classmethod
    def for_spectrum(
        cls,
        s: float,
        lam_min: float,
        lam_max: float,
        tol: float = _TOL,
        dtau: float = _DTAU,
    ) -> "SingularQuadrature":
        """Rule with exponent s calibrated for (e^{-t lam} - 1) integrands over
        lam in [lam_min, lam_max]; it serves the resolvent integrands
        (1 + t lam / m)^{-m} - 1 of `balakrishnan_apply` as well.

        t_min caps the head truncation (lam t)^(1-s)/(1-s); t_max caps the
        power tail t^(-s)/(s |Gamma(-s)| lam_min^s).
        """
        from scipy.special import gamma as gamma_fn

        if not 0 < s < 1:
            raise QuadratureError(f"s={s} outside (0,1)")
        if not 0 < lam_min <= lam_max:
            raise QuadratureError("need 0 < lam_min <= lam_max")
        t_min = (tol * (1 - s)) ** (1.0 / (1.0 - s)) / lam_max
        with np.errstate(over="ignore"):
            t_max = (s * abs(gamma_fn(-s)) * lam_min**s * tol) ** (-1.0 / s)
        return cls._spaced(s, t_min, max(t_max, 10.0 / lam_min), dtau)

    @classmethod
    def for_inverse(cls, s: float, lam_min: float, lam_max: float) -> "SingularQuadrature":
        """Rule with exponent -s for int e^{-t lam} dt/t^{1-s} = Gamma(s) lam^{-s}."""
        from scipy.special import gamma as gamma_fn

        if not 0 < s < 1:
            raise QuadratureError(f"s={s} outside (0,1)")
        t_min = (_TOL * s * gamma_fn(s)) ** (1.0 / s) / lam_max
        return cls._spaced(-s, t_min, (60.0 + 10.0 * s) / lam_min, _DTAU)

    @classmethod
    def for_poisson(
        cls, s: float, y: float, lam_min_positive: float, has_kernel_mode: bool
    ) -> "SingularQuadrature":
        """Rule for int e^{-y^2/(4t)} e^{-t lam} dt/t^{1+s}.

        The Gaussian factor kills the head; the tail needs special care when
        a zero eigenvalue is present (Neumann), where the decay is only the
        power t^{-1-s}.
        """
        from scipy.special import gamma as gamma_fn

        if y <= 0:
            raise QuadratureError("Poisson rule needs y > 0")
        t_min = y**2 / (4.0 * 45.0)
        t_max = 60.0 / lam_min_positive
        if has_kernel_mode:
            t_max = max(t_max, 0.25 * y**2 * (s * gamma_fn(s) * _TOL) ** (-1.0 / s))
        return cls._spaced(s, t_min, t_max, _DTAU)

    def integrate(self, g) -> float | np.ndarray:
        """sum_j w_j g(t_j); g may return arrays (leading axis = t nodes)."""
        vals = g(self.nodes)
        return np.tensordot(self.weights, vals, axes=(0, 0))


_MODE_COLUMNS = 256  # eigenvalues of one integrand table of a modewise rule: nodes x 256 floats stay in cache


def _modewise(q: SingularQuadrature, lams, fill) -> np.ndarray:
    """`q.integrate` of a modewise integrand for every eigenvalue of `lams`, flattened.
    `fill` maps the table T[j, k] = -t_j lam_k in place to the integrand and returns it;
    the tables hold at most _MODE_COLUMNS eigenvalues, each eigenvalue's sum reads only
    its own column, and no nodes x N table is built."""
    lams = np.ravel(lams)
    out = np.empty(lams.shape)
    for c in range(0, lams.size, _MODE_COLUMNS):
        block = lams[c : c + _MODE_COLUMNS]
        out[c : c + _MODE_COLUMNS] = q.integrate(lambda t: fill(np.multiply.outer(-t, block)))
    return out


def _check_exponent(q: SingularQuadrature, s: float) -> None:
    if q.exponent != s:
        raise QuadratureError(f"rule exponent {q.exponent} does not match s={s}")


def _mode_balakrishnan(lams: np.ndarray, s: float, q: SingularQuadrature) -> np.ndarray:
    """Vectorized (1/Gamma(-s)) int (e^{-t lam}-1) dt/t^{1+s} per eigenvalue.

    Exact zero eigenvalues map to exactly zero (constant mode).
    """
    from scipy.special import gamma as gamma_fn

    return _modewise(q, lams, lambda T: np.expm1(T, out=T)) / gamma_fn(-s)


def _mode_poisson(basis: EigenBasis, s: float, y: float):
    """Mode factor lam -> (y^{2s}/(4^s Gamma(s))) int e^{-y^2/(4t)} e^{-t lam} dt/t^{1+s}
    of the extension Poisson semigroup, by a rule built for the spectrum of `basis`."""
    from scipy.special import gamma as gamma_fn

    has_kernel = bool(np.any(basis.eigenvalues == 0.0))
    q = SingularQuadrature.for_poisson(s, y, basis.lambda_min_positive, has_kernel)

    gauss = np.exp(-(y**2) / (4.0 * q.nodes))[:, None]

    def factor(lams):
        vals = _modewise(q, lams, lambda T: np.multiply(np.exp(T, out=T), gauss, out=T))
        return vals * y ** (2 * s) / (4.0**s * gamma_fn(s))

    return factor


def heat_apply(basis: EigenBasis, u: GridFunction, t: float) -> GridFunction:
    """e^{-tL} u via the eigenexpansion; t = 0 returns u exactly."""
    if t < 0:
        raise ValueError(f"heat semigroup needs t >= 0, got {t}")
    if t == 0.0:
        return GridFunction(u.grid, u.values.copy())
    return basis.apply_fn(lambda lam: np.exp(-t * lam), u)


def _upper_band(matrix: _CSR) -> np.ndarray:
    """Upper band of a symmetric matrix in LAPACK storage ab[kd + i - j, j] = A[i, j],
    filled from the CSR arrays (each entry's band row is its column minus its row); kd is
    read off the sparsity pattern (1 in 1D, about nx in 2D)."""
    rows, cols = matrix._rows(), matrix.indices
    upper = cols >= rows
    off, cols = (cols - rows)[upper], cols[upper]
    kd = int(off.max(initial=0))
    ab = np.zeros((kd + 1, matrix.shape[0]), order="F")
    ab[kd - off, cols] = matrix.data[upper]
    return ab


_STACK_ROWS = 1 << 14  # matrix rows of one stacked resolvent band, which holds kd + 1 floats per row


def _resolvent(L: _CSR, band: np.ndarray, norm_L: float, dt: np.ndarray):
    """B -> V, V[j] = (I + dt[j] L)^{-1} B[j], for a symmetric L with upper band
    `band` (`_upper_band`) and max-norm `norm_L`.  The blocks I + dt[j] L are
    stacked as one block-diagonal band (same kd, zero coupling): one banded
    Cholesky factor (`dpbtrf`) covers them all, and per call one back-solve
    (`dpbtrs`) solves them all, each block's backward error gated with its
    own norms (||I + dt L|| <= 1 + dt norm_L)."""
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    (kd1, n), k = band.shape, dt.size
    _check_memory((2 * kd1 + 6) * k * n, f"{k} stacked resolvents of {n} unknowns")  # band, factor, ~6 vectors
    ab = np.multiply(dt[:, None, None], band.T).reshape(k * n, kd1).T  # Fortran order, block j in columns j*n..
    ab[-1] += 1.0
    chol, info = dpbtrf(ab)
    if info != 0:
        j = max(info - 1, 0) // n
        raise QuadratureError(f"Cholesky of I + {dt[j]:.3e} L failed (info={info - j * n})")

    def solve(B: np.ndarray) -> np.ndarray:
        V = dpbtrs(chol, B.ravel())[0].reshape(k, n)
        resid = V + dt[:, None] * (L @ V.T).T - B
        _gate_backward_error(resid, 1.0 + dt * norm_L, V, B, "resolvent solve", QuadratureError, axis=-1)
        return V

    return solve


def balakrishnan_apply(
    source,
    u: GridFunction,
    s: float,
    q: SingularQuadrature,
    steps_per_node: int = 1,
) -> GridFunction:
    """L^s u = (1/Gamma(-s)) int (e^{-tL}u - u) dt/t^{1+s}.

    `source` is an EigenBasis (semigroup evaluated spectrally; the comparison
    against the direct power then isolates the quadrature) or a Dirichlet
    DiscreteOperator, eigen-free: e^{-tL} becomes R^m, R = (I + (t/m) L)^{-1},
    m = steps_per_node, and the sum is divided by the exact m-step constant
    C_m(s) = Gamma(1-s) Gamma(m+s) / (s Gamma(m) m^s) (C_1 = pi/sin(pi s),
    C_m -> |Gamma(-s)|).  u - R^m u = sum_{k<m} R^{k+1} ((t/m) L u) is
    summed without cancellation, a node stopping once its terms fall below
    rounding.  The nodes are taken in chunks of at most _STACK_ROWS matrix
    rows; a chunk's resolvents are one stacked band, factored by one
    `dpbtrf` call and solved by one `dpbtrs` call per step, each node's
    backward error gated (`_resolvent`).  The rule of
    `SingularQuadrature.for_spectrum` is calibrated for this integrand too.
    """
    from scipy.special import gammaln

    _check_exponent(q, s)
    if isinstance(source, EigenBasis):
        return source.apply_fn(lambda lam: _mode_balakrishnan(lam, s, q), u)
    op: DiscreteOperator = source
    if not op.bc.is_dirichlet:
        raise QuadratureError("eigen-free balakrishnan_apply needs a positive definite operator")
    if steps_per_node < 1:
        raise QuadratureError("need steps_per_node >= 1")
    m, L = steps_per_node, op.matrix
    band, norm_L = _upper_band(L), L.row_sum_norm()
    Lu = L @ op.restrict(u)
    acc, per = np.zeros_like(Lu), max(1, _STACK_ROWS // Lu.size)
    for lo in range(0, q.size, per):  # the nodes of one chunk are one stacked band
        dt, w = q.nodes[lo : lo + per] / m, q.weights[lo : lo + per]
        solve = _resolvent(L, band, norm_L, dt)
        V, node, done = dt[:, None] * Lu, np.zeros((dt.size, Lu.size)), np.zeros(dt.size, dtype=bool)
        for _ in range(m):
            V = solve(V)
            node += V
            done |= np.abs(V).max(axis=1) <= np.finfo(float).eps * np.abs(node).max(axis=1)  # terms shrink; the rest is rounding
            if done.all():
                break
            V[done] = 0.0  # a finished node solves zero, which its gate passes
        acc = np.add.accumulate(np.vstack([acc, w[:, None] * node]))[-1]  # in node order, as acc += w_j * node_j
    c_m = math.exp(gammaln(1 - s) + gammaln(m + s) - gammaln(m) - math.log(s) - s * math.log(m))
    return op.embed(acc / c_m)


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


_PAIR_ROWS = 64  # rows i of one block of node pairs (i, j > i) in `KernelMatrix.pair_data`


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric kernel density on active-node pairs.

    kind: "jump" | "jump_neumann" | "greens" | "poisson"; params records (s, y).
    """

    basis: EigenBasis
    kind: str
    entries: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.basis.grid

    def max_abs(self) -> float:
        """max |entries| by 256-row blocks: no N x N temporary."""
        A = self.entries
        return max(float(np.abs(A[i : i + 256]).max()) for i in range(0, len(A), 256))

    def symmetry_defect(self) -> float:
        """max |A - A^T| / max |A|, over 256 x 256 tiles A[I, J] - A[J, I]^T of the upper
        triangle: a - b = -(b - a) exactly, so the value is that of the full transpose."""
        scale = self.max_abs()
        if scale == 0:
            return 0.0
        A, n = self.entries, len(self.entries)
        tiles = ((slice(i, i + 256), slice(j, j + 256)) for i in range(0, n, 256) for j in range(i, n, 256))
        return max(float(np.abs(A[I, J] - A[J, I].T).max()) for I, J in tiles) / scale

    def min_entry(self) -> float:
        return float(self.entries.min())

    def row_integrals(self) -> np.ndarray:
        """Row sums times the cell volume (integral of the density in z)."""
        return self.basis.weight * self.entries.sum(axis=1)

    def active_coords(self) -> np.ndarray:
        return _node_points(self.grid)[self.basis.active_mask.ravel()]

    def pair_data(
        self,
        r_min: float,
        r_max: float,
        interior_margin: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(distance, value) arrays over unordered interior node pairs with
        r_min <= |x-z| <= r_max, both endpoints at least `interior_margin`
        from the box boundary, in upper-triangle order.  The pairs are walked
        _PAIR_ROWS rows i at a time; the memory check counts the kernel, 4
        floats per kept pair (its blocks and their concatenation) and one
        block of ~(3 dim + 6) floats per pair."""
        pts = self.active_coords()
        ok = np.ones(len(pts), dtype=bool)
        for d in range(self.grid.dim):
            lo, hi = interior_margin, self.grid.extents[d] - interior_margin
            ok &= (pts[:, d] >= lo) & (pts[:, d] <= hi)
        idx = np.flatnonzero(ok)
        n = idx.size
        _check_memory(self.entries.size + 4 * n * (n - 1) // 2 + (3 * pts.shape[1] + 6) * _PAIR_ROWS * n, f"pair distances of {n} nodes")
        sub, cols = pts[idx], np.arange(n)
        dist, vals = [np.empty(0)], [np.empty(0)]
        for lo in range(0, n, _PAIR_ROWS):
            i, j = np.nonzero(cols[lo : lo + _PAIR_ROWS, None] < cols)  # row by row, j ascending
            i += lo
            r = np.sqrt(np.sum((sub[i] - sub[j]) ** 2, axis=1))
            keep = (r >= r_min) & (r <= r_max)
            dist.append(r[keep])
            vals.append(self.entries[idx[i[keep]], idx[j[keep]]])
        return np.concatenate(dist), np.concatenate(vals)


def jump_kernel(basis: EigenBasis, s: float, q: SingularQuadrature) -> KernelMatrix:
    """Jump kernel of the nonlocal bilinear form:
    (1/(2|Gamma(-s)|)) int W_t(x,z) dt/t^{1+s} for x != z.

    Evaluated modewise with the constant subtracted; the subtraction is a
    pure diagonal by discrete completeness, so off-diagonal entries are
    exact while staying numerically stable.  The diagonal (divergent in the
    continuum) is stored as zero and excluded from every assertion.
    """
    from scipy.special import gamma as gamma_fn

    _check_exponent(q, s)
    # int (W_t - completeness) dt/t^{1+s} = Phi diag(Gamma(-s) lam^s) Phi^T
    K = basis.kernel(lambda lam: gamma_fn(-s) * _mode_balakrishnan(lam, s, q))
    K /= 2.0 * abs(gamma_fn(-s))
    np.fill_diagonal(K, 0.0)
    kind = "jump" if basis.bc.is_dirichlet else "jump_neumann"
    return KernelMatrix(basis, kind, K, {"s": s})


@dataclass(frozen=True)
class KillingField:
    """Zero-order (killing) term of the nonlocal form, as a grid function."""

    basis: EigenBasis
    s: float
    values: GridFunction

    def min_entry(self) -> float:
        return float(self.values.restrict(self.basis.active_mask).min())

    def max_entry(self) -> float:
        return float(self.values.restrict(self.basis.active_mask).max())


def killing_term(basis: EigenBasis, s: float, q: SingularQuadrature) -> KillingField:
    """Killing term (1/|Gamma(-s)|) int (1 - e^{-tL}1) dt/t^{1+s} = L^s 1.

    With this normalization the pointwise/energy identity
    <L^s u, psi> = sum sum (u-u)(psi-psi) K + sum u psi B holds exactly at
    the discrete level.  Vanishes identically under Neumann conditions,
    where the semigroup preserves constants.
    """
    return KillingField(basis, s, balakrishnan_apply(basis, GridFunction.ones(basis.grid), s, q))


def nonlocal_bilinear_form(
    u: GridFunction,
    psi: GridFunction,
    kernel: KernelMatrix,
    killing: KillingField | None = None,
) -> float:
    """Discrete pointwise/energy pairing:

        sum_{i,j} (u_i - u_j)(psi_i - psi_j) K_ij h^{2 dim}
        + sum_i u_i psi_i B_i h^dim

    which reproduces <L^s u, psi> up to quadrature error.
    """
    basis = kernel.basis
    mask = basis.active_mask
    uv = u.restrict(mask)
    pv = psi.restrict(mask)
    K = kernel.entries
    row = K.sum(axis=1)
    double = 2.0 * (np.sum(uv * pv * row) - pv @ (K @ uv))
    total = basis.weight**2 * double
    if killing is not None:
        bv = killing.values.restrict(mask)
        total += basis.weight * np.sum(uv * pv * bv)
    return float(total)


def greens_function(basis: EigenBasis, s: float) -> KernelMatrix:
    """Green function density of L^{-s} by the eigen-series
    sum_k lam_k^{-s} phi_k(z) phi_k(x)."""
    lam = basis.eigenvalues
    if np.any(lam <= 0):
        raise ValueError("Green function requires a strictly positive spectrum")
    G = basis.kernel(lambda lam: lam ** (-s))
    return KernelMatrix(basis, "greens", G, {"s": s})


def _mode_greens_quadrature(basis: EigenBasis, s: float):
    """Mode factor of the semigroup route (1/Gamma(s)) int e^{-t lam} dt/t^{1-s}."""
    from scipy.special import gamma as gamma_fn

    lam = basis.eigenvalues
    if np.any(lam <= 0):
        raise ValueError("Green function requires a strictly positive spectrum")
    q = SingularQuadrature.for_inverse(s, float(lam.min()), float(lam.max()))
    return lambda lams: _modewise(q, lams, lambda T: np.exp(T, out=T)) / gamma_fn(s)


def greens_route_agreement(G: KernelMatrix) -> float:
    """max |G - Gq| / max |G| of the series kernel G against Gq, the semigroup route (1/Gamma(s)) int W_t dt/t^{1-s},
    whose rows are compared block by block as they are built: Gq is never held whole."""
    rows = G.basis.kernel_rows(_mode_greens_quadrature(G.basis, G.params["s"]))
    return max(float(np.abs(G.entries[i : i + len(R)] - R).max()) for i, R in rows) / G.max_abs()


def poisson_kernel(basis: EigenBasis, s: float, y: float) -> KernelMatrix:
    """Extension Poisson kernel
    P_y^s = (y^{2s} / (4^s Gamma(s))) int e^{-y^2/(4t)} W_t dt/t^{1+s}."""
    if y <= 0:
        raise ValueError(f"Poisson kernel needs y > 0, got {y}")
    P = basis.kernel(_mode_poisson(basis, s, y))
    return KernelMatrix(basis, "poisson", P, {"s": s, "y": y})


# ---------------------------------------------------------------------------
# fit reports for the two-sided estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelFit:
    kind: str
    s: float | None
    slope: float
    intercept: float
    rmse: float
    r2: float
    pairs_used: int


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rmse = float(np.sqrt(np.mean(resid**2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), rmse, r2


def kernel_slope_fit(
    kernel: KernelMatrix,
    r_min: float | None = None,
    r_max: float | None = None,
    interior_margin: float | None = None,
) -> KernelFit:
    """Log-log slope of kernel values against pair distance.

    Near-diagonal pairs |x-z| < 2h are excluded (the discretization
    saturates the singularity); endpoints stay away from the boundary so
    the first-eigenfunction factor is ~1.
    """
    grid = kernel.grid
    h = max(grid.spacing)
    ext = min(grid.extents)
    if r_min is None:
        r_min = 2.0 * h
    if r_max is None:
        r_max = ext / 4.0
    if interior_margin is None:
        interior_margin = ext / 4.0
    dist, vals = kernel.pair_data(r_min, r_max, interior_margin)
    keep = vals > 0
    dist, vals = dist[keep], vals[keep]
    if dist.size < 4:
        raise ValueError("not enough interior pairs for a slope fit")
    slope, intercept, rmse, r2 = _linear_fit(np.log(dist), np.log(vals))
    return KernelFit(kernel.kind, kernel.params.get("s"), slope, intercept, rmse, r2, dist.size)


def kernel_log_fit(
    kernel: KernelMatrix,
    r_min: float | None = None,
    r_max: float | None = None,
    interior_margin: float | None = None,
) -> KernelFit:
    """Fit values = a * ln(1/|x-z|) + b (the n = 2s logarithmic regime)."""
    grid = kernel.grid
    h = max(grid.spacing)
    ext = min(grid.extents)
    if r_min is None:
        r_min = 2.0 * h
    if r_max is None:
        r_max = ext / 8.0
    if interior_margin is None:
        interior_margin = 3.0 * ext / 8.0
    dist, vals = kernel.pair_data(r_min, r_max, interior_margin)
    if dist.size < 4:
        raise ValueError("not enough interior pairs for a log fit")
    slope, intercept, rmse, r2 = _linear_fit(np.log(1.0 / dist), vals)
    return KernelFit(kernel.kind, kernel.params.get("s"), slope, intercept, rmse, r2, dist.size)
