"""Degenerate weighted extension problem on the cylinder base x (0, Y).

Solves div(y^a B(x) grad U) = 0 (or = div(y^a F) with a flux datum f at
y = 0), a = 1 - 2s, on a graded y-mesh.  The vertical fluxes use the exact
closed-form coefficient kappa = 2s / (y_{j+1}^{2s} - y_j^{2s}), which makes
the scheme exact on the span of {1, y^{2s}} - precisely the singular pair
that carries the Dirichlet-to-Neumann signal.  Horizontal terms reuse the
base operator stiffness scaled by the exact per-cell weight integrals of
y^a, so the cylinder matrix is symmetric by construction and the weight is
never sampled at y = 0.

Two normalization constants appear in the Neumann-trace identity and both
are kept explicit:

    intro form:    -(1/(2s)) lim y^a U_y = dtn_constant_intro(s)    * L^s u
    div form:            -lim y^a U_y    = dtn_constant_divform(s)  * L^s u

with dtn_constant_divform(s) = 2s * dtn_constant_intro(s).  The weighted
energy of the extension equals dtn_constant_divform(s) * ||u||^2 in the
spectral H^s energy norm; every helper states which normalization it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, GridError
from .operators import DiscreteOperator, _CSR, _gate_backward_error, _tridiagonal
from .spectral import EigenBasis, _check_memory, eigendecompose

__all__ = [
    "ExtensionMesh",
    "ExtensionField",
    "ForcingData",
    "solve_extension",
    "solve_extension_forced",
    "dtn_extract",
    "extension_multipliers",
    "dtn_constant_intro",
    "dtn_constant_divform",
    "extension_energy",
    "extension_series_eval",
    "bessel_k",
    "caccioppoli_check",
    "trace_inequality_check",
]


class ExtensionError(ValueError):
    """Extension-problem contract violation."""


_FLUSH_BELOW = float(np.finfo(float).tiny)  # `_y_solve` zeroes subnormal solution entries
_LID_DECAY = 1e-8  # the default lid height Y has K_s(sqrt(lam0) Y) below this


def dtn_constant_intro(s: float) -> float:
    """|Gamma(-s)| / (4^s Gamma(s)) - the incremental-quotient normalization."""
    from scipy.special import gamma as gamma_fn

    return abs(gamma_fn(-s)) / (4.0**s * gamma_fn(s))


def dtn_constant_divform(s: float) -> float:
    """Gamma(1-s) / (4^{s-1/2} Gamma(s)) - the weighted-derivative normalization."""
    from scipy.special import gamma as gamma_fn

    return gamma_fn(1.0 - s) / (4.0 ** (s - 0.5) * gamma_fn(s))


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Backed by the scaled routine to keep 1e-10 relative accuracy across
    x in [1e-6, 50]; overflow/underflow outside the representable range is
    flagged instead of silently returning garbage.
    """
    from scipy.special import kve

    if not 0.0 < nu < 1.0:
        raise ValueError(f"order nu={nu} outside (0,1)")
    if x <= 0.0:
        raise ValueError(f"bessel_k needs x > 0, got {x}")
    val = kve(nu, x) * math.exp(-x) if x < 650.0 else 0.0
    if x >= 650.0 or val == 0.0:
        raise FloatingPointError(f"K_{nu}({x}) underflows double precision")
    if not np.isfinite(val):
        raise FloatingPointError(f"K_{nu}({x}) overflows double precision")
    return float(val)


def _decay_height(s: float, lam0: float) -> float:
    """Smallest Y with K_s(sqrt(lam0) Y) < _LID_DECAY (truncation-lid rule)."""
    from scipy.special import kve

    w_lo, w_hi = 1e-3, 4.0
    while kve(s, w_hi) * math.exp(-w_hi) >= _LID_DECAY:
        w_lo, w_hi = w_hi, 2.0 * w_hi
    for _ in range(80):
        mid = 0.5 * (w_lo + w_hi)
        if kve(s, mid) * math.exp(-mid) >= _LID_DECAY:
            w_lo = mid
        else:
            w_hi = mid
    return w_hi / math.sqrt(lam0)


@dataclass(frozen=True)
class ExtensionMesh:
    """Graded cylinder mesh: base grid x y-nodes y_j = Y (j/M)^gamma.

    Carries the exact per-cell integrals of the weight y^a (dual cells
    around nodes) and the exact-flux coefficients kappa on vertical faces.
    """

    base: Grid
    s: float
    y_nodes: np.ndarray
    gamma_mesh: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ExtensionError(f"s={self.s} outside (0,1)")
        y = np.asarray(self.y_nodes, dtype=float)
        if y[0] != 0.0 or np.any(np.diff(y) <= 0):
            raise ExtensionError("y-nodes must start at 0 and increase strictly")
        object.__setattr__(self, "y_nodes", y)

    @property
    def a(self) -> float:
        return 1.0 - 2.0 * self.s

    @property
    def layers(self) -> int:
        return self.y_nodes.size - 1

    @property
    def height(self) -> float:
        return float(self.y_nodes[-1])

    @classmethod
    def build(
        cls,
        base: Grid,
        s: float,
        layers: int,
        height: float | None = None,
        gamma_mesh: float | None = None,
        lam0: float | None = None,
    ) -> "ExtensionMesh":
        """Graded mesh; if `height` is omitted the truncation lid is placed
        where the lowest-mode Bessel factor falls below 1e-8 (needs lam0).

        The default grading max(3, 1/s) keeps the first layers deep inside
        the y^{2s} regime; a gentler grading contaminates the trace fit for
        s >= 1/2 at no saving elsewhere."""
        if layers < 4:
            raise ExtensionError("need at least 4 layers")
        if gamma_mesh is None:
            gamma_mesh = max(3.0, 1.0 / s)
        if gamma_mesh < 1.0:
            raise ExtensionError("grading exponent must be >= 1")
        if height is None:
            if lam0 is None:
                raise ExtensionError("either height or lam0 must be given")
            height = _decay_height(s, lam0)
        j = np.arange(layers + 1, dtype=float)
        y = height * (j / layers) ** gamma_mesh
        if not np.all(np.diff(y ** (2.0 * s)) > 0):  # kappa needs distinct y^{2s}
            raise ExtensionError(
                f"grading exponent {gamma_mesh:g} underflows the y-nodes of a {layers}-layer mesh"
            )
        return cls(base, s, y, gamma_mesh)

    def cell_weights(self) -> np.ndarray:
        """Exact integrals of y^a over the mesh cells [y_j, y_{j+1}]."""
        p = 1.0 + self.a  # = 2 - 2s in (0, 2)
        yp = self.y_nodes**p
        return np.diff(yp) / p

    def node_weights(self) -> np.ndarray:
        """Exact integrals of y^a over the dual cells around each node."""
        y = self.y_nodes
        mids = 0.5 * (y[:-1] + y[1:])
        edges = np.concatenate([[0.0], mids, [y[-1]]])
        p = 1.0 + self.a
        ep = edges**p
        return np.diff(ep) / p

    def face_kappa(self) -> np.ndarray:
        """Exact-flux vertical coefficients 2s / (y_{j+1}^{2s} - y_j^{2s})."""
        q = 1.0 - self.a  # = 2s
        yq = self.y_nodes**q
        return q / np.diff(yq)


@dataclass(frozen=True)
class ExtensionField:
    """Cylinder solution U(x, y_j); values shaped (layers+1, *base.shape).

    The trace row U(., 0) is values[0]; lateral Dirichlet rows are
    identically zero when the Dirichlet variant was solved.
    """

    mesh: ExtensionMesh
    op: DiscreteOperator
    values: np.ndarray

    def __post_init__(self):
        expected = (self.mesh.layers + 1,) + self.mesh.base.shape
        if self.values.shape != expected:
            raise ExtensionError(
                f"field shape {self.values.shape}, expected {expected}"
            )

    def trace(self) -> GridFunction:
        return GridFunction(self.mesh.base, self.values[0].copy())


@dataclass(frozen=True)
class ForcingData:
    """Forcing for the perturbed problem: horizontal field F (sampled at
    base x-faces per layer) and the Neumann-type datum f on the base.  F has
    no vertical component."""

    horizontal: tuple[np.ndarray, ...] | None  # per base axis: (n_faces_axis, layers+1)
    f: GridFunction | None


def _base_stiffness(op: DiscreteOperator) -> _CSR:
    """Stiffness on the active base nodes (operator times cell volume)."""
    M = op.matrix
    return _CSR(M.data * op.grid.cell_volume, M.indices, M.indptr, M.shape)


def _vertical_stiffness(mesh: ExtensionMesh, vol: float, first: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows and columns first..M-1 of the exact-flux tridiagonal T over layers 0..M, times
    the base cell volume: its diagonal, its off-diagonal and its row-sum norm
    max_i sum_j |T_ij| in closed form, each row summed as `abs(T).sum(axis=1)` sums it
    (`np.add.reduceat`, which adds a row a, b, c as a + (b + c))."""
    diag, off = _tridiagonal(mesh.face_kappa(), False)
    d, e = diag[first : mesh.layers] * vol, off[first : mesh.layers - 1] * vol
    sums = np.abs(d)
    sums[:-1] += np.abs(e)
    sums[1:] += np.abs(e)
    return d, e, float(sums.max())


def _tridiagonal_apply(d: np.ndarray, e: np.ndarray, V: np.ndarray) -> np.ndarray:
    """T V along axis 0 of V for the symmetric tridiagonal T with diagonal d and
    off-diagonal e: the three diagonals as slices, added in CSR order to a zero
    start, so the bits of `scipy.sparse.diags([e, d, e], [-1, 0, 1]) @ V`."""
    TV, term = np.zeros_like(V), np.empty_like(V)  # in V's layout
    TV[1:] += np.multiply(e[:, None], V[:-1], out=term[1:])
    TV += np.multiply(d[:, None], V, out=term)
    TV[:-1] += np.multiply(e[:, None], V[1:], out=term[:-1])
    return TV


def _y_solve(mesh: ExtensionMesh, lam: np.ndarray, rhs: np.ndarray, first: int) -> np.ndarray:
    """Solve (lam_k D + T) x_k = rhs[k] on the rows first..M-1 for all base modes k (lam_k =
    h^dim lambda_k, D the node weights) as the blocks, coupled by exact zeros, of one tridiagonal
    in `solveh_banded`'s upper layout: one LAPACK `ptsv` call, which overwrites rhs.  Entries
    of x below the smallest normal double (high modes far up the cylinder) are flushed to
    zero: a BLAS basis transform of subnormal operands takes a slow path."""
    import scipy.linalg as sla

    M, vol = mesh.layers, mesh.base.cell_volume
    diag, off = _tridiagonal(mesh.face_kappa(), False)  # T / vol
    band = np.zeros((2, lam.size, M - first))
    band[0, :, 1:] = off[first : M - 1] * vol
    np.multiply(lam[:, None], mesh.node_weights()[first:M], out=band[1])
    band[1] += diag[first:M] * vol
    x = sla.solveh_banded(band.reshape(2, -1), rhs.reshape(-1), overwrite_ab=True, overwrite_b=True)
    x[np.abs(x) < _FLUSH_BELOW] = 0.0
    return x.reshape(rhs.shape)


def _unit_increments(mesh: ExtensionMesh, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The increments v_k (rows 1..M-1) of the extension phi_k (x) (1 + v_k) of each unit base
    eigenmode, and their right-hand sides: v_0 = 0, v_M = -1 and (lam_k D + T)(1 + v_k) = 0, where
    T's rows sum to zero, give (lam_k D + T) v_k = -lam_k D + T[M-1, M] e_{M-1}.  So the increments
    the DtN fit reads are solved for, not differenced from O(1) rows.  Each caller gates the solve."""
    M = mesh.layers
    rhs = -lam[:, None] * mesh.node_weights()[1:M]
    rhs[:, -1] -= mesh.face_kappa()[-1] * mesh.base.cell_volume  # T[M-1, M]
    return _y_solve(mesh, lam, rhs.copy(), 1), rhs


def _gate_cylinder(op: DiscreteOperator, mesh: ExtensionMesh, V: np.ndarray, rhs: np.ndarray, first: int) -> None:
    """Gate D_j K V_j + (T V)_j = rhs_j on the rows first..M-1 in physical space (K =
    op.matrix h^dim), where a basis of another operator fails."""
    M, K = mesh.layers, _base_stiffness(op)
    D = mesh.node_weights()[first:M]
    d, e, norm_T = _vertical_stiffness(mesh, op.grid.cell_volume, first)
    norm_A = D.max() * K.row_sum_norm() + norm_T  # bounds ||D (x) K + Tjj (x) I||
    resid = D[:, None] * (K @ V.T).T + _tridiagonal_apply(d, e, V) - rhs
    _gate_backward_error(resid, norm_A, V, rhs, "cylinder solve", ExtensionError)


def extension_multipliers(mesh: ExtensionMesh, lam) -> tuple[np.ndarray, np.ndarray]:
    """DtN value g(lam) and h^dim times the energy e(lam) of the extension of a
    unit base eigenmode phi with eigenvalue lam: for u = sum_k c_k phi_k,
    dtn_extract(solve_extension(u)) is sum_k g(lam_k) c_k phi_k and
    extension_energy is sum_k e(lam_k) c_k^2 / h^dim.  Both are read off the
    increments v of phi (x) (1 + v) (`_unit_increments`), whose solve is gated."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    M, vol = mesh.layers, mesh.base.cell_volume
    fit = _dtn_fit(mesh)  # checks the layer count before any solve
    _check_memory(8 * lam.size * M, f"y-systems of a cylinder of {M + 1} layers x {lam.size} base nodes")  # ~8 arrays
    v, rhs = _unit_increments(mesh, vol * lam)
    D, (d, e, norm_T) = mesh.node_weights()[1:M], _vertical_stiffness(mesh, vol, 1)
    norm_A = vol * lam.max() * D.max() + norm_T
    resid = vol * lam[:, None] * D * v + _tridiagonal_apply(d, e, v.T).T - rhs
    _gate_backward_error(resid, norm_A, v, rhs, "extension multiplier solve", ExtensionError)
    g = v[:, :4] @ fit
    v = np.pad(v, ((0, 0), (1, 0)))  # w - 1 on the rows 0..M-1; -1 on the lid
    e = vol * lam * ((1.0 + v) ** 2 @ mesh.node_weights()[:M])
    e += vol * (np.diff(v, axis=1, append=-1.0) ** 2 @ mesh.face_kappa())
    return g, e


def _forcing_load(
    op: DiscreteOperator,
    mesh: ExtensionMesh,
    horizontal: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Load rows (M+1, active nodes) of int y^a F . grad(psi) for hat functions psi."""
    grid = op.grid
    if grid.dim != 1:
        raise ExtensionError("forcing fields are supported for 1D bases")
    (fx,) = horizontal
    nx = grid.shape[0]
    if fx.shape != (nx - 1, mesh.layers + 1):
        raise ExtensionError(
            f"horizontal forcing shape {fx.shape}, expected {(nx - 1, mesh.layers + 1)}"
        )
    contrib = np.zeros((mesh.layers + 1, nx))
    contrib[:, :-1] += fx.T   # face (i, i+1) pushes +F on node i
    contrib[:, 1:] -= fx.T    # and -F on node i+1 -> (F_{i-1/2} - F_{i+1/2})
    return -mesh.node_weights()[:, None] * contrib[:, op.active_mask]


def solve_extension(
    op: DiscreteOperator, u: GridFunction, mesh: ExtensionMesh, basis: EigenBasis | None = None
) -> ExtensionField:
    """Weak solution of div(y^a B grad U) = 0 with trace U(., 0) = u.

    Lateral boundary follows the base operator's condition (Dirichlet
    walls or zero conormal flux); the lid at y = Y is homogeneous Dirichlet
    as the decay surrogate.  For u = sum_k c_k phi_k in the base `EigenBasis`
    (`eigendecompose(op)` if not given) U = sum_k c_k phi_k (x) (1 + v_k),
    from the increments v_k that `extension_multipliers` reads.
    """
    if u.grid != op.grid:
        raise GridError("trace lives on a different grid")
    if mesh.base != op.grid:
        raise ExtensionError("mesh base differs from operator grid")
    M, trace = mesh.layers, op.restrict(u)
    # traced peak: 4.7 to 5.5 (M+1) x N arrays (the increments, their transform and the residual)
    _check_memory(6 * (M + 1) * op.grid.num_nodes, f"cylinder of {M + 1} layers x {op.size} base nodes")
    basis = eigendecompose(op) if basis is None else basis
    v = _unit_increments(mesh, op.grid.cell_volume * basis.eigenvalues)[0]
    V = basis.synthesize_batch((basis.coefficients(u)[:, None] * v).T)  # U - u on the rows 1..M-1
    rhs = -mesh.node_weights()[1:M, None] * (_base_stiffness(op) @ trace)[None, :]
    rhs[-1] -= op.grid.cell_volume * mesh.face_kappa()[-1] * trace  # T[M-1, M] u
    _gate_cylinder(op, mesh, V, rhs, 1)
    values = np.zeros((M + 1,) + op.grid.shape)
    values[:M, op.active_mask] = trace
    values[1:M, op.active_mask] += V
    return ExtensionField(mesh, op, values)


def solve_extension_forced(
    op: DiscreteOperator,
    mesh: ExtensionMesh,
    forcing: ForcingData,
    basis: EigenBasis | None = None,
) -> ExtensionField:
    """Weak solution of div(y^a B grad U) = div(y^a F), -y^a U_y|_{y=0} = f.

    The trace row is free; f enters the y = 0 equation as a flux load.  The
    load rows are solved in the base `EigenBasis` (`eigendecompose(op)` if not given).
    """
    if mesh.base != op.grid:
        raise ExtensionError("mesh base differs from operator grid")
    M = mesh.layers
    load = np.zeros((M + 1, op.size))
    if forcing.f is not None:
        load[0] += op.grid.cell_volume * op.restrict(forcing.f)
    if forcing.horizontal is not None:
        load += _forcing_load(op, mesh, forcing.horizontal)
    # traced peak: 4.9 to 5.7 (M+1) x N arrays (the load rows, the basis transforms and the residual)
    _check_memory(6 * (M + 1) * op.grid.num_nodes, f"cylinder of {M + 1} layers x {op.size} base nodes")
    basis = eigendecompose(op) if basis is None else basis
    R = np.ascontiguousarray(basis.coefficients_batch(load[:M]).T)  # mode k's rows in row k
    V = basis.synthesize_batch(_y_solve(mesh, op.grid.cell_volume * basis.eigenvalues, R, 0).T)
    _gate_cylinder(op, mesh, V, load[:M], 0)
    values = np.zeros((M + 1,) + op.grid.shape)
    values[:M, op.active_mask] = V
    return ExtensionField(mesh, op, values)


def dtn_extract(field: ExtensionField, s: float) -> GridFunction:
    """Recover L^s u from the extension by the incremental-quotient fit.

    Least squares of U(x, y) - U(x, 0) against {y^{2s}, y^2} on the first
    4 positive layers; the quadratic column is a nuisance term
    that removes the leading regular contamination of the y^{2s}
    coefficient beta(x) (a pure single-term fit leaves an O(y^{2-2s})
    error that dominates for s > 1/2).  Returns -beta / dtn_constant_intro(s).
    """
    mesh = field.mesh
    if not math.isclose(s, mesh.s, rel_tol=1e-12):
        raise ExtensionError(f"field was solved for s={mesh.s}, asked s={s}")
    diffs = field.values[1:5] - field.values[0][None, ...]
    return GridFunction(mesh.base, np.tensordot(_dtn_fit(mesh), diffs, axes=1))


def _dtn_fit(mesh: ExtensionMesh) -> np.ndarray:
    """The row of `dtn_extract`'s fit that maps the increments U(y_j) - u,
    j = 1..4, to -beta / dtn_constant_intro(s); the columns y^{2s} and y^2
    are scaled to 1 at y_4 so the tiny graded layers keep the least-squares
    problem well conditioned.  The fit layers must lie below the lid."""
    if mesh.layers < 5:
        raise ExtensionError("the 4-layer DtN fit needs at least 5 layers")
    s, y_n = mesh.s, mesh.y_nodes[4]
    y = mesh.y_nodes[1:5] / y_n
    pinv = np.linalg.pinv(np.stack([y ** (2.0 * s), y**2], axis=1))
    return -pinv[0] / (y_n ** (2.0 * s) * dtn_constant_intro(s))


def extension_energy(field: ExtensionField) -> float:
    """Weighted Dirichlet energy int y^a B grad U . grad U over the cylinder.

    Equals dtn_constant_divform(s) times the squared spectral H^s energy
    norm of the trace, up to mesh error.
    """
    op = field.op
    mesh = field.mesh
    rows = field.values[:, op.active_mask]  # (M+1, active nodes)
    horiz = float(mesh.node_weights() @ np.einsum("jn,nj->j", rows, _base_stiffness(op) @ rows.T))
    vert = float(np.sum(mesh.face_kappa()[:, None] * np.diff(rows, axis=0) ** 2) * op.grid.cell_volume)
    return horiz + vert


def extension_series_eval(
    basis: EigenBasis, u: GridFunction, s: float, y: float
) -> GridFunction:
    """Extension by the eigen-Bessel series

        U(x,y) = (2^{1-s}/Gamma(s)) sum_k (sqrt(lam_k) y)^s
                 K_s(sqrt(lam_k) y) u_k phi_k(x),

    evaluated with the scaled Bessel routine so large arguments underflow
    cleanly to zero.  y = 0 returns u (the prefactor limit is exactly one).
    """
    from scipy.special import gamma as gamma_fn, kve

    if y < 0:
        raise ExtensionError("need y >= 0")
    if not 0.0 < s < 1.0:
        raise ExtensionError(f"s={s} outside (0,1)")

    def bessel_factor(lam):
        w = np.sqrt(lam) * y
        factor = np.ones_like(w)
        pos = w > 0
        with np.errstate(under="ignore"):
            factor[pos] = (
                (2.0 ** (1.0 - s) / gamma_fn(s))
                * w[pos] ** s
                * kve(s, w[pos])
                * np.exp(-w[pos])
            )
        return factor

    return basis.apply_fn(bessel_factor, u)


# ---------------------------------------------------------------------------
# inequality probes
# ---------------------------------------------------------------------------


def _eta_on_mesh(mesh: ExtensionMesh, eta) -> np.ndarray:
    xs = mesh.base.coords()
    vals = np.zeros((mesh.layers + 1,) + mesh.base.shape)
    for j, yj in enumerate(mesh.y_nodes):
        vals[j] = eta(*xs, yj) * np.ones(mesh.base.shape)
    return vals


def caccioppoli_check(
    field: ExtensionField,
    eta,
    forcing: ForcingData | None = None,
) -> dict:
    """Weighted Caccioppoli probe for the 1D-base cylinder:

        lhs = int y^a eta^2 |grad U|^2
        rhs = int y^a (|grad eta|^2 U^2 + |F|^2 eta^2) + int_y=0 eta^2 |U| |f|

    (no constants applied; the report carries lhs, each rhs term and the
    ratio lhs / sum(rhs), whose boundedness across refinements and data is
    the assertion).  `eta` is a callable eta(x, y) that must vanish on the
    lateral walls and the lid.
    """
    mesh = field.mesh
    grid = mesh.base
    if grid.dim != 1:
        raise ExtensionError("caccioppoli probe implemented for 1D bases")
    h = grid.spacing[0]
    V = mesh.node_weights()
    Wc = mesh.cell_weights()
    U = field.values  # (M+1, nx)
    E = _eta_on_mesh(mesh, eta)

    # horizontal gradients at (x-face, layer)
    dUx = np.diff(U, axis=1) / h
    dEx = np.diff(E, axis=1) / h
    Ef = 0.5 * (E[:, :-1] + E[:, 1:])
    Uf = 0.5 * (U[:, :-1] + U[:, 1:])
    # vertical gradients at (node, y-face)
    dy = np.diff(mesh.y_nodes)
    dUy = np.diff(U, axis=0) / dy[:, None]
    dEy = np.diff(E, axis=0) / dy[:, None]
    Eyf = 0.5 * (E[:-1] + E[1:])
    Uyf = 0.5 * (U[:-1] + U[1:])

    lhs = float(np.sum(V[:, None] * (Ef**2) * dUx**2) * h)
    lhs += float(np.sum(Wc[:, None] * (Eyf**2) * dUy**2) * h)

    grad_eta_term = float(np.sum(V[:, None] * (Uf**2) * dEx**2) * h)
    grad_eta_term += float(np.sum(Wc[:, None] * (Uyf**2) * dEy**2) * h)

    forcing_term = 0.0
    flux_term = 0.0
    if forcing is not None and forcing.horizontal is not None:
        (fx,) = forcing.horizontal
        forcing_term = float(np.sum(V[None, :] * (fx**2) * (Ef.T**2)) * h)
    if forcing is not None and forcing.f is not None:
        fv = forcing.f.values
        flux_term = float(h * np.sum(E[0] ** 2 * np.abs(U[0]) * np.abs(fv)))

    rhs = grad_eta_term + forcing_term + flux_term
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    return {
        "lhs": lhs,
        "rhs_grad_eta": grad_eta_term,
        "rhs_forcing": forcing_term,
        "rhs_flux": flux_term,
        "ratio": ratio,
    }


def trace_inequality_check(field: ExtensionField, r_list, s: float) -> dict:
    """Radius-weighted trace probe: per radius r the ratio

        r^{1-s} ||U(., 0)||_{L2(B_r)}  /  ||U||_{H1(B_r x (0,r), y^a)}

    over balls B_r about the middle of the base interval; its sup over r
    staying bounded under refinement is the assertion."""
    mesh = field.mesh
    grid = mesh.base
    if grid.dim != 1:
        raise ExtensionError("trace probe implemented for 1D bases")
    if not math.isclose(s, mesh.s, rel_tol=1e-12):
        raise ExtensionError(f"field was solved for s={mesh.s}, asked s={s}")
    h = grid.spacing[0]
    x = grid.axis_coords(0)
    center = 0.5 * grid.extents[0]
    U = field.values
    V = mesh.node_weights()
    Wc = mesh.cell_weights()
    dy = np.diff(mesh.y_nodes)
    dUx = np.diff(U, axis=1) / h
    dUy = np.diff(U, axis=0) / dy[:, None]
    xf = 0.5 * (x[:-1] + x[1:])
    ratios = {}
    for r in r_list:
        in_ball = np.abs(x - center) <= r
        in_ball_f = np.abs(xf - center) <= r
        js = mesh.y_nodes <= r
        jc = mesh.y_nodes[1:] <= r  # cells fully below r
        lhs = r ** (1.0 - s) * math.sqrt(h * float(np.sum(U[0][in_ball] ** 2)))
        l2 = float(np.sum(V[js, None] * U[js][:, in_ball] ** 2) * h)
        gx = float(np.sum(V[js, None] * dUx[js][:, in_ball_f] ** 2) * h)
        gy = float(np.sum(Wc[jc, None] * dUy[jc][:, in_ball] ** 2) * h)
        rhs = math.sqrt(l2 + gx + gy)
        ratios[float(r)] = lhs / rhs if rhs > 0 else 0.0
    return {"ratios": ratios, "sup": max(ratios.values()) if ratios else 0.0}
