import dataclasses

import numpy as np
import pytest
import scipy.linalg

from fracell import (
    CoefficientField,
    DIRICHLET,
    NEUMANN,
    Grid,
    GridFunction,
    assemble,
    eigendecompose,
    fractional_apply,
    fractional_solve,
    fractional_solve_sine,
    heat_apply,
    hs_energy_norm,
    l2_inner,
    l2_norm,
    scaling_check,
)
from fracell import spectral
from fracell.operators import DiscreteOperator, _CSR, _kronecker_factors
from fracell.spectral import CompatibilityError, DenseMemoryError, SpectralError

from conftest import random_dirichlet_field, scipy_csr


def test_eigenbasis_quality(basis_dirichlet, op_dirichlet):
    b = basis_dirichlet
    assert b.residual(op_dirichlet) <= 1e-8 * b.lambda_max
    assert b.orthonormality_defect() <= 1e-8
    assert b.eigenvalues[0] > 0
    assert np.all(np.diff(b.eigenvalues) >= 0)
    # ground state positive in the interior
    phi0 = b.eigenfunction(0)
    assert phi0.values[1:-1].min() > 0


def test_dirichlet_eigenvalues_closed_form(basis_dirichlet, grid_1d):
    h = grid_1d.spacing[0]
    k = np.arange(1, basis_dirichlet.size + 1)
    expected = 4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
    assert np.allclose(basis_dirichlet.eigenvalues, expected, rtol=1e-10)


def test_neumann_kernel_mode(basis_neumann, grid_1d):
    assert basis_neumann.eigenvalues[0] == 0.0
    phi0 = basis_neumann.vectors[:, 0]
    assert np.ptp(phi0) <= 1e-10
    vol = grid_1d.cell_volume * grid_1d.num_nodes
    assert phi0[0] == pytest.approx(vol**-0.5, rel=1e-10)


def test_tensor_spectrum_2d():
    g = Grid((1.0, 1.0), (18, 18))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    b = eigendecompose(op)
    h = g.spacing[0]
    lam1 = 4.0 / h**2 * np.sin(np.arange(1, 17) * np.pi * h / 2.0) ** 2
    tensor = np.sort((lam1[:, None] + lam1[None, :]).ravel())
    assert np.allclose(np.sort(b.eigenvalues), tensor, rtol=1e-10)


def test_fractional_apply_eigenfunction(basis_dirichlet):
    phi1 = basis_dirichlet.eigenfunction(0)
    lam1 = basis_dirichlet.eigenvalues[0]
    out = fractional_apply(basis_dirichlet, phi1, 0.37)
    assert l2_norm(out - lam1**0.37 * phi1) <= 1e-10 * lam1**0.37


def test_fractional_apply_power_one(basis_dirichlet, op_dirichlet, rng):
    u = random_dirichlet_field(op_dirichlet, rng)
    a = fractional_apply(basis_dirichlet, u, 1.0)
    b = op_dirichlet.embed(op_dirichlet.matrix @ op_dirichlet.restrict(u))
    assert l2_norm(a - b) <= 1e-6 * l2_norm(b)


def test_fractional_apply_semigroup_of_powers(basis_dirichlet, op_dirichlet, rng):
    u = random_dirichlet_field(op_dirichlet, rng)
    twice = fractional_apply(basis_dirichlet, fractional_apply(basis_dirichlet, u, 0.5), 0.5)
    once = fractional_apply(basis_dirichlet, u, 1.0)
    assert l2_norm(twice - once) <= 1e-8 * l2_norm(once)


def test_fractional_apply_rejects_bad_power(basis_dirichlet):
    u = basis_dirichlet.eigenfunction(0)
    with pytest.raises(SpectralError):
        fractional_apply(basis_dirichlet, u, 1.2)
    with pytest.raises(SpectralError):
        fractional_apply(basis_dirichlet, u, 0.0)


def test_fractional_solve_eigen_and_round_trip(basis_dirichlet, op_dirichlet, rng):
    phi1 = basis_dirichlet.eigenfunction(0)
    lam1 = basis_dirichlet.eigenvalues[0]
    u = fractional_solve(basis_dirichlet, phi1, 0.6)
    assert l2_norm(u - lam1**-0.6 * phi1) <= 1e-10
    f = random_dirichlet_field(op_dirichlet, rng)
    u = fractional_solve(basis_dirichlet, f, 0.42)
    back = fractional_apply(basis_dirichlet, u, 0.42)
    assert l2_norm(back - f) <= 1e-8 * l2_norm(f)


def test_neumann_solve_requires_zero_mean(basis_neumann, grid_1d, rng):
    with pytest.raises(CompatibilityError):
        fractional_solve(basis_neumann, GridFunction.ones(grid_1d), 0.5)
    vals = rng.standard_normal(grid_1d.shape)
    vals -= vals.mean()
    f = GridFunction(grid_1d, vals)
    u = fractional_solve(basis_neumann, f, 0.5)
    assert abs(u.values.mean()) <= 1e-10 * np.abs(u.values).max()
    back = fractional_apply(basis_neumann, u, 0.5)
    assert l2_norm(back - f) <= 1e-8 * l2_norm(f)


def test_parseval(basis_dirichlet, op_dirichlet, rng):
    u = random_dirichlet_field(op_dirichlet, rng)
    c = basis_dirichlet.coefficients(u)
    assert abs(c @ c - l2_norm(u) ** 2) <= 1e-8 * l2_norm(u) ** 2


def test_energy_norm_eigen_and_pairing(basis_dirichlet, op_dirichlet, rng):
    lam3 = basis_dirichlet.eigenvalues[2]
    phi3 = basis_dirichlet.eigenfunction(2)
    s = 0.55
    assert hs_energy_norm(basis_dirichlet, phi3, s) == pytest.approx(lam3 ** (s / 2), rel=1e-12)
    u = random_dirichlet_field(op_dirichlet, rng)
    en = hs_energy_norm(basis_dirichlet, u, s)
    pairing = l2_inner(fractional_apply(basis_dirichlet, u, s), u)
    assert en**2 == pytest.approx(pairing, rel=1e-10)
    via_half = l2_norm(fractional_apply(basis_dirichlet, u, s / 2))
    assert en == pytest.approx(via_half, rel=1e-10)


def test_spectral_monotone_power_interpolation(basis_dirichlet):
    lam = basis_dirichlet.eigenvalues
    s1, s2 = 0.2, 0.8
    assert np.allclose((lam**s1) ** (s2 / s1), lam**s2, rtol=1e-10)
    norms = []
    u = basis_dirichlet.eigenfunction(3)
    for s in (0.2, 0.5, 0.8):
        norms.append(l2_norm(fractional_apply(basis_dirichlet, u, s)))
    lam4 = basis_dirichlet.eigenvalues[3]
    assert np.allclose(norms, [lam4**0.2, lam4**0.5, lam4**0.8], rtol=1e-10)


def test_fractional_apply_linearity(basis_dirichlet, op_dirichlet, rng):
    u = random_dirichlet_field(op_dirichlet, rng)
    v = random_dirichlet_field(op_dirichlet, rng)
    lhs = fractional_apply(basis_dirichlet, 2.0 * u + (-3.0) * v, 0.6)
    rhs = 2.0 * fractional_apply(basis_dirichlet, u, 0.6) + (-3.0) * fractional_apply(
        basis_dirichlet, v, 0.6
    )
    assert l2_norm(lhs - rhs) <= 1e-12 * max(l2_norm(rhs), 1.0)


def test_scaling_law():
    n = 66
    g_small = Grid((1.0,), (n,))
    g_big = Grid((2.0,), (n,))
    b_small = eigendecompose(assemble(g_small, CoefficientField.identity(g_small), DIRICHLET))
    b_big = eigendecompose(assemble(g_big, CoefficientField.identity(g_big), DIRICHLET))
    vals = np.sin(np.pi * g_big.axis_coords(0) / 2.0) * np.exp(-g_big.axis_coords(0))
    vals[0] = vals[-1] = 0.0
    u_big = GridFunction(g_big, vals)
    for s in (0.25, 0.5, 0.75):
        rep = scaling_check(b_small, b_big, u_big, s, 2.0)
        assert rep.max_rel_deviation <= 1e-8
    # identity scale -> exactly zero deviation
    rep0 = scaling_check(b_big, b_big, u_big, 0.5, 1.0)
    assert rep0.max_rel_deviation == 0.0
    # linearity: scaling u leaves the deviation unchanged
    rep2 = scaling_check(b_small, b_big, 3.0 * u_big, 0.5, 2.0)
    rep1 = scaling_check(b_small, b_big, u_big, 0.5, 2.0)
    assert rep2.max_rel_deviation == pytest.approx(rep1.max_rel_deviation, rel=1e-9)


def test_sine_fast_path_matches_eigen_route(grid_1d, basis_dirichlet):
    g = grid_1d
    f = GridFunction.from_callable(g, lambda x: np.sin(2 * np.pi * x) + x * (1 - x))
    u_sine = fractional_solve_sine(g, f, 0.6)
    u_eig = fractional_solve(basis_dirichlet, f, 0.6)
    assert l2_norm(u_sine - u_eig) <= 1e-3 * l2_norm(u_eig)


@pytest.mark.parametrize("which", ["basis_dirichlet", "basis_neumann"])
def test_apply_fn_and_kernel_identity(which, request, rng):
    basis = request.getfixturevalue(which)
    u = GridFunction.embed(basis.grid, basis.active_mask, rng.standard_normal(basis.size))
    got = basis.apply_fn(np.ones_like, u)
    assert np.abs(got.values - u.values).max() <= 1e-12 * np.abs(u.values).max()
    ident = basis.weight * basis.kernel(np.ones_like)
    assert np.abs(ident - np.eye(basis.size)).max() <= 1e-12


def test_neumann_kernel_mode_policy(basis_neumann, grid_1d, rng):
    # pseudo-inverse drops the constant mode; the heat factor e^0 = 1 keeps it
    vals = rng.standard_normal(grid_1d.shape)
    f = GridFunction(grid_1d, vals - vals.mean())
    u = fractional_solve(basis_neumann, f, 0.5)
    assert abs(u.values.mean()) <= 1e-12 * np.abs(u.values).max()
    w = GridFunction(grid_1d, vals + 2.0)
    heated = heat_apply(basis_neumann, w, 0.1)
    assert heated.values.mean() == pytest.approx(w.values.mean(), rel=1e-12)


def _dense_oracle(op, monkeypatch):
    """`eigendecompose` forced onto its dense `eigh` path."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_kronecker_factors", lambda op: None)
        return eigendecompose(op)


def _coefficient(grid, which):
    if which == "identity":
        return CoefficientField.identity(grid)
    if which == "diag":
        return CoefficientField.constant(grid, np.diag([1.0, 2.5][: grid.dim]))
    return CoefficientField.from_callable(grid, lambda *xs: 1.0 + 0.5 * np.sin(2 * np.pi * xs[0]))


@pytest.mark.parametrize("coeff", ["identity", "sine", "diag"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", [(65,), (13, 13), (24, 24), (17, 11)], ids=str)
def test_factored_basis_matches_dense_oracle(shape, bc, coeff, monkeypatch, rng):
    def no_dense_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called for a Kronecker-sum operator")

    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, _coefficient(g, coeff), bc)
    assert _kronecker_factors(op) is not None
    with monkeypatch.context() as m:
        m.setattr(scipy.linalg, "eigh", no_dense_eigh)
        fact = eigendecompose(op)
    dense = _dense_oracle(op, monkeypatch)
    assert dense.Q.shape == (1, 1) and fact.Q.shape[0] * fact.X.shape[1] == fact.size
    lam, ref = fact.eigenvalues, dense.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert np.all(np.abs(lam - ref) <= 1e-13 * ref)  # the Neumann zero modes are both exactly 0
    assert fact.residual(op) <= 1e-12 * fact.lambda_max
    assert fact.orthonormality_defect() <= 1e-13

    def g_fn(lam):
        return np.exp(-lam / lam[-1]) + np.sqrt(lam)

    u = GridFunction.embed(g, fact.active_mask, rng.standard_normal(fact.size))
    got, want = fact.apply_fn(g_fn, u).values, dense.apply_fn(g_fn, u).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    K, K_ref = fact.kernel(g_fn), dense.kernel(g_fn)
    assert np.abs(K - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
    # an isolated eigenvalue fixes its eigenvector up to sign
    for k in (0, 1, fact.size - 1):
        if np.abs(np.delete(ref, k) - ref[k]).min() > 1e-6 * ref[-1]:
            a, b = fact.eigenfunction(k).values, dense.eigenfunction(k).values
            assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-9 * np.abs(b).max()
    assert fact.eigenfunction(0).values.sum() > 0


def _y_dependent(grid):
    return CoefficientField.from_callable(grid, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * y) * x)


def _rotated(grid):
    # the shape of the benchmark's cross-term field: a position-dependent rotation
    def fn(x, y):
        th = 0.4 + 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        c, s = np.cos(th), np.sin(th)
        a = np.empty(x.shape + (2, 2))
        a[..., 0, 0] = c * c + 0.3 * s * s
        a[..., 1, 1] = s * s + 0.3 * c * c
        a[..., 0, 1] = a[..., 1, 0] = 0.7 * c * s
        return a

    return CoefficientField.from_callable(grid, fn)


def _constant_cross(grid):
    return CoefficientField.constant(grid, [[1.0, 0.3], [0.3, 1.0]])


@pytest.mark.parametrize("field", [_y_dependent, _rotated, _constant_cross])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_fields_that_do_not_split_take_the_dense_path(field, bc):
    g = Grid((1.0, 1.0), (12, 12))
    op = assemble(g, field(g), bc)
    assert _kronecker_factors(op) is None
    b = eigendecompose(op)
    assert b.Q.shape == (1, 1) and b.X.shape == (1, op.size, op.size)
    assert b.residual(op) <= 1e-12 * b.lambda_max
    assert b.orthonormality_defect() <= 1e-13


def test_factored_solve_at_130_squared_builds_no_dense_matrix():
    import tracemalloc

    g = Grid((1.0, 1.0), (130, 130))
    op = assemble(g, _coefficient(g, "sine"), DIRICHLET)
    f = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(3 * np.pi * y) + x * y)
    tracemalloc.start()
    try:
        basis = eigendecompose(op)
        u = fractional_solve(basis, f, 0.5)
        back = fractional_apply(basis, u, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense N x N float array alone would be 8 * 16384**2 bytes = 2 GiB
    assert peak <= 256 * 2**20
    mask = basis.active_mask
    assert np.linalg.norm(back.values[mask] - f.values[mask]) <= 1e-8 * np.linalg.norm(f.values[mask])


def _three_buffer_kernel(basis, g):
    """The kernel as built before the row blocks: the (nx^2, ny^2) product of the
    G_j with the Q-row products, its transposed copy, then the divided copy."""
    ny, nx = basis.Q.shape[0], basis.X.shape[1]
    G = (basis.X * basis._blocks(g(basis.eigenvalues))[:, None, :]) @ basis.X.transpose(0, 2, 1)
    if ny == 1:
        return G[0] / basis.weight
    QQ = (basis.Q[:, None, :] * basis.Q[None, :, :]).reshape(ny * ny, ny)
    K = (G.reshape(ny, nx * nx).T @ QQ.T).reshape(nx, nx, ny, ny)
    return K.transpose(0, 2, 1, 3).reshape(basis.size, basis.size) / basis.weight


def _kernel_factor(lam):
    return np.exp(-lam / lam[-1]) + np.sqrt(lam)


_ROW_BLOCK_CASES = [
    (Grid((1.0, 1.0), (40, 40)), DIRICHLET),
    (Grid((1.0, 2.5), (9, 17)), DIRICHLET),
    (Grid((0.3, 1.0), (33, 12)), NEUMANN),
]


@pytest.mark.parametrize("grid, bc", _ROW_BLOCK_CASES, ids=["40x40", "9x17", "33x12-neumann"])
def test_kernel_row_blocks_stack_to_the_kernel(grid, bc):
    basis = eigendecompose(assemble(grid, _coefficient(grid, "sine"), bc))
    ny = basis.Q.shape[0]
    K = basis.kernel(_kernel_factor)
    blocks = [(i, rows.copy()) for i, rows in basis.kernel_rows(_kernel_factor)]
    assert [i for i, _ in blocks] == list(range(0, basis.size, ny))
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]), K)
    # the three-buffer build sums the same products in another order
    K_ref = _three_buffer_kernel(basis, _kernel_factor)
    assert np.abs(K - K_ref).max() <= 1e-15 * np.abs(K_ref).max()


@pytest.mark.parametrize("which", ["basis_dirichlet", "basis_neumann", "basis_variable", "dense"])
def test_one_block_kernel_is_the_eigen_congruence_bit_for_bit(which, request):
    if which == "dense":  # a field that does not split: one dense eigh, ny = 1
        g = Grid((1.0, 1.0), (12, 12))
        basis = eigendecompose(assemble(g, _rotated(g), NEUMANN))
    else:
        basis = request.getfixturevalue(which)
    X, gb = basis.X[0], basis._blocks(_kernel_factor(basis.eigenvalues))[0]
    assert np.array_equal(basis.kernel(_kernel_factor), (X * gb) @ X.T / basis.weight)
    assert np.array_equal(basis.kernel(_kernel_factor), _three_buffer_kernel(basis, _kernel_factor))


def test_kernel_at_40_squared_holds_one_n_by_n_array():
    import tracemalloc

    g = Grid((1.0, 1.0), (40, 40))
    basis = eigendecompose(assemble(g, _coefficient(g, "sine"), DIRICHLET))
    tracemalloc.start()
    try:
        K = basis.kernel(_kernel_factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (1444, 1444)
    assert peak <= 1.1 * 8 * basis.size**2  # the three-buffer build peaked at ~3 N^2


def _certified(shape, bc, coeff):
    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, _coefficient(g, coeff), bc)
    factors = _kronecker_factors(op)
    return op, factors, eigendecompose(op)


def _gate(basis):
    return spectral._RESIDUAL_TOL * max(basis.lambda_max, 1.0)


@pytest.mark.parametrize("coeff", ["identity", "sine"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", [(9,), (65,), (130,), (13, 13), (17, 11), (24, 24)], ids=str)
def test_factor_certificate_bounds_the_residual(shape, bc, coeff):
    op, (d, e, b, dy, ey), basis = _certified(shape, bc, coeff)
    cert, exact = spectral._factor_residual(basis, op, (d, e, b, dy, ey)), basis.residual(op)
    # delta = ||M - M_kron||_F, here from the dense Kronecker sum
    tri = lambda diag, off: np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    kron = np.kron(tri(d, e), np.eye(dy.size)) + np.kron(np.diag(b), tri(dy, ey))
    delta = np.linalg.norm(op.matrix.toarray() - kron) / np.sqrt(basis.weight)
    # the certificate's own rounding allowance, (m + 3) u (2 max diag + delta + lambda_max) / sqrt(weight):
    # an exact basis (the closed form of a one-weight line) can leave `exact` below a tenth of it
    m, diag = np.diff(op.matrix.indptr).max(), (d[:, None] + b[:, None] * dy).max()
    u = np.finfo(float).eps / 2
    allowance = (m + 3) * u * (2.0 * diag + delta * np.sqrt(basis.weight) + basis.lambda_max) / np.sqrt(basis.weight)
    bound = 10.0 * exact + (1.0 + 1e-9) * (delta + allowance)
    assert exact <= cert <= bound
    assert 10.0 * cert > bound  # the clause still catches a certificate ten times too loose
    assert cert <= 1e-4 * _gate(basis)  # the gate keeps its margin


@pytest.mark.parametrize("shape", [(65,), (13, 13)], ids=str)
def test_factor_certificate_trips_on_a_perturbed_eigenvalue(shape, monkeypatch):
    op, factors, basis = _certified(shape, NEUMANN, "sine")
    lam = basis.eigenvalues.copy()
    lam[-1] *= 1.0 + 1e-6
    assert spectral._factor_residual(dataclasses.replace(basis, eigenvalues=lam), op, factors) > _gate(basis)
    exact = scipy.linalg.eigh_tridiagonal

    def top_scaled(*args, **kw):  # every factor's largest eigenvalue 1e-6 too high
        w, v = exact(*args, **kw)
        return np.where(w == w.max(axis=-1, keepdims=True), w * (1.0 + 1e-6), w), v

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", top_scaled)
    with pytest.raises(SpectralError, match="residual"):
        eigendecompose(op)


@pytest.mark.parametrize("shape", [(65,), (13, 13)], ids=str)
def test_factor_certificate_trips_on_a_perturbed_closed_form_eigenvalue(shape, monkeypatch):
    op, factors, basis = _certified(shape, NEUMANN, "identity")
    exact = spectral._line_eigenpairs

    def top_scaled(*args):  # every one-weight line's largest eigenvalue 1e-6 too high
        lam, V = exact(*args)
        return np.where(lam == lam.max(), lam * (1.0 + 1e-6), lam), V

    monkeypatch.setattr(spectral, "_line_eigenpairs", top_scaled)
    with pytest.raises(SpectralError, match="residual"):
        eigendecompose(op)


def _scaled(shape, coeff, bc, extent):
    # the unit box's coefficient samples on a box of side `extent`: x -> extent x
    unit = Grid((1.0,) * len(shape), shape)
    A = _rotated(unit) if coeff == "cross" else _coefficient(unit, coeff)
    g = Grid((extent,) * len(shape), shape)
    return assemble(g, CoefficientField(g, A.faces), bc)


@pytest.mark.parametrize("shape, coeff", [((65,), "identity"), ((65,), "sine"), ((13, 11), "identity"), ((13, 11), "sine"), ((20, 20), "cross")], ids=str)
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_eigen_gate_is_free_of_the_unit_of_length(shape, coeff, bc):
    # M scales as extent^-2, so residual / lambda_max (and the certificate the gate reads) may differ by rounding only
    ratios = []
    for extent in (1e-6, 1.0, 1e6):
        op = _scaled(shape, coeff, bc, extent)
        basis, factors = eigendecompose(op), _kronecker_factors(op)
        assert (factors is None) == (coeff == "cross")
        gated = basis.residual(op) if factors is None else spectral._factor_residual(basis, op, factors)
        ratios.append([basis.residual(op) / basis.lambda_max, gated / basis.lambda_max])
    ratios = np.array(ratios)
    assert ratios.max() <= 1e-13
    assert np.all(ratios.max(axis=0) <= 2.0 * ratios.min(axis=0))


@pytest.mark.parametrize(
    "shape, coeff, solver",
    [((65,), "identity", "closed"), ((65,), "sine", "eigh_tridiagonal"), ((12, 12), "cross", "eigh")],
    ids=["closed-form", "eigh_tridiagonal", "dense"],
)
@pytest.mark.parametrize("defect", ["top", "kernel"])
def test_relative_gate_trips_on_a_large_box(shape, coeff, solver, defect, monkeypatch):
    # at extent 1e6 lambda_max is ~1e-8, so a gate with a floor of 1 under lambda_max would pass
    # a top eigenvalue 1e-6 too high or a Neumann kernel eigenvalue at 1e-3 lambda_max
    op = _scaled(shape, coeff, NEUMANN, 1e6)
    assert eigendecompose(op).lambda_max < 1e-7

    def bent(w):
        if defect == "top":
            return np.where(w == w.max(axis=-1, keepdims=True), w * (1.0 + 1e-6), w)
        w = w.copy()
        w[..., 0] = 1e-3 * w.max()
        return w

    module, name = (spectral, "_line_eigenpairs") if solver == "closed" else (scipy.linalg, solver)
    exact = getattr(module, name)

    def bent_solver(*args, **kw):
        w, v = exact(*args, **kw)
        return bent(w), v

    monkeypatch.setattr(module, name, bent_solver)
    with pytest.raises(SpectralError, match="residual" if defect == "top" else "kernel"):
        eigendecompose(op)


@pytest.mark.parametrize("n", [1, 2, 9, 130, 1025])
@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_line_eigenpairs_match_eigh_tridiagonal(dirichlet, n):
    from fracell.operators import _tridiagonal

    d, e = _tridiagonal(np.full(n + 1 if dirichlet else n - 1, 3.7), dirichlet)
    lam, V = spectral._line_eigenpairs(d, e, dirichlet)
    ref, V_ref = scipy.linalg.eigh_tridiagonal(d, e) if n > 1 else (d, np.ones((1, 1)))
    top = max(ref.max(), 1.0)
    assert np.all(np.abs(lam - ref) <= 1e-13 * top)
    gap = np.abs(ref[:, None] - ref[None, :]) + np.eye(n) * top
    assert gap.min() > 1e-13 * top  # every eigenvalue is simple: its vector is fixed up to sign
    sign_err = np.minimum(np.abs(V - V_ref).max(axis=0), np.abs(V + V_ref).max(axis=0))
    assert sign_err.max() <= 1e-12
    kinked = np.full(n + 1 if dirichlet else n - 1, 3.7)
    kinked[kinked.size // 2 :] *= 2.0
    if n > 2:  # a stencil of two weights is not of the closed form
        assert spectral._line_eigenpairs(*_tridiagonal(kinked, dirichlet), dirichlet) is None


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_line_eigenvectors_are_the_c_order_table_bit_for_bit(dirichlet):
    # the table gathered at the phases (j, k) in C order, as it was built before
    # the transposed gather: the same values, now each eigenvector contiguous
    from fracell.operators import _tridiagonal

    n = 65
    d, e = _tridiagonal(np.full(n + 1 if dirichlet else n - 1, 3.7), dirichlet)
    if dirichlet:
        k, m, scale = np.arange(1, n + 1), 2 * (n + 1), np.sqrt(2 / (n + 1))
        phase = np.multiply.outer(k, k)
    else:
        k, m, scale = np.arange(n), 4 * n, np.sqrt(2 / n)
        phase = np.multiply.outer(2 * k + 1, k) + n
    old = (scale * np.sin(2 * np.pi / m * np.arange(m)))[phase % m]
    if not dirichlet:
        old[:, 0] = 1 / np.sqrt(n)
    V = spectral._line_eigenpairs(d, e, dirichlet)[1]
    assert V.flags.f_contiguous and np.array_equal(V, old)


@pytest.mark.parametrize("coeff", ["identity", "sine"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("shape", [(65,), (13, 13), (17, 11)], ids=str)
def test_factored_blocks_are_column_contiguous(shape, bc, coeff):
    # closed form (identity) and eigh_tridiagonal (sine) alike; a closed-form X
    # shared by every y-mode is stored once, as a read-only view
    basis = _certified(shape, bc, coeff)[2]
    assert all(block.flags.f_contiguous for block in basis.X)
    shared = coeff == "identity"
    assert basis.X.flags.writeable == (not shared)
    if shared:  # one block in memory, with the ground state the sign rule never flips
        assert basis.X.strides[0] == 0 and np.all(basis.X[0][:, 0] > 0) and np.all(basis.Q[:, 0] > 0)


def test_a_shared_closed_form_x_is_counted_once(monkeypatch):
    # 64^2 Dirichlet, 62 x 62 blocks: the certificate's chunks 2 * 62^3 floats plus Q and
    # one X fit in 600,000 floats; 62 stored blocks (eigh_tridiagonal, sine) do not
    g = Grid((1.0, 1.0), (64, 64))
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 8 * 600_000)
    eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
    with pytest.raises(DenseMemoryError, match="62 x 62 x 62 block eigenvectors"):
        eigendecompose(assemble(g, _coefficient(g, "sine"), DIRICHLET))


_ONE_WEIGHT_SPECS = {1: ["identity", "constant:2", "diag:3"], 2: ["identity", "constant:2", "diag:1,3"]}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_one_weight_operators_call_no_lapack_eigensolver(dim, bc, monkeypatch):
    from fracell.cli import coefficient_from_spec

    g = Grid((1.0,) * dim, (33,) if dim == 1 else (14, 11))
    exact, calls = scipy.linalg.eigh_tridiagonal, []

    def recorded(diag, off, **kw):
        calls.append(np.shape(diag))
        return exact(diag, off, **kw)

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolver was called for a one-weight operator")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    for spec in _ONE_WEIGHT_SPECS[dim]:
        op = assemble(g, coefficient_from_spec(g, spec), bc)
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
            basis = eigendecompose(op)
        assert basis.residual(op) <= 1e-13 * basis.lambda_max
    # a variable weight still takes eigh_tridiagonal, for the x-blocks only
    op = assemble(g, coefficient_from_spec(g, "sine"), bc)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded)
    basis = eigendecompose(op)
    nx, ny = basis.X.shape[1], basis.Q.shape[0]
    assert calls == ([(nx,)] if dim == 1 else [(ny, nx)])


# the orthonormality defect and residual / lambda_max of the LAPACK factors this replaced
_LAPACK_DEFECTS = [
    ((1025,), DIRICHLET, 4.2e-15, 3.0e-14),
    ((4097,), DIRICHLET, 7.7e-15, 1.2e-13),
    ((48, 48), NEUMANN, 3.6e-15, 4.1e-14),
]


@pytest.mark.parametrize("shape, bc, orth, res", _LAPACK_DEFECTS, ids=["1025", "4097", "48x48-neumann"])
def test_closed_form_basis_is_no_less_accurate_than_lapack(shape, bc, orth, res):
    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, CoefficientField.identity(g), bc)
    basis = eigendecompose(op)
    assert basis.orthonormality_defect() <= orth
    assert basis.residual(op) <= res * basis.lambda_max
    if shape == (1025,):  # 4 (1/h)^2 sin^2(pi h / 2), h = 1/1024, in extended precision
        pi = 4 * np.arctan(np.longdouble(1))
        ref = float(4 * np.longdouble(1024) ** 2 * np.sin(pi / 2048) ** 2)
        assert abs(basis.eigenvalues[0] - ref) <= 4 * np.spacing(ref)


def test_tied_eigenvalues_keep_one_order():
    g = Grid((1.0, 1.0), (24, 24))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    first = eigendecompose(op)
    assert np.any(np.diff(first.eigenvalues) == 0.0)  # lambda_jk = lambda_kj exactly on a square grid
    for _ in range(3):
        assert np.array_equal(eigendecompose(op).order, first.order)


def test_factor_certificate_trips_on_a_perturbed_q_column():
    op, factors, basis = _certified((13, 13), DIRICHLET, "identity")
    Q = basis.Q.copy()
    Q[3, 5] += 1e-6
    bad = dataclasses.replace(basis, Q=Q)
    assert spectral._factor_residual(bad, op, factors) >= bad.residual(op) > _gate(basis)


@pytest.mark.parametrize("shape", [(65,), (13, 13)], ids=str)
@pytest.mark.parametrize("change", ["extra_entry", "dropped_entry"])
def test_factor_certificate_trips_when_the_matrix_leaves_the_kronecker_sum(shape, change):
    op, factors, basis = _certified(shape, NEUMANN, "sine")
    M = scipy_csr(op.matrix).tolil()
    eps = 1e-6 * basis.lambda_max * np.sqrt(basis.weight)
    if change == "extra_entry":  # far off the 5-point stencil
        M[0, op.size - 1] = eps
    else:  # one stencil entry neither stored nor zero-valued: M_kron has it, M does not
        M[0, 1] = 0.0
    M = M.tocsr()
    M.eliminate_zeros()
    bad = DiscreteOperator(op.grid, op.bc, op.coeff, _CSR(M.data, M.indices, M.indptr, M.shape))
    cert = spectral._factor_residual(basis, bad, factors)
    assert cert >= eps / np.sqrt(basis.weight) * (1.0 - 1e-9)
    with pytest.raises(SpectralError, match="residual"):
        eigendecompose(bad)


def test_dense_allocations_check_available_memory(monkeypatch):
    # 12^2 Neumann, N = 144: the factored basis needs 25 blocks of 144 floats
    # (29 KB), the dense eigh 5 N^2 (829 KB), a kernel N^2 + N nx, vectors 3 N^2
    g = Grid((1.0, 1.0), (12, 12))
    op = assemble(g, CoefficientField.identity(g), NEUMANN)
    cross = assemble(g, _constant_cross(g), NEUMANN)
    g1 = Grid((1.0,), (130,))
    line = assemble(g1, CoefficientField.identity(g1), DIRICHLET)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1e5)
    basis = eigendecompose(op)
    u = basis.eigenfunction(3)
    assert np.abs(basis.apply_fn(np.ones_like, u).values - u.values).max() <= 1e-12
    with pytest.raises(DenseMemoryError, match="dense eigendecomposition of 144 unknowns"):
        eigendecompose(cross)
    with pytest.raises(DenseMemoryError, match="1 x 128 x 128 block eigenvectors"):
        eigendecompose(line)  # a 1D basis is one dense 128 x 128 block
    with pytest.raises(DenseMemoryError, match="kernel matrix"):
        basis.kernel(np.ones_like)
    with pytest.raises(DenseMemoryError, match="dense eigenvectors"):
        basis.vectors


@pytest.mark.parametrize("n", [9, 130, 1033])
def test_spectrum_ends_match_the_closed_form(n):
    # `converge` takes each level's spectrum ends from (4/h^2) sin^2(k pi h / 2), k = 1 and n - 2
    from fracell.cli import _dirichlet_line_ends

    g = Grid((1.0,), (n,))
    basis = eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
    lo, hi = _dirichlet_line_ends(g)
    assert lo == pytest.approx(basis.eigenvalues[0], rel=1e-10)
    assert hi == pytest.approx(basis.lambda_max, rel=1e-10)


@pytest.mark.parametrize(
    "defect, bc, match",
    [("residual", DIRICHLET, "residual"), ("lambda0", DIRICHLET, "positive definite"),
     ("lambda0", NEUMANN, "kernel"), ("lambda_max", DIRICHLET, "lambda_max is not finite")],
    ids=["nan-residual", "nan-lambda0-dirichlet", "nan-lambda0-neumann", "inf-lambda_max"],
)
def test_eigen_gates_refuse_nan_and_inf(defect, bc, match, monkeypatch):
    # each gate is `not x <= tol`: a NaN residual or lambda_0, or an infinite lambda_max
    # (which a gate relative to lambda_max would otherwise pass), raises
    g = Grid((1.0, 1.0), (9, 9))
    op = assemble(g, _rotated(g), bc)  # the dense path: eigh's ascending output is taken as is
    exact = scipy.linalg.eigh

    def bent_eigh(*args, **kw):
        w, v = exact(*args, **kw)
        if defect == "lambda0":
            w[0] = np.nan
        elif defect == "lambda_max":
            w[-1] = np.inf
        return w, v

    monkeypatch.setattr(scipy.linalg, "eigh", bent_eigh)
    if defect == "residual":
        monkeypatch.setattr(spectral.EigenBasis, "residual", lambda self, op: np.nan)
    with pytest.raises(SpectralError, match=match):
        eigendecompose(op)
