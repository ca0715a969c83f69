import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracell import (
    CoefficientField,
    DIRICHLET,
    ExtensionMesh,
    ForcingData,
    Grid,
    GridFunction,
    NEUMANN,
    assemble,
    bessel_k,
    dtn_extract,
    eigendecompose,
    extension_energy,
    extension_multipliers,
    extension_series_eval,
    fractional_apply,
    hs_energy_norm,
    l2_norm,
    poisson_kernel,
    solve_extension,
    solve_extension_forced,
)
from fracell.extension import (
    ExtensionError,
    _base_stiffness,
    _forcing_load,
    _tridiagonal_apply,
    _vertical_stiffness,
    caccioppoli_check,
    dtn_constant_divform,
    dtn_constant_intro,
    trace_inequality_check,
)
from fracell.cli import _dirichlet_line_ends


@pytest.fixture(scope="module")
def setup_half():
    g = Grid((1.0,), (130,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    mesh = ExtensionMesh.build(g, 0.5, 64, lam0=basis.lambda_min_positive)
    return g, op, basis, mesh


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def test_mesh_weights_positive_and_graded():
    g = Grid((1.0,), (18,))
    mesh = ExtensionMesh.build(g, 0.3, 16, height=2.0)
    assert mesh.y_nodes[0] == 0.0
    assert np.all(np.diff(mesh.y_nodes) > 0)
    assert np.all(mesh.node_weights() > 0)
    assert np.all(mesh.cell_weights() > 0)
    assert np.all(mesh.face_kappa() > 0)
    assert -1 < mesh.a < 1
    # exact closed-form integrals of y^a over the cells
    a = mesh.a
    for j in range(mesh.layers):
        lo, hi = mesh.y_nodes[j], mesh.y_nodes[j + 1]
        exact = (hi ** (1 + a) - lo ** (1 + a)) / (1 + a)
        assert mesh.cell_weights()[j] == pytest.approx(exact, rel=1e-14)


def test_mesh_height_rule(setup_half):
    g, op, basis, mesh = setup_half
    from scipy.special import kv

    assert kv(0.5, math.sqrt(basis.lambda_min_positive) * mesh.height) < 1e-8


# ---------------------------------------------------------------------------
# solver and DtN
# ---------------------------------------------------------------------------


def test_zero_trace_gives_zero(setup_half):
    g, op, basis, mesh = setup_half
    U = solve_extension(op, GridFunction.zeros(g), mesh)
    assert np.abs(U.values).max() == 0.0


def test_lateral_walls_are_zero(setup_half):
    g, op, basis, mesh = setup_half
    U = solve_extension(op, basis.eigenfunction(0), mesh)
    assert np.abs(U.values[:, 0]).max() == 0.0
    assert np.abs(U.values[:, -1]).max() == 0.0


def test_dtn_matches_spectral_all_s():
    g = Grid((1.0,), (130,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    for s in (0.25, 0.5, 0.75):
        mesh = ExtensionMesh.build(g, s, 64, lam0=basis.lambda_min_positive)
        phi1 = basis.eigenfunction(0)
        U = solve_extension(op, phi1, mesh)
        dtn = dtn_extract(U, s)
        target = fractional_apply(basis, phi1, s)
        assert l2_norm(dtn - target) / l2_norm(target) <= 2e-2


def test_dtn_variable_coefficient():
    g = Grid((1.0,), (130,))
    A = CoefficientField.from_callable(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    op = assemble(g, A, DIRICHLET)
    basis = eigendecompose(op)
    s = 0.5
    mesh = ExtensionMesh.build(g, s, 64, lam0=basis.lambda_min_positive)
    u = basis.eigenfunction(0)
    U = solve_extension(op, u, mesh)
    dtn = dtn_extract(U, s)
    target = fractional_apply(basis, u, s)
    assert l2_norm(dtn - target) / l2_norm(target) <= 2e-2


def test_dtn_linearity(setup_half):
    g, op, basis, mesh = setup_half
    u1 = basis.eigenfunction(0)
    u2 = basis.eigenfunction(2)
    U1 = solve_extension(op, u1, mesh)
    U2 = solve_extension(op, u2, mesh)
    U12 = solve_extension(op, u1 + u2, mesh)
    d1 = dtn_extract(U1, 0.5)
    d2 = dtn_extract(U2, 0.5)
    d12 = dtn_extract(U12, 0.5)
    assert l2_norm(d12 - (d1 + d2)) <= 1e-10 * l2_norm(d12)


def test_dtn_constants_relation():
    for s in np.arange(0.1, 0.95, 0.1):
        s = float(s)
        assert abs(2.0 * s * dtn_constant_intro(s) - dtn_constant_divform(s)) <= 1e-12 * dtn_constant_divform(s)


def test_energy_identity(setup_half):
    g, op, basis, mesh = setup_half
    u = basis.eigenfunction(0)
    U = solve_extension(op, u, mesh)
    energy = extension_energy(U)
    ref = dtn_constant_divform(0.5) * hs_energy_norm(basis, u, 0.5) ** 2
    assert abs(energy - ref) / ref <= 1e-2


def test_energy_identity_converges(setup_half):
    errs = []
    for nodes, layers in [(66, 32), (130, 64), (258, 128)]:
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        mesh = ExtensionMesh.build(g, 0.5, layers, lam0=basis.lambda_min_positive)
        u = basis.eigenfunction(0)
        U = solve_extension(op, u, mesh)
        ref = dtn_constant_divform(0.5) * hs_energy_norm(basis, u, 0.5) ** 2
        errs.append(abs(extension_energy(U) - ref) / ref)
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Bessel series
# ---------------------------------------------------------------------------


def test_bessel_half_order_closed_form():
    for x in (0.1, 1.0, 10.0):
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(bessel_k(0.5, x) - exact) / exact <= 1e-10


def test_bessel_small_argument_law():
    nu, x = 0.3, 1e-6
    limit = 2.0 ** (nu - 1.0) * math.gamma(nu)
    assert bessel_k(nu, x) * x**nu == pytest.approx(limit, rel=1e-3)


def test_bessel_integral_representation_oracle():
    # independent quadrature of int_0^inf e^{-x cosh t} cosh(nu t) dt
    nu, x = 0.3, 2.0
    oracle, _ = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
        0.0,
        30.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=300,
    )
    assert abs(bessel_k(nu, x) - oracle) <= 1e-8


def test_bessel_flags_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_k(1.5, 1.0)
    with pytest.raises(FloatingPointError):
        bessel_k(0.5, 800.0)  # underflow flagged


def test_series_trace_limit(setup_half):
    # U(x, y) -> u as y -> 0; first-order deviation is
    # c_intro (sqrt(lam) y)^{2s} per mode, so test at a y where that
    # bound allows 1e-6 and check the bound itself at y = 1e-6 * height
    g, op, basis, mesh = setup_half
    s = 0.5
    u = basis.eigenfunction(0)
    lam1 = basis.eigenvalues[0]
    scale = np.abs(u.values).max()

    y_rate = mesh.height * 1e-6
    dev_rate = np.abs(
        extension_series_eval(basis, u, s, y_rate).values - u.values
    ).max()
    bound = 2.0 * dtn_constant_intro(s) * (math.sqrt(lam1) * y_rate) ** (2 * s) * scale
    assert dev_rate <= bound

    y_small = (1e-6 / (2.0 * dtn_constant_intro(s) * scale)) ** (1.0 / (2 * s)) / math.sqrt(lam1)
    dev = np.abs(extension_series_eval(basis, u, s, y_small).values - u.values).max()
    assert dev <= 1e-6
    assert np.array_equal(
        extension_series_eval(basis, u, s, 0.0).values, basis.synthesize(basis.coefficients(u)).values
    )


def test_series_matches_semigroup_integral(setup_half):
    g, op, basis, mesh = setup_half
    u = basis.eigenfunction(0)
    mask = basis.active_mask
    for y in (0.05, 0.3, 1.0):
        a = extension_series_eval(basis, u, 0.5, y).restrict(mask)
        b = poisson_kernel(basis, 0.5, y).entries @ u.restrict(mask) * basis.weight
        assert np.linalg.norm(a - b) <= 1e-8 * max(np.linalg.norm(a), 1e-12)


def test_series_even_reflection_surrogate(setup_half):
    # the series depends on y only through |y| (even reflection across the
    # base is the identity the fundamental-solution argument relies on)
    g, op, basis, mesh = setup_half
    u = basis.eigenfunction(0)
    a = extension_series_eval(basis, u, 0.5, abs(-0.3))
    b = extension_series_eval(basis, u, 0.5, 0.3)
    assert np.array_equal(a.values, b.values)


def test_series_decays_monotonically(setup_half):
    g, op, basis, mesh = setup_half
    u = basis.eigenfunction(0)
    norms = [
        l2_norm(extension_series_eval(basis, u, 0.5, y)) for y in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_series_matches_fd_solution(setup_half):
    g, op, basis, mesh = setup_half
    phi1 = basis.eigenfunction(0)
    U = solve_extension(op, phi1, mesh)
    scale = np.abs(phi1.values).max()
    worst = 0.0
    for j in range(1, mesh.layers, 5):
        y = mesh.y_nodes[j]
        ser = extension_series_eval(basis, phi1, 0.5, y)
        worst = max(worst, np.abs(U.values[j] - ser.values).max() / scale)
    assert worst <= 1e-2


# ---------------------------------------------------------------------------
# forced problem and inequality probes
# ---------------------------------------------------------------------------


def test_forced_zero_data_gives_zero(setup_half):
    g, op, basis, mesh = setup_half
    U = solve_extension_forced(op, mesh, ForcingData(None, GridFunction.zeros(g)))
    assert np.abs(U.values).max() == 0.0


def test_forced_inverse_dtn_consistency(setup_half):
    g, op, basis, mesh = setup_half
    s = 0.5
    phi1 = basis.eigenfunction(0)
    lam1 = basis.eigenvalues[0]
    flux = GridFunction(g, dtn_constant_divform(s) * lam1**s * phi1.values)
    U = solve_extension_forced(op, mesh, ForcingData(None, flux))
    tr = U.trace()
    assert l2_norm(tr - phi1) / l2_norm(phi1) <= 5e-3


def _small_cylinder(shape):
    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    return g, op, ExtensionMesh.build(g, 0.4, 8, height=3.0)


def test_forced_solve_satisfies_dense_cylinder_system():
    # rows 0..M-1 of  V_j K u_j + vol (T u)_j = V_j (F_{i-1/2} - F_{i+1/2}) + [j=0] vol f,
    # the weak form assembled densely here; the trace row is free and the
    # lid row M is held at zero
    g, op, mesh = _small_cylinder((17,))
    M, n, vol, mask = mesh.layers, op.size, g.cell_volume, op.active_mask
    x = g.axis_coords(0)
    fx = np.cos(3.0 * 0.5 * (x[:-1] + x[1:]))[:, None] * (1.0 + mesh.y_nodes)[None, :]
    f = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x) + x)
    U = solve_extension_forced(op, mesh, ForcingData((fx,), f))

    K = _base_stiffness(op).toarray()
    V = mesh.node_weights()
    kap = np.concatenate([[0.0], mesh.face_kappa()])  # kap[j] couples rows j-1, j
    eye = np.eye(n)
    A = np.zeros((M * n, M * n))
    b = np.zeros(M * n)
    for j in range(M):
        rows = slice(j * n, (j + 1) * n)
        A[rows, rows] = V[j] * K + vol * (kap[j] + kap[j + 1]) * eye
        if j > 0:
            A[rows, (j - 1) * n : j * n] = -vol * kap[j] * eye
        if j < M - 1:
            A[rows, (j + 1) * n : (j + 2) * n] = -vol * kap[j + 1] * eye
        flux = np.concatenate([[0.0], fx[:, j], [0.0]])  # flux[i] = F_{i-1/2}
        b[rows] = V[j] * (flux[:-1] - flux[1:])[mask]
    b[:n] += vol * f.values[mask]
    u = U.values[:M][:, mask].ravel()
    assert np.linalg.norm(A @ u - b) <= 1e-10 * np.linalg.norm(b)
    assert np.abs(U.values[M]).max() == 0.0


def test_forcing_field_shape_and_base_dimension_are_checked():
    g, op, mesh = _small_cylinder((17,))
    with pytest.raises(ExtensionError, match="shape"):
        solve_extension_forced(op, mesh, ForcingData((np.ones((16, 8)),), None))
    g2, op2, mesh2 = _small_cylinder((9, 9))
    fields = (np.ones((8, 9, 9)), np.ones((9, 8, 9)))
    with pytest.raises(ExtensionError, match="1D"):
        solve_extension_forced(op2, mesh2, ForcingData(fields, None))


def _dense_cylinder(op, mesh, first):
    """kron(D, K) + kron(T, I) on the rows first..M-1, and the full T."""
    K = _base_stiffness(op).toarray()
    M, kap = mesh.layers, mesh.face_kappa()
    T = op.grid.cell_volume * (
        np.diag(np.r_[kap, 0.0] + np.r_[0.0, kap]) - np.diag(kap, 1) - np.diag(kap, -1)
    )
    D = np.diag(mesh.node_weights()[first:M])
    return np.kron(D, K) + np.kron(T[first:M, first:M], np.eye(K.shape[0])), T


@pytest.mark.parametrize("shape, layers", [((17,), 8), ((7, 7), 6)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_cylinder_solves_match_dense_kron_oracle(shape, layers, bc):
    # the assembled tensor-product system, solved densely, referees the
    # given-trace and the forced solve; the lid row M is held at zero
    g = Grid((1.0,) * len(shape), shape)
    A = CoefficientField.from_callable(g, lambda *x: 1.0 + 0.5 * np.sin(2 * np.pi * x[0]))
    op = assemble(g, A, bc)
    mesh = ExtensionMesh.build(g, 0.4, layers, height=3.0)
    M, n, mask = mesh.layers, op.size, op.active_mask
    u = GridFunction.from_callable(g, lambda *x: np.cos(2.0 * x[0]) + sum(x))

    A, T = _dense_cylinder(op, mesh, 1)
    b = np.zeros((M - 1, n))
    b[0] -= T[1, 0] * op.restrict(u)  # the known trace row moves to the load
    ref = np.linalg.solve(A, b.ravel()).reshape(M - 1, n)
    U = solve_extension(op, u, mesh)
    assert np.abs(U.values[1:M][:, mask] - ref).max() <= 1e-10 * np.abs(ref).max()

    A, _ = _dense_cylinder(op, mesh, 0)
    b = np.zeros((M, n))
    b[0] = g.cell_volume * op.restrict(u)  # flux datum f = u on the free trace row
    ref = np.linalg.solve(A, b.ravel()).reshape(M, n)
    U = solve_extension_forced(op, mesh, ForcingData(None, u))
    assert np.abs(U.values[:M][:, mask] - ref).max() <= 1e-10 * np.abs(ref).max()


def test_lifted_dtn_matches_long_double_reference():
    # u = phi_1 with identity coefficients gives U = phi_1 (x) (1 + w), where
    # w solves the one-mode y-problem (lam D + T) w = 0 with w_0 = 0 and
    # w_M = -1; solved here in long double and fitted like dtn_extract.  At
    # s = 0.75 the increments w_j on the fit layers are ~1e-10, so the DtN
    # error is the most rounding-sensitive number the extension reports.
    s = 0.75
    g = Grid((1.0,), (517,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    mesh = ExtensionMesh.build(g, s, 256, lam0=basis.lambda_min_positive)
    phi1 = basis.eigenfunction(0)
    target = fractional_apply(basis, phi1, s)
    err = l2_norm(dtn_extract(solve_extension(op, phi1, mesh), s) - target) / l2_norm(target)
    err_ref = _long_double_dtn_error(mesh, basis.eigenvalues[0])
    assert abs(err - err_ref) <= 1e-6 * err_ref


def _long_double_dtn_error(mesh, lam):
    """|g(lam) / lam^s - 1| of one mode's y-problem (lam D + T) w = 0, w_0 = 0,
    w_M = -1, by a Thomas sweep and the 4-layer fit, in long double."""
    ld, s, M = np.longdouble, mesh.s, mesh.layers
    lam = ld(lam)
    D = mesh.node_weights()[1:M].astype(ld)
    kap = mesh.face_kappa().astype(ld)
    diag = lam * D + kap[:-1] + kap[1:]  # rows 1..M-1, off-diagonals -kap[1:M-1]
    rhs = -lam * D
    rhs[-1] -= kap[-1]  # w_M = -1 on the lid
    for i in range(1, M - 1):
        m = kap[i] / diag[i - 1]
        diag[i] -= m * kap[i]
        rhs[i] += m * rhs[i - 1]
    w = np.zeros(M - 1, dtype=ld)
    w[-1] = rhs[-1] / diag[-1]
    for i in range(M - 3, -1, -1):
        w[i] = (rhs[i] + kap[i + 1] * w[i + 1]) / diag[i]
    y = mesh.y_nodes[1:5].astype(ld)
    cols = np.stack([(y / y[-1]) ** (2 * ld(s)), (y / y[-1]) ** 2])
    G, r = cols @ cols.T, cols @ w[:4]
    c0 = (G[1, 1] * r[0] - G[0, 1] * r[1]) / (G[0, 0] * G[1, 1] - G[0, 1] ** 2)
    dtn = -c0 / y[-1] ** (2 * ld(s)) / ld(dtn_constant_intro(s))
    return float(abs(dtn - lam ** ld(s)) / lam ** ld(s))


def test_multiplier_matches_long_double_reference():
    # the finest level of `fracell converge` (130 nodes x 64 layers, 3 refinements):
    # the lifted multiplier is within 7.9e-9 of the long-double DtN error, where the
    # field route (two basis transforms of U - u) was 1.4e-6 off
    s = 0.5
    g = Grid((1.0,), (1033,))
    lam0, _ = _dirichlet_line_ends(g)
    mesh = ExtensionMesh.build(g, s, 512, lam0=lam0)
    (dtn,), _ = extension_multipliers(mesh, lam0)
    err_ref = _long_double_dtn_error(mesh, lam0)
    assert abs(abs(dtn / lam0**s - 1.0) - err_ref) <= 1e-7 * err_ref


@pytest.mark.parametrize("coeff", ["identity", "sine"])
@pytest.mark.parametrize("shape, layers", [((33,), 16), ((9, 9), 8)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_multipliers_match_the_cylinder_solve(shape, layers, bc, coeff):
    # random data holds every mode: dtn_extract of its field has the coefficients
    # g_k c_k, and each mode's own field has the energy e_k / h^dim
    g = Grid((1.0,) * len(shape), shape)
    if coeff == "identity":
        op = assemble(g, CoefficientField.identity(g), bc)
    else:
        op = _sine_base(shape, bc)[1]
    basis = eigendecompose(op)
    u = GridFunction(g, np.random.default_rng(3).standard_normal(shape))
    c, h = basis.coefficients(u), g.cell_volume
    for s in (0.25, 0.5, 0.75):
        mesh = ExtensionMesh.build(g, s, layers, lam0=basis.lambda_min_positive)
        gm, em = extension_multipliers(mesh, basis.eigenvalues)
        U = solve_extension(op, u, mesh, basis)
        got = basis.coefficients(dtn_extract(U, s))
        assert np.abs(got - gm * c).max() <= 1e-10 * np.abs(gm * c).max()
        assert extension_energy(U) == pytest.approx(np.sum(em * c**2) / h, rel=1e-10)
        for k in range(basis.size):
            Uk = solve_extension(op, basis.eigenfunction(k), mesh, basis)
            assert basis.coefficients(dtn_extract(Uk, s))[k] == pytest.approx(gm[k], rel=1e-10)
            assert extension_energy(Uk) == pytest.approx(em[k] / h, rel=1e-10)


@pytest.mark.parametrize("shape, layers", [((33,), 16), ((9, 9), 8), ((32, 32), 24)], ids=["1d", "2d", "2d-32"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_given_trace_field_carries_the_multipliers_to_rounding(shape, layers, bc):
    # the field is built from the increments g is read from, so its DtN
    # coefficients are g_k c_k up to the rounding of U - u and one transform
    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, CoefficientField.identity(g), bc)
    basis = eigendecompose(op)
    u = GridFunction(g, np.random.default_rng(3).standard_normal(shape))
    c = basis.coefficients(u)
    for s in (0.25, 0.5, 0.75):
        mesh = ExtensionMesh.build(g, s, layers, lam0=basis.lambda_min_positive)
        gc = extension_multipliers(mesh, basis.eigenvalues)[0] * c
        got = basis.coefficients(dtn_extract(solve_extension(op, u, mesh, basis), s))
        assert np.abs(got - gc).max() <= 1e-13 * np.abs(gc).max()


def test_multiplier_solve_is_gated(monkeypatch):
    import scipy.linalg

    solve = scipy.linalg.solveh_banded
    monkeypatch.setattr(scipy.linalg, "solveh_banded", lambda *a, **kw: solve(*a, **kw) * (1.0 + 1e-9))
    g = Grid((1.0,), (17,))
    mesh = ExtensionMesh.build(g, 0.5, 8, height=3.0)
    with pytest.raises(ExtensionError, match="backward error"):
        extension_multipliers(mesh, [1.0, 100.0])
    with pytest.raises(ExtensionError, match="at least 5 layers"):
        extension_multipliers(ExtensionMesh.build(g, 0.5, 4, height=3.0), [1.0])


def test_dtn_extract_needs_the_fit_layers_below_the_lid():
    g = Grid((1.0,), (17,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    U = solve_extension(op, GridFunction.ones(g), ExtensionMesh.build(g, 0.5, 4, height=3.0))
    with pytest.raises(ExtensionError, match="the 4-layer DtN fit needs at least 5 layers"):
        dtn_extract(U, 0.5)


def _energy_by_layer_loop(field):
    # extension_energy as it was: one sparse matvec per layer
    op, mesh = field.op, field.mesh
    K, V, kap = _base_stiffness(op), mesh.node_weights(), mesh.face_kappa()
    rows = np.stack([field.values[j][op.active_mask] for j in range(mesh.layers + 1)])
    horiz = float(sum(V[j] * rows[j] @ (K @ rows[j]) for j in range(mesh.layers + 1)))
    vert = float(np.sum(kap[:, None] * np.diff(rows, axis=0) ** 2) * op.grid.cell_volume)
    return horiz + vert


@pytest.mark.parametrize("shape", [(65,), (13, 11)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_extension_energy_in_one_product_matches_the_layer_loop(shape, bc):
    g, op = _sine_base(shape, bc)
    mesh = ExtensionMesh.build(g, 0.4, 16, height=3.0)
    U = solve_extension(op, GridFunction.from_callable(g, lambda *x: np.cos(2.0 * x[0]) + sum(x)), mesh)
    assert extension_energy(U) == pytest.approx(_energy_by_layer_loop(U), rel=1e-13)


def _sine_base(shape, bc=DIRICHLET):
    g = Grid((1.0,) * len(shape), shape)
    A = CoefficientField.from_callable(g, lambda *x: 1.0 + 0.5 * np.sin(2 * np.pi * x[0]))
    return g, assemble(g, A, bc)


@pytest.mark.parametrize("shape", [(33,), (13, 11)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_cylinder_solves_transform_through_the_base_eigenbasis(shape, bc, monkeypatch):
    # the solve diagonalises nothing itself: both bases are Kronecker sums,
    # so eigendecompose takes its factored route and no dense eigh runs;
    # a given basis only saves the decomposition and changes no bit
    import scipy.linalg

    def no_eigh(*args, **kwargs):
        raise AssertionError("dense eigh called by the extension solve")

    g, op = _sine_base(shape, bc)
    mesh = ExtensionMesh.build(g, 0.4, 8, height=3.0)
    u = GridFunction.from_callable(g, lambda *x: np.cos(2.0 * x[0]) + sum(x))
    forcing = ForcingData(None, u)
    with monkeypatch.context() as m:
        m.setattr(scipy.linalg, "eigh", no_eigh)
        basis = eigendecompose(op)
        for given in (None, basis):
            assert np.array_equal(solve_extension(op, u, mesh, given).values, solve_extension(op, u, mesh).values)
            assert np.array_equal(
                solve_extension_forced(op, mesh, forcing, given).values,
                solve_extension_forced(op, mesh, forcing).values,
            )


def _per_mode_cylinder(op, mesh, trace_vec, load, basis):
    """The cylinder solve with one `solveh_banded` call per base mode, the
    loop that one block-diagonal call replaced (no gate).  A given trace
    u = sum_k c_k phi_k extends as sum_k c_k phi_k (x) (1 + v_k): mode k's
    unit-trace increments v_k, solved on the rows 1..M-1, scaled by c_k."""
    import scipy.linalg as sla

    M = mesh.layers
    first = 0 if trace_vec is None else 1
    (d, e, _), D = _vertical_stiffness(mesh, op.grid.cell_volume, first), mesh.node_weights()[first:M]
    lam = op.grid.cell_volume * basis.eigenvalues
    if trace_vec is None:
        R = basis.coefficients_batch(load[:M])
    else:
        R, c = np.empty((M - 1, lam.size)), basis.coefficients_batch(trace_vec[None])[0]
    band = np.zeros((2, M - first))
    band[0, 1:] = e
    for k in range(lam.size):
        band[1] = lam[k] * D + d
        if trace_vec is None:
            R[:, k] = sla.solveh_banded(band, R[:, k])
        else:
            unit = -lam[k] * D
            unit[-1] -= mesh.face_kappa()[-1] * op.grid.cell_volume  # T[M-1, M]
            R[:, k] = c[k] * sla.solveh_banded(band, unit)
    values = np.zeros((M + 1,) + op.grid.shape)
    values[first:M, op.active_mask] = basis.synthesize_batch(R)
    if trace_vec is not None:
        values[:M, op.active_mask] += trace_vec
    return values


@pytest.mark.parametrize("shape", [(65,), (13, 11)], ids=["1d", "2d"])
@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_one_call_cylinder_solve_equals_the_per_mode_loop(shape, bc):
    # the blocks of one tridiagonal are coupled by exact zeros, so LAPACK's
    # ptsv recurrence restarts at each block: every bit matches the loop
    g, op = _sine_base(shape, bc)
    basis = eigendecompose(op)
    mesh = ExtensionMesh.build(g, 0.4, 16, height=3.0)
    M = mesh.layers
    u = GridFunction.from_callable(g, lambda *x: np.cos(2.0 * x[0]) + sum(x))
    given = solve_extension(op, u, mesh, basis).values
    assert np.array_equal(given, _per_mode_cylinder(op, mesh, op.restrict(u), None, basis))

    load = np.zeros((M + 1, op.size))
    load[0] = g.cell_volume * op.restrict(u)
    horizontal = None
    if g.dim == 1:  # a horizontal field F as well
        horizontal = (np.outer(np.sin(3.0 * g.axis_coords(0)[:-1]), np.exp(-mesh.y_nodes)),)
        load += _forcing_load(op, mesh, horizontal)
    forced = solve_extension_forced(op, mesh, ForcingData(horizontal, u), basis).values
    assert np.array_equal(forced, _per_mode_cylinder(op, mesh, None, load, basis))


def _subnormal(x):
    return (x != 0) & (np.abs(x) < np.finfo(float).tiny)


def test_y_solve_returns_no_subnormal_entry(monkeypatch):
    # a flux of 1e-300 at y = 0 decays into the subnormal range up the cylinder,
    # and some right-hand sides are subnormal themselves
    from fracell import extension

    g = Grid((1.0,), (33,))
    mesh = ExtensionMesh.build(g, 0.5, 16, height=3.0)
    lam = g.cell_volume * np.linspace(10.0, 4e3, 31)
    rhs = np.zeros((lam.size, mesh.layers))
    rhs[:, 0] = 1e-300
    rhs[::2, 5::3] = 3e-310
    x = extension._y_solve(mesh, lam, rhs.copy(), 0)
    monkeypatch.setattr(extension, "_FLUSH_BELOW", 0.0)
    ref = extension._y_solve(mesh, lam, rhs.copy(), 0)
    assert _subnormal(ref).sum() > 100 and not _subnormal(x).any()
    assert np.array_equal(x, np.where(_subnormal(ref), 0.0, ref))
    d, e, _ = _vertical_stiffness(mesh, g.cell_volume, 0)
    dense = lam[0] * np.diag(mesh.node_weights()[:-1]) + np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.allclose(1e300 * x[0], np.linalg.solve(dense, 1e300 * rhs[0]), rtol=1e-10, atol=1e-7)


@pytest.mark.parametrize("coeff", ["identity", "sine"])
def test_flushing_subnormals_leaves_the_forced_field_bit_for_bit(coeff, monkeypatch):
    # the benchmark's forced case: 513 x 256 at s = 0.5, four base modes; its
    # mode-space y-solve has subnormal entries at high modes far up the cylinder
    from fracell import extension

    if coeff == "identity":
        g = Grid((1.0,), (513,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    else:
        g, op = _sine_base((513,))
    basis = eigendecompose(op)
    coeffs = np.zeros(basis.size)
    coeffs[:4] = [1.0, 0.3, -0.2, 0.1]
    mesh = ExtensionMesh.build(g, 0.5, 256, lam0=basis.lambda_min_positive)
    forcing = ForcingData(None, basis.synthesize(coeffs))
    flushed = solve_extension_forced(op, mesh, forcing, basis).values

    solved, exact = [], extension._y_solve

    def recorded(*args):
        solved.append(exact(*args))
        return solved[-1]

    monkeypatch.setattr(extension, "_FLUSH_BELOW", 0.0)  # the unflushed reference
    monkeypatch.setattr(extension, "_y_solve", recorded)
    reference = solve_extension_forced(op, mesh, forcing, basis).values
    assert _subnormal(solved[0]).sum() > 1000
    assert np.array_equal(flushed, reference)


def test_basis_of_another_operator_fails_the_backward_error_gate():
    g, op = _sine_base((33,))
    other = eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
    mesh = ExtensionMesh.build(g, 0.4, 8, height=3.0)
    u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x) + x)
    with pytest.raises(ExtensionError, match="backward error"):
        solve_extension(op, u, mesh, other)
    with pytest.raises(ExtensionError, match="backward error"):
        solve_extension_forced(op, mesh, ForcingData(None, u), other)


def test_extension_on_64_squared_builds_no_dense_matrix():
    import tracemalloc

    g, op = _sine_base((64, 64))
    mesh = ExtensionMesh.build(g, 0.5, 16, height=3.0)
    u = GridFunction.from_callable(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    tracemalloc.start()
    try:
        U = solve_extension(op, u, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * op.size**2  # one N x N float64 array, N = 62^2: 118 MB
    assert np.array_equal(U.values[0], u.values * op.active_mask)


def _eta_factory(mesh):
    height = mesh.height

    def eta(x, y):
        bump_x = np.clip(np.cos(np.pi * (x - 0.5) / 0.8), 0.0, None) ** 2
        bump_y = np.clip(1.0 - y / (0.8 * height), 0.0, None) ** 2
        return bump_x * bump_y

    return eta


def test_caccioppoli_zero_solution(setup_half):
    g, op, basis, mesh = setup_half
    U = solve_extension(op, GridFunction.zeros(g), mesh)
    rep = caccioppoli_check(U, _eta_factory(mesh))
    assert rep["lhs"] == 0.0 and rep["ratio"] == 0.0


def test_caccioppoli_scaling_homogeneity(setup_half):
    g, op, basis, mesh = setup_half
    s = 0.5
    phi1 = basis.eigenfunction(0)
    lam1 = basis.eigenvalues[0]
    flux = GridFunction(g, dtn_constant_divform(s) * lam1**s * phi1.values)
    eta = _eta_factory(mesh)
    U1 = solve_extension(op, phi1, mesh)
    rep1 = caccioppoli_check(U1, eta, ForcingData(None, flux))
    U2 = solve_extension(op, 2.0 * phi1, mesh)
    rep2 = caccioppoli_check(U2, eta, ForcingData(None, 2.0 * flux))
    assert rep2["lhs"] == pytest.approx(4.0 * rep1["lhs"], rel=1e-12)
    assert rep2["rhs_grad_eta"] == pytest.approx(4.0 * rep1["rhs_grad_eta"], rel=1e-12)
    assert rep2["rhs_flux"] == pytest.approx(4.0 * rep1["rhs_flux"], rel=1e-12)


def test_caccioppoli_bounded_over_refinement_and_data(rng):
    s = 0.5
    ratios_by_level = []
    for nodes, layers in [(34, 16), (66, 32), (130, 64)]:
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        mesh = ExtensionMesh.build(g, s, layers, lam0=basis.lambda_min_positive)
        eta = _eta_factory(mesh)
        level = []
        for k in range(10):
            coeffs = rng.standard_normal(5)
            u = basis.synthesize(
                np.concatenate([coeffs, np.zeros(basis.size - 5)])
            )
            U = solve_extension(op, u, mesh)
            flux = fractional_apply(basis, u, s) * dtn_constant_divform(s)
            rep = caccioppoli_check(U, eta, ForcingData(None, flux))
            level.append(rep["ratio"])
        ratios_by_level.append(max(level))
    for coarse, fine in zip(ratios_by_level, ratios_by_level[1:]):
        assert fine <= 1.10 * coarse


def test_trace_inequality_probe(setup_half):
    g, op, basis, mesh = setup_half
    phi1 = basis.eigenfunction(0)
    U = solve_extension(op, phi1, mesh)
    rep = trace_inequality_check(U, [0.25, 0.5, 1.0], 0.5)
    assert np.isfinite(rep["sup"]) and rep["sup"] > 0
    # exact scale invariance of every ratio
    U2 = solve_extension(op, 3.0 * phi1, mesh)
    rep2 = trace_inequality_check(U2, [0.25, 0.5, 1.0], 0.5)
    for r in rep["ratios"]:
        assert rep2["ratios"][r] == pytest.approx(rep["ratios"][r], rel=1e-12)


def test_trace_inequality_zero_field(setup_half):
    g, op, basis, mesh = setup_half
    U = solve_extension(op, GridFunction.zeros(g), mesh)
    rep = trace_inequality_check(U, [0.25, 0.5], 0.5)
    assert rep["sup"] == 0.0


def test_trace_inequality_bounded_over_refinement(rng):
    sups = []
    for nodes, layers in [(34, 16), (66, 32), (130, 64)]:
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        mesh = ExtensionMesh.build(g, 0.5, layers, lam0=basis.lambda_min_positive)
        level = []
        for k in range(10):
            coeffs = rng.standard_normal(5)
            u = basis.synthesize(np.concatenate([coeffs, np.zeros(basis.size - 5)]))
            U = solve_extension(op, u, mesh)
            level.append(trace_inequality_check(U, [0.25, 0.5, 1.0], 0.5)["sup"])
        sups.append(max(level))
    for coarse, fine in zip(sups, sups[1:]):
        assert fine <= 1.10 * coarse


def test_weak_form_residual(setup_half):
    # interior rows of the assembled system are satisfied to solver accuracy
    g, op, basis, mesh = setup_half
    phi1 = basis.eigenfunction(0)
    U = solve_extension(op, phi1, mesh)
    from fracell.extension import _base_stiffness

    K = _base_stiffness(op)
    V = mesh.node_weights()
    kap = mesh.face_kappa()
    vol = g.cell_volume
    mask = op.active_mask
    rows = np.stack([U.values[j][mask] for j in range(mesh.layers + 1)])
    worst = 0.0
    for j in range(1, mesh.layers):
        resid = V[j] * (K @ rows[j])
        resid += vol * (kap[j - 1] * (rows[j] - rows[j - 1]) + kap[j] * (rows[j] - rows[j + 1]))
        worst = max(worst, np.abs(resid).max())
    scale = np.abs(K.data).max()
    assert worst <= 1e-10 * scale


@pytest.mark.parametrize("first", [0, 1])
def test_vertical_stiffness_slices_match_the_scipy_diags_matrix(first, rng):
    # T over layers 0..M as `sp.diags` built it, cut to rows first..M-1: the three slices
    # give its product's bits, and the closed-form norm its row sums
    import scipy.sparse as sp

    from fracell.operators import _tridiagonal

    g = Grid((1.0,), (33,))
    mesh, vol = ExtensionMesh.build(g, 0.3, 24, height=3.0), g.cell_volume
    diag, off = _tridiagonal(mesh.face_kappa(), False)
    M = mesh.layers
    T = (sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr") * vol)[first:M, first:M]
    d, e, norm = _vertical_stiffness(mesh, vol, first)
    V = rng.standard_normal((M - first, 40))
    assert np.array_equal(_tridiagonal_apply(d, e, V), T @ V)
    assert np.array_equal(_tridiagonal_apply(d, e, V.T.copy().T), T @ V)
    assert norm == abs(T).sum(axis=1).max()
