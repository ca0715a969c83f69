import math

import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    Grid,
    GridFunction,
    SingularQuadrature,
    assemble,
    balakrishnan_apply,
    eigendecompose,
    fractional_apply,
    greens_function,
    heat_apply,
    jump_kernel,
    killing_term,
    l2_inner,
    l2_norm,
    nonlocal_bilinear_form,
    poisson_kernel,
)
from fracell.semigroup import (
    KernelMatrix,
    QuadratureError,
    _MODE_COLUMNS,
    _mode_balakrishnan,
    _mode_greens_quadrature,
    _mode_poisson,
    greens_route_agreement,
    kernel_log_fit,
    kernel_slope_fit,
)

from conftest import random_dirichlet_field, scipy_csr
from test_spectral import _rotated


@pytest.fixture(scope="module")
def quad_half(basis_dirichlet):
    return SingularQuadrature.for_spectrum(
        0.5, basis_dirichlet.lambda_min_positive, basis_dirichlet.lambda_max
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _balakrishnan(lam, s, q):
    """lambda^s by the Balakrishnan rule q, for one eigenvalue."""
    return float(_mode_balakrishnan(np.array([lam]), s, q)[0])


def test_balakrishnan_scalar_unit():
    q = SingularQuadrature.for_spectrum(0.5, 0.5, 10.0)
    assert abs(_balakrishnan(1.0, 0.5, q) - 1.0) <= 1e-8


def test_balakrishnan_scalar_analytic():
    q = SingularQuadrature.for_spectrum(0.5, 1.0, 10.0)
    assert abs(_balakrishnan(4.0, 0.5, q) - 2.0) <= 2e-8


def test_balakrishnan_scalar_spectrum_stress():
    g = Grid((1.0,), (66,))
    basis = eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
    lam_max = basis.lambda_max
    q = SingularQuadrature.for_spectrum(0.75, basis.lambda_min_positive, lam_max)
    val = _balakrishnan(lam_max, 0.75, q)
    assert abs(val - lam_max**0.75) / lam_max**0.75 <= 1e-6


def test_balakrishnan_maps_a_zero_eigenvalue_to_exactly_zero(quad_half):
    # the Neumann constant mode: expm1(-t * 0) is exactly 0 at every node
    vals = _mode_balakrishnan(np.array([0.0, 1.0]), 0.5, quad_half)
    assert vals[0] == 0.0 and vals[1] > 0.0


def test_quadrature_exactness_ladder(basis_dirichlet):
    # calibrated rule reproduces lambda^s over the whole spectrum
    lam = basis_dirichlet.eigenvalues
    for s in (0.25, 0.5, 0.75):
        q = SingularQuadrature.for_spectrum(
            s, basis_dirichlet.lambda_min_positive, basis_dirichlet.lambda_max
        )
        assert np.abs(_mode_balakrishnan(lam, s, q) / lam**s - 1.0).max() <= 1e-8


def test_quadrature_refinement_monotone():
    # residual decreases monotonically with node count (above the floor)
    s, lam = 0.5, 7.0
    t_min, t_max = 1e-16, 1e6
    resid = []
    for n in (40, 80, 160):
        q = SingularQuadrature.build(s, t_min, t_max, n)
        resid.append(abs(_balakrishnan(lam, s, q) - lam**s) / lam**s)
    assert resid[0] > resid[1] > resid[2]


def test_quadrature_exponent_mismatch_rejected(basis_dirichlet, quad_half):
    with pytest.raises(QuadratureError):
        jump_kernel(basis_dirichlet, 0.25, quad_half)


# ---------------------------------------------------------------------------
# semigroup and the Balakrishnan route
# ---------------------------------------------------------------------------


def test_heat_apply_identity_and_eigen_decay(basis_dirichlet):
    phi2 = basis_dirichlet.eigenfunction(1)
    lam2 = basis_dirichlet.eigenvalues[1]
    assert l2_norm(heat_apply(basis_dirichlet, phi2, 0.0) - phi2) == 0.0
    out = heat_apply(basis_dirichlet, phi2, 0.02)
    assert l2_norm(out - math.exp(-0.02 * lam2) * phi2) <= 1e-10


def test_heat_semigroup_law(basis_dirichlet, op_dirichlet, rng):
    u = random_dirichlet_field(op_dirichlet, rng)
    a = heat_apply(basis_dirichlet, heat_apply(basis_dirichlet, u, 0.01), 0.03)
    b = heat_apply(basis_dirichlet, u, 0.04)
    assert l2_norm(a - b) <= 1e-10 * l2_norm(b)


def test_heat_apply_rejects_negative_time(basis_dirichlet):
    with pytest.raises(ValueError):
        heat_apply(basis_dirichlet, basis_dirichlet.eigenfunction(0), -0.1)


def test_balakrishnan_apply_matches_spectral(basis_dirichlet, op_dirichlet, rng, quad_half):
    u = random_dirichlet_field(op_dirichlet, rng)
    semi = balakrishnan_apply(basis_dirichlet, u, 0.5, quad_half)
    spec = fractional_apply(basis_dirichlet, u, 0.5)
    assert l2_norm(semi - spec) <= 1e-6 * l2_norm(spec)


def test_balakrishnan_apply_eigenfunction(basis_dirichlet, quad_half):
    phi1 = basis_dirichlet.eigenfunction(0)
    lam1 = basis_dirichlet.eigenvalues[0]
    out = balakrishnan_apply(basis_dirichlet, phi1, 0.5, quad_half)
    assert l2_norm(out - lam1**0.5 * phi1) <= 1e-6 * lam1**0.5


def test_balakrishnan_apply_linearity(basis_dirichlet, op_dirichlet, rng, quad_half):
    u = random_dirichlet_field(op_dirichlet, rng)
    a = balakrishnan_apply(basis_dirichlet, 2.0 * u, 0.5, quad_half)
    b = 2.0 * balakrishnan_apply(basis_dirichlet, u, 0.5, quad_half)
    assert l2_norm(a - b) <= 1e-12 * l2_norm(b)


def test_balakrishnan_apply_eigenfree_route():
    # backward-Euler-stepped semigroup instead of the eigen route: fully
    # independent of the spectral oracle it is compared against, at the
    # percent-level accuracy of first-order stepping
    g = Grid((1.0,), (34,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    u = basis.eigenfunction(0) + 0.3 * basis.eigenfunction(2)
    s = 0.5
    q = SingularQuadrature.for_spectrum(
        s, basis.lambda_min_positive, basis.lambda_max, tol=1e-6, dtau=0.5
    )
    semi = balakrishnan_apply(op, u, s, q, steps_per_node=128)
    spec = fractional_apply(basis, u, s)
    assert l2_norm(semi - spec) <= 2e-2 * l2_norm(spec)


def _max_rel(got, ref):
    return np.abs(got.values - ref.values).max() / np.abs(ref.values).max()


def _eigenfree_vs_oracle(op, basis, u, s, **kw):
    q = SingularQuadrature.for_spectrum(s, basis.lambda_min_positive, basis.lambda_max)
    return _max_rel(balakrishnan_apply(op, u, s, q, **kw), fractional_apply(basis, u, s))


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("coeff", ["identity", "sine"])
def test_balakrishnan_apply_eigenfree_matches_oracle(coeff, s, request, rng):
    # one resolvent solve per node: the calibrated rule's accuracy sets the error
    op = request.getfixturevalue("op_dirichlet" if coeff == "identity" else "op_variable")
    basis = request.getfixturevalue("basis_dirichlet" if coeff == "identity" else "basis_variable")
    u = random_dirichlet_field(op, rng)
    assert _eigenfree_vs_oracle(op, basis, u, s) <= 1e-8


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_balakrishnan_apply_eigenfree_steps_constant(op_variable, basis_variable, rng, steps):
    # the m-step resolvent sum divided by its exact constant C_m(s) is
    # m-independent; dividing by |Gamma(-s)| is off by ~s(1-s)/(2m)
    u = random_dirichlet_field(op_variable, rng)
    assert _eigenfree_vs_oracle(op_variable, basis_variable, u, 0.75, steps_per_node=steps) <= 1e-8


def test_balakrishnan_apply_eigenfree_cross_term_2d(rng):
    # a 9-point stencil: the band is read off the pattern (about nx wide)
    g = Grid((1.0, 1.0), (24, 24))
    op = assemble(g, _rotated(g), DIRICHLET)
    basis = eigendecompose(op)
    u = random_dirichlet_field(op, rng)
    assert _eigenfree_vs_oracle(op, basis, u, 0.5) <= 1e-8


def test_balakrishnan_apply_eigenfree_uses_no_eigensolver(op_variable, basis_variable, rng, monkeypatch):
    import scipy.linalg
    import scipy.sparse.linalg

    u = random_dirichlet_field(op_variable, rng)
    s = 0.5
    q = SingularQuadrature.for_spectrum(s, basis_variable.lambda_min_positive, basis_variable.lambda_max)
    ref = fractional_apply(basis_variable, u, s)

    def refuse(*args, **kwargs):
        raise AssertionError("eigen-free route called a decomposition")

    for mod, name in [
        (scipy.linalg, "eigh"),
        (scipy.linalg, "eigh_tridiagonal"),
        (scipy.sparse.linalg, "splu"),
        (scipy.sparse.linalg, "factorized"),
    ]:
        monkeypatch.setattr(mod, name, refuse)
    assert _max_rel(balakrishnan_apply(op_variable, u, s, q), ref) <= 1e-8


def test_balakrishnan_apply_eigenfree_gates_backward_error(op_variable, basis_variable, rng, monkeypatch):
    import scipy.linalg.lapack as lapack

    exact = lapack.dpbtrs
    monkeypatch.setattr(lapack, "dpbtrs", lambda c, b: (exact(c, b)[0] * (1.0 + 1e-9), 0))
    q = SingularQuadrature.for_spectrum(0.5, basis_variable.lambda_min_positive, basis_variable.lambda_max)
    with pytest.raises(QuadratureError, match="backward error"):
        balakrishnan_apply(op_variable, random_dirichlet_field(op_variable, rng), 0.5, q)


def test_balakrishnan_apply_eigenfree_refuses_neumann(op_neumann, basis_neumann, rng, monkeypatch):
    # the constant mode makes Cholesky of I + tL break down at large t; the
    # route is refused by name before any factorization
    import scipy.linalg.lapack as lapack

    def refuse(*args, **kwargs):
        raise AssertionError("factored a singular operator")

    monkeypatch.setattr(lapack, "dpbtrf", refuse)
    u = op_neumann.embed(rng.standard_normal(op_neumann.size))
    q = SingularQuadrature.for_spectrum(0.5, basis_neumann.lambda_min_positive, basis_neumann.lambda_max)
    with pytest.raises(QuadratureError, match="positive definite"):
        balakrishnan_apply(op_neumann, u, 0.5, q)


def _per_node_apply(op, u, s, q, m):
    """The eigen-free apply node by node: one `dpbtrf` factor and m `dpbtrs`
    back-solves per quadrature node, summed in node order."""
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    from scipy.special import gammaln

    from fracell.semigroup import _upper_band

    L = op.matrix
    band, Lu = _upper_band(L), L @ op.restrict(u)
    acc = np.zeros_like(Lu)
    for t_j, w_j in zip(q.nodes, q.weights):
        dt = t_j / m
        ab = dt * band
        ab[-1] += 1.0
        chol, info = dpbtrf(ab)
        assert info == 0
        v, node = dt * Lu, np.zeros_like(Lu)
        for _ in range(m):
            v = dpbtrs(chol, v)[0]
            node += v
            if np.abs(v).max() <= np.finfo(float).eps * np.abs(node).max():
                break
        acc += w_j * node
    c_m = math.exp(gammaln(1 - s) + gammaln(m + s) - gammaln(m) - math.log(s) - s * math.log(m))
    return op.embed(acc / c_m)


@pytest.mark.parametrize("steps, s", [(m, s) for m in (1, 2, 5) for s in (0.25, 0.75)] + [(128, 0.25)])
def test_stacked_resolvents_match_the_per_node_loop_1d(op_variable, basis_variable, rng, steps, s):
    # kd = 1: the stacked band factors and solves each block exactly as alone; at
    # m = 128 most nodes stop early, and a stopped node must add nothing more
    u = random_dirichlet_field(op_variable, rng)
    q = SingularQuadrature.for_spectrum(s, basis_variable.lambda_min_positive, basis_variable.lambda_max)
    got = balakrishnan_apply(op_variable, u, s, q, steps_per_node=steps)
    assert np.array_equal(got.values, _per_node_apply(op_variable, u, s, q, steps).values)


def test_stacked_resolvents_match_the_per_node_loop_2d(rng):
    # kd = 33 >= 32, where dpbtrf may block a stack differently from one node
    g = Grid((1.0, 1.0), (34, 34))
    op = assemble(g, _rotated(g), DIRICHLET)
    u = random_dirichlet_field(op, rng)
    norm_L = abs(scipy_csr(op.matrix)).sum(axis=1).max()
    q = SingularQuadrature.for_spectrum(0.5, 1.0, norm_L, tol=1e-6, dtau=1.0)
    got, ref = balakrishnan_apply(op, u, 0.5, q, steps_per_node=2), _per_node_apply(op, u, 0.5, q, 2)
    assert np.abs(got.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()


def test_stacked_resolvents_stay_within_the_row_budget(rng, monkeypatch):
    import scipy.linalg.lapack as lapack

    import fracell.semigroup as semigroup

    shapes, floats = [], []
    exact_trf, exact_check = lapack.dpbtrf, semigroup._check_memory

    def recording_trf(ab):
        shapes.append(ab.shape)
        return exact_trf(ab)

    def recording_check(n, what):
        floats.append(n)
        exact_check(n, what)

    monkeypatch.setattr(lapack, "dpbtrf", recording_trf)
    monkeypatch.setattr(semigroup, "_check_memory", recording_check)
    g = Grid((1.0, 1.0), (24, 24))
    op = assemble(g, _rotated(g), DIRICHLET)
    q = SingularQuadrature.for_spectrum(0.5, 1.0, abs(scipy_csr(op.matrix)).sum(axis=1).max())
    balakrishnan_apply(op, random_dirichlet_field(op, rng), 0.5, q)
    kd1 = semigroup._upper_band(op.matrix).shape[0]
    assert len(shapes) > 1 and len(floats) == len(shapes)  # chunked, each chunk checked
    assert all(shape == (kd1, shape[1]) and shape[1] <= semigroup._STACK_ROWS for shape in shapes)
    assert sum(shape[1] for shape in shapes) == q.size * op.size
    assert max(floats) <= (2 * kd1 + 6) * semigroup._STACK_ROWS


def test_stacked_resolvent_gate_trips_on_one_node(op_variable, basis_variable, rng, monkeypatch):
    # only the first block of each stack is perturbed; the others pass
    import scipy.linalg.lapack as lapack

    exact, n = lapack.dpbtrs, op_variable.size

    def perturbed(c, b):
        x = exact(c, b)[0]
        x[:n] *= 1.0 + 1e-9
        return x, 0

    monkeypatch.setattr(lapack, "dpbtrs", perturbed)
    q = SingularQuadrature.for_spectrum(0.5, basis_variable.lambda_min_positive, basis_variable.lambda_max)
    with pytest.raises(QuadratureError, match="backward error"):
        balakrishnan_apply(op_variable, random_dirichlet_field(op_variable, rng), 0.5, q)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_symmetry_defect_by_tiles_equals_the_full_transpose(basis_dirichlet):
    # 600 rows: three tile rows, the last one partial
    rng = np.random.default_rng(5)
    A = rng.standard_normal((600, 600))
    A = A + A.T + 1e-9 * rng.standard_normal((600, 600))
    K = KernelMatrix(basis_dirichlet, "jump", A)
    assert K.symmetry_defect() == np.abs(A - A.T).max() / np.abs(A).max()


def test_jump_kernel_contract(basis_dirichlet, quad_half):
    K = jump_kernel(basis_dirichlet, 0.5, quad_half)
    assert K.symmetry_defect() <= 1e-10
    assert K.min_entry() >= -1e-10 * np.abs(K.entries).max()
    assert np.all(np.diag(K.entries) == 0.0)


def test_jump_kernel_upper_bound_normalized(basis_dirichlet):
    # K(x,z) |x-z|^(n+2s) stays bounded across refinement
    caps = []
    for n in (66, 130):
        g = Grid((1.0,), (n,))
        basis = eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
        q = SingularQuadrature.for_spectrum(0.5, basis.lambda_min_positive, basis.lambda_max)
        K = jump_kernel(basis, 0.5, q)
        dist, vals = K.pair_data(2 * g.spacing[0], 1.0)
        caps.append((vals * dist**2.0).max())
    assert np.isfinite(caps).all()
    assert caps[1] <= 1.5 * caps[0]


def test_jump_kernel_interior_slopes(basis_dirichlet):
    for s in (0.25, 0.5, 0.75):
        q = SingularQuadrature.for_spectrum(
            s, basis_dirichlet.lambda_min_positive, basis_dirichlet.lambda_max
        )
        K = jump_kernel(basis_dirichlet, s, q)
        fit = kernel_slope_fit(K)
        assert abs(fit.slope + (1 + 2 * s)) <= 0.15


def test_kernel_permutation_equivariance():
    # reflection-symmetric coefficient: K(Pi, Pj) = K(i, j)
    g = Grid((1.0,), (34,))
    A = CoefficientField.from_callable(g, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    basis = eigendecompose(assemble(g, A, DIRICHLET))
    q = SingularQuadrature.for_spectrum(0.5, basis.lambda_min_positive, basis.lambda_max)
    K = jump_kernel(basis, 0.5, q).entries
    KP = K[::-1, :][:, ::-1]
    assert np.abs(K - KP).max() <= 1e-9 * np.abs(K).max()
    G = greens_function(basis, 0.5).entries
    GP = G[::-1, :][:, ::-1]
    assert np.abs(G - GP).max() <= 1e-9 * np.abs(G).max()


def test_killing_term_contract(basis_dirichlet, basis_neumann, quad_half):
    B = killing_term(basis_dirichlet, 0.5, quad_half)
    assert B.min_entry() >= -1e-10 * abs(B.max_entry())
    qN = SingularQuadrature.for_spectrum(
        0.5, basis_neumann.lambda_min_positive, basis_neumann.lambda_max
    )
    BN = killing_term(basis_neumann, 0.5, qN)
    assert max(abs(BN.min_entry()), abs(BN.max_entry())) <= 1e-10


def test_killing_term_grows_toward_boundary(basis_dirichlet, quad_half):
    # report-only trend on the model problem: larger near the walls than
    # at the center (monotonicity itself is recorded, not asserted)
    B = killing_term(basis_dirichlet, 0.5, quad_half)
    vals = B.values.restrict(basis_dirichlet.active_mask)
    mid = len(vals) // 2
    assert vals[0] > vals[mid] and vals[-1] > vals[mid]


def test_bilinear_form_eigen_case(basis_dirichlet, quad_half):
    phi1 = basis_dirichlet.eigenfunction(0)
    lam1 = basis_dirichlet.eigenvalues[0]
    K = jump_kernel(basis_dirichlet, 0.5, quad_half)
    B = killing_term(basis_dirichlet, 0.5, quad_half)
    val = nonlocal_bilinear_form(phi1, phi1, K, B)
    assert val == pytest.approx(lam1**0.5, rel=1e-6)


def test_bilinear_form_symmetry(basis_dirichlet, op_dirichlet, rng, quad_half):
    u = random_dirichlet_field(op_dirichlet, rng)
    v = random_dirichlet_field(op_dirichlet, rng)
    K = jump_kernel(basis_dirichlet, 0.5, quad_half)
    B = killing_term(basis_dirichlet, 0.5, quad_half)
    assert nonlocal_bilinear_form(u, v, K, B) == pytest.approx(
        nonlocal_bilinear_form(v, u, K, B), rel=1e-12
    )


def test_bilinear_form_matches_spectral_pairing(basis_dirichlet, op_dirichlet, rng, quad_half):
    u = random_dirichlet_field(op_dirichlet, rng)
    v = random_dirichlet_field(op_dirichlet, rng)
    K = jump_kernel(basis_dirichlet, 0.5, quad_half)
    B = killing_term(basis_dirichlet, 0.5, quad_half)
    lhs = l2_inner(fractional_apply(basis_dirichlet, u, 0.5), v)
    rhs = nonlocal_bilinear_form(u, v, K, B)
    assert abs(lhs - rhs) <= 1e-3 * abs(lhs)


def test_bilinear_form_neumann_has_no_killing(basis_neumann, rng):
    qN = SingularQuadrature.for_spectrum(
        0.5, basis_neumann.lambda_min_positive, basis_neumann.lambda_max
    )
    KN = jump_kernel(basis_neumann, 0.5, qN)
    g = basis_neumann.grid
    vals = rng.standard_normal(g.shape)
    u = GridFunction(g, vals - vals.mean())
    lhs = l2_inner(fractional_apply(basis_neumann, u, 0.5), u)
    rhs = nonlocal_bilinear_form(u, u, KN, killing=None)
    assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


def test_greens_function_contract(basis_dirichlet):
    s = 0.5
    G = greens_function(basis_dirichlet, s)
    Gq = basis_dirichlet.kernel(_mode_greens_quadrature(basis_dirichlet, s))
    assert G.symmetry_defect() <= 1e-10
    rel = np.abs(G.entries - Gq).max() / np.abs(G.entries).max()
    assert rel <= 1e-6
    lam = basis_dirichlet.eigenvalues
    assert np.linalg.eigvalsh(G.entries).min() > 0  # positive matrix


@pytest.mark.parametrize("shape, s", [((130,), 0.5), ((24, 24), 0.25), ((9, 17), 0.75)], ids=str)
def test_streamed_route_agreement_is_the_full_kernels_bit_for_bit(shape, s):
    g = Grid((1.0,) * len(shape), shape)
    A = CoefficientField.from_callable(g, lambda *xs: 1.0 + 0.5 * np.sin(2 * np.pi * xs[0]))
    basis = eigendecompose(assemble(g, A, DIRICHLET))
    G, Gq = greens_function(basis, s), basis.kernel(_mode_greens_quadrature(basis, s))
    want = np.abs(G.entries - Gq).max() / np.abs(G.entries).max()
    assert greens_route_agreement(G) == want


def test_greens_inverse_property(basis_dirichlet, op_dirichlet, rng):
    s = 0.5
    G = greens_function(basis_dirichlet, s)
    f = random_dirichlet_field(op_dirichlet, rng)
    mask = basis_dirichlet.active_mask
    w = basis_dirichlet.weight
    gf = GridFunction.embed(basis_dirichlet.grid, mask, w * (G.entries @ f.restrict(mask)))
    back = fractional_apply(basis_dirichlet, gf, s)
    assert l2_norm(back - f) <= 1e-6 * l2_norm(f)


def test_greens_log_regime_1d(basis_dirichlet):
    # n = 2s: logarithmic interior behavior, coefficient ~ 1/pi
    G = greens_function(basis_dirichlet, 0.5)
    fit = kernel_log_fit(G)
    assert fit.r2 >= 0.99
    assert fit.slope == pytest.approx(1.0 / math.pi, rel=0.15)


def test_poisson_kernel_rows(basis_dirichlet, basis_neumann):
    P = poisson_kernel(basis_dirichlet, 0.25, 0.3)
    rows = P.row_integrals()
    assert rows.min() >= -1e-8 and rows.max() <= 1.0 + 1e-8
    PN = poisson_kernel(basis_neumann, 0.25, 0.3)
    assert np.abs(PN.row_integrals() - 1.0).max() <= 1e-6


def test_poisson_kernel_matches_extension(basis_dirichlet):
    from fracell.extension import ExtensionMesh, solve_extension

    # U(x, y) = int P_y(x, z) u(z) dz vs the finite-difference extension
    s, y = 0.5, 0.25
    g = basis_dirichlet.grid
    mesh = ExtensionMesh.build(g, s, 64, lam0=basis_dirichlet.lambda_min_positive)
    phi1 = basis_dirichlet.eigenfunction(0)
    P = poisson_kernel(basis_dirichlet, s, y)
    mask = basis_dirichlet.active_mask
    via_kernel = basis_dirichlet.weight * (P.entries @ phi1.restrict(mask))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    U = solve_extension(op, phi1, mesh)
    j = int(np.argmin(np.abs(mesh.y_nodes - y)))
    fd = U.values[j][mask]
    scale = np.abs(phi1.values).max()
    assert np.abs(via_kernel - fd).max() / scale <= 1e-2


def test_pair_data_checks_available_memory(basis_dirichlet, quad_half, monkeypatch):
    from fracell import spectral

    K = jump_kernel(basis_dirichlet, 0.5, quad_half)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 8.0 * K.entries.size)
    with pytest.raises(spectral.DenseMemoryError, match="pair distances"):
        K.pair_data(0.0, 1.0)


# ---------------------------------------------------------------------------
# blocked evaluation: mode factors by eigenvalue blocks, pairs by row blocks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def basis_40():
    g = Grid((1.0, 1.0), (40, 40))
    return eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))


def test_blocked_mode_factors_match_the_one_table_rules(basis_40):
    # 38^2 = 1444 eigenvalues in 6 blocks; the one-table rules sum the same columns
    from scipy.special import gamma as gamma_fn

    lam, s, y = basis_40.eigenvalues, 0.25, 0.3
    assert -(-lam.size // _MODE_COLUMNS) == 6
    q = SingularQuadrature.for_spectrum(s, basis_40.lambda_min_positive, basis_40.lambda_max)
    qg = SingularQuadrature.for_inverse(s, float(lam.min()), float(lam.max()))
    qp = SingularQuadrature.for_poisson(s, y, basis_40.lambda_min_positive, False)
    gauss = np.exp(-(y**2) / (4.0 * qp.nodes))[:, None]
    pairs = [
        (_mode_balakrishnan(lam, s, q), q.integrate(lambda t: np.expm1(-np.outer(t, lam))) / gamma_fn(-s)),
        (_mode_greens_quadrature(basis_40, s)(lam), qg.integrate(lambda t: np.exp(-np.outer(t, lam))) / gamma_fn(s)),
        (
            _mode_poisson(basis_40, s, y)(lam),
            qp.integrate(lambda t: gauss * np.exp(-np.outer(t, lam))) * y ** (2 * s) / (4.0**s * gamma_fn(s)),
        ),
    ]
    for blocked, whole in pairs:
        assert blocked.shape == whole.shape == lam.shape
        assert np.abs(blocked - whole).max() <= 1e-14 * np.abs(whole).max()


def test_blocked_mode_factors_keep_every_shape(quad_half):
    # an empty spectrum, one eigenvalue and a scalar give what one table gave: a flat array
    assert _mode_balakrishnan(np.array([]), 0.5, quad_half).shape == (0,)
    one = _mode_balakrishnan(np.array([4.0]), 0.5, quad_half)
    assert one.shape == (1,) and np.array_equal(_mode_balakrishnan(4.0, 0.5, quad_half), one)


@pytest.mark.parametrize("window", [{"interior_margin": 0.0}, {}], ids=["margin0", "default"])
def test_pair_data_is_the_all_pairs_walk(window):
    # the row blocks return the pairs, distances and values of one upper-triangle walk, in its order
    g = Grid((1.0, 1.0), (24, 24))
    basis = eigendecompose(assemble(g, CoefficientField.identity(g), DIRICHLET))
    K = greens_function(basis, 0.5)
    r_min, r_max = 2 * g.spacing[0], 0.25
    margin = window.get("interior_margin", 0.25)
    pts = K.active_coords()
    idx = np.flatnonzero(np.all((pts >= margin) & (pts <= 1.0 - margin), axis=1))
    i, j = (idx[k] for k in np.triu_indices(idx.size, k=1))
    dist = np.sqrt(np.sum((pts[i] - pts[j]) ** 2, axis=1))
    keep = (dist >= r_min) & (dist <= r_max)
    got = K.pair_data(r_min, r_max, margin)
    assert np.array_equal(got[0], dist[keep]) and np.array_equal(got[1], K.entries[i[keep], j[keep]])
    assert keep.sum() > 1000


def test_jump_kernel_fit_peaks_near_the_kernel_itself(basis_40):
    # a kernel of 1444^2 floats (15.9 MiB) and its slope fit stay within 4 MiB of it
    import tracemalloc

    q = SingularQuadrature.for_spectrum(0.25, basis_40.lambda_min_positive, basis_40.lambda_max)
    tracemalloc.start()
    try:
        K = jump_kernel(basis_40, 0.25, q)
        kernel_slope_fit(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K.entries.nbytes + 4 * 2**20


@pytest.mark.parametrize("shape", [(130,), (13, 11), (24, 24)], ids=str)
def test_upper_band_matches_the_scipy_triu_construction(shape):
    import scipy.sparse as sp

    from fracell.semigroup import _upper_band

    g = Grid((1.0,) * len(shape), shape)
    op = assemble(g, _rotated(g) if shape == (24, 24) else CoefficientField.identity(g), DIRICHLET)
    U = sp.triu(scipy_csr(op.matrix), format="coo")
    kd = int((U.col - U.row).max(initial=0))
    ref = np.zeros((kd + 1, op.size), order="F")
    ref[kd + U.row - U.col, U.col] = U.data
    got = _upper_band(op.matrix)
    assert got.shape == ref.shape and np.array_equal(got, ref)
