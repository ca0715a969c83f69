import math

import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    NEUMANN,
    Grid,
    GridFunction,
    SingularQuadrature,
    assemble,
    eigendecompose,
    fractional_apply,
    jump_kernel,
)
from fracell.halfspace import (
    HalfLineProblem,
    HalfSpaceError,
    RHS_INDICATOR,
    RHS_ONE,
    boundary_growth_exponent,
    closed_form_halfline,
    halfline_inverse_quadrature,
    halfspace_kernel,
    interior_log_constant,
    reflect,
)


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


def test_reflect_linear_odd():
    g = Grid((1.0,), (9,))
    u = GridFunction.from_callable(g, lambda x: x)
    r = reflect(u, "odd")
    assert np.array_equal(r.values[8::-1], -r.values[8:])  # mirror about the wall node 8
    assert r.values[0] == -1.0 and r.values[-1] == 1.0
    assert r.values[len(r.values) // 2] == 0.0


def test_reflect_constant_even():
    g = Grid((1.0,), (9,))
    r = reflect(GridFunction.ones(g), "even")
    assert np.array_equal(r.values[8::-1], r.values[8:])
    assert np.all(r.values == 1.0)


def test_reflect_rejects_nonzero_trace_odd():
    g = Grid((1.0,), (9,))
    with pytest.raises(HalfSpaceError):
        reflect(GridFunction.ones(g), "odd")


def test_reflection_identity_discrete(rng):
    # fractional power of the full symmetric-grid operator applied to the
    # odd extension, restricted to the half, equals the half-grid Dirichlet
    # fractional power: two independent spectral computations
    n = 33
    T = 1.0
    g_half = Grid((T,), (n,))
    op_half = assemble(g_half, CoefficientField.identity(g_half), DIRICHLET)
    basis_half = eigendecompose(op_half)

    vals = rng.standard_normal(n)
    vals[0] = vals[-1] = 0.0
    u = GridFunction(g_half, vals)
    refl = reflect(u, "odd")
    g_full = refl.grid
    op_full = assemble(g_full, CoefficientField.identity(g_full), DIRICHLET)
    basis_full = eigendecompose(op_full)

    s = 0.5
    full_out = fractional_apply(basis_full, refl.as_grid_function(), s)
    half_out = fractional_apply(basis_half, u, s)
    m = n - 1  # index of the wall node on the full grid
    restricted = full_out.values[m:]
    assert np.abs(restricted - half_out.values).max() <= 1e-8 * np.abs(half_out.values).max()


def test_parity_preserved_by_symmetric_operator(rng):
    n = 33
    g_half = Grid((1.0,), (n,))
    vals = rng.standard_normal(n)
    vals[0] = 0.0
    vals[-1] = 0.0
    u = GridFunction(g_half, vals)
    for parity in ("odd", "even"):
        refl = reflect(u, parity)
        g_full = refl.grid
        op = assemble(g_full, CoefficientField.identity(g_full), DIRICHLET)
        basis = eigendecompose(op)
        out = fractional_apply(basis, refl.as_grid_function(), 0.5)
        sign = -1.0 if parity == "odd" else 1.0
        defect = np.abs(out.values[::-1] - sign * out.values).max()
        assert defect <= 1e-9 * max(np.abs(out.values).max(), 1e-30)


# ---------------------------------------------------------------------------
# reflected kernels
# ---------------------------------------------------------------------------


def test_halfspace_kernel_ordering_and_symmetry():
    x, z = [0.3], [0.7]
    s = 0.5
    kd = halfspace_kernel(x, z, s, DIRICHLET)
    kn = halfspace_kernel(x, z, s, NEUMANN)
    free = abs(0.3 - 0.7) ** -(1 + 2 * s)
    assert 0.0 <= kd <= free <= kn
    assert kd == halfspace_kernel(z, x, s, DIRICHLET)
    assert kn == halfspace_kernel(z, x, s, NEUMANN)


def test_halfspace_kernel_vanishes_at_wall():
    s = 0.4
    vals = [halfspace_kernel([eps], [0.5], s, DIRICHLET) for eps in (0.1, 0.01, 0.001)]
    assert vals[0] > vals[1] > vals[2] >= 0.0
    assert vals[2] <= 1e-2 * vals[0]


def test_halfspace_kernel_rejects_bad_points():
    with pytest.raises(HalfSpaceError):
        halfspace_kernel([0.5], [0.5], 0.5, DIRICHLET)
    with pytest.raises(HalfSpaceError):
        halfspace_kernel([-0.1], [0.5], 0.5, DIRICHLET)


def test_halfspace_kernel_matches_truncated_operator():
    # jump kernel of a long truncated half-line Dirichlet operator tracks
    # the reflected closed form away from the truncation: ratio within 10%
    T, n = 16.0, 257
    g = Grid((T,), (n,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    s = 0.4
    q = SingularQuadrature.for_spectrum(s, basis.lambda_min_positive, basis.lambda_max)
    K = jump_kernel(basis, s, q)
    pts = K.active_coords()[:, 0]
    h = g.spacing[0]
    sel = np.flatnonzero((pts > 0.1) & (pts < 2.0))
    num, ref = [], []
    for a in sel[::5]:
        for b in sel[::5]:
            d = abs(pts[a] - pts[b])
            if d < 3 * h or d > 1.5:
                continue
            num.append(K.entries[a, b])
            ref.append(halfspace_kernel([pts[a]], [pts[b]], s, DIRICHLET))
    num, ref = np.asarray(num), np.asarray(ref)
    ratio = num / ref
    c = np.median(ratio)
    assert np.abs(ratio / c - 1.0).max() <= 0.10
    # slope agreement: both decay with the same law
    slope_num = np.polyfit(np.log(ref), np.log(num), 1)[0]
    assert abs(slope_num - 1.0) <= 0.10


# ---------------------------------------------------------------------------
# half-line quadrature vs closed forms
# ---------------------------------------------------------------------------


def test_constant_datum_needs_small_s():
    with pytest.raises(HalfSpaceError):
        HalfLineProblem(0.6, RHS_ONE)


def test_halfline_growth_s_quarter():
    p = HalfLineProblem(0.25, RHS_ONE)
    xs = np.geomspace(1e-3, 1e-1, 12)
    vals = halfline_inverse_quadrature(p, xs)
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert abs(slope - 0.5) <= 1e-3


def test_halfline_ratio_s_three_quarters():
    p = HalfLineProblem(0.75, RHS_INDICATOR)
    xs = np.linspace(0.05, 0.45, 9)
    vals = halfline_inverse_quadrature(p, xs)
    cf = closed_form_halfline(p, xs)
    ratio = vals / cf
    assert (ratio.max() - ratio.min()) / abs(ratio.mean()) <= 1e-6


def test_halfline_log_case_residual():
    p = HalfLineProblem(0.5, RHS_INDICATOR)
    xs = np.linspace(0.05, 0.45, 9)
    vals = halfline_inverse_quadrature(p, xs)
    cf = closed_form_halfline(p, xs)
    c = np.dot(vals, cf) / np.dot(cf, cf)
    assert np.abs(vals - c * cf).max() / np.abs(vals).max() <= 1e-6


@pytest.mark.parametrize("s", [1e-4, 1e-3, 0.01, 0.1, 0.25, 0.4])
def test_halfline_constant_datum_exact_values(s):
    # with the unit kernel constant, u(x) = x^{2s} / s
    xs = np.geomspace(1e-3, 1e-1, 12)
    vals = halfline_inverse_quadrature(HalfLineProblem(s, RHS_ONE), xs)
    assert np.abs(vals / (xs ** (2 * s) / s) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.99])
def test_halfline_indicator_exact_values(s):
    # with the unit kernel constant, u = closed form / (2s), and at s = 1/2 u = closed form
    p = HalfLineProblem(s, RHS_INDICATOR)
    xs = np.linspace(0.05, 0.45, 9)
    exact = closed_form_halfline(p, xs) / (1.0 if s == 0.5 else 2.0 * s)
    assert np.abs(halfline_inverse_quadrature(p, xs) / exact - 1.0).max() <= 1e-12


def test_halfline_indicator_needs_points_inside_support():
    with pytest.raises(HalfSpaceError):
        halfline_inverse_quadrature(HalfLineProblem(0.75, RHS_INDICATOR), [1.5])


def test_log_constant_oracle():
    assert abs(interior_log_constant() - 3.0 * math.log(3.0)) <= 1e-8


def test_log_case_leading_behavior():
    # value / (-x ln x) approaches 2 (slowly, logarithmically) and the
    # remainder after removing -2 x ln x is smooth-bounded
    p = HalfLineProblem(0.5, RHS_INDICATOR)
    xs = np.array([1e-3, 1e-5, 1e-7])
    vals = closed_form_halfline(p, xs)
    ratios = vals / (-2.0 * xs * np.log(xs))
    assert np.all(np.diff(np.abs(ratios - 1.0)) < 0)
    rest = vals + 2.0 * xs * np.log(xs)
    assert np.abs(rest).max() <= 5.0 * xs.max()


def test_s_above_half_linear_behavior():
    # series cancellation: u(x)/x tends to a constant as x -> 0+
    p = HalfLineProblem(0.75, RHS_INDICATOR)
    xs = np.array([1e-2, 1e-3, 1e-4])
    vals = closed_form_halfline(p, xs)
    ratios = vals / xs
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
    # (1-x)^{2s} - (1+x)^{2s} ~ -2(2s) x, so the bracket behaves like -4s x
    assert ratios[2] == pytest.approx(-4 * 0.75, rel=0.05)


def test_closed_form_validity_window():
    p = HalfLineProblem(0.75, RHS_INDICATOR)
    with pytest.raises(HalfSpaceError):
        closed_form_halfline(p, [0.6])
    p2 = HalfLineProblem(0.3, RHS_ONE)
    assert closed_form_halfline(p2, [0.25])[0] == pytest.approx(0.25**0.6)


# ---------------------------------------------------------------------------
# growth law
# ---------------------------------------------------------------------------


def test_boundary_growth_exponents():
    assert boundary_growth_exponent(0.25) == 0.5
    assert boundary_growth_exponent(0.5) == 1.0
    assert boundary_growth_exponent(0.9) == 1.0
    with pytest.raises(HalfSpaceError):
        boundary_growth_exponent(1.0)
