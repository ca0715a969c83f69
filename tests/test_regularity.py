import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    Grid,
    GridFunction,
    assemble,
    eigendecompose,
    fractional_solve_sine,
)
from fracell.regularity import (
    CampanatoProbe,
    ProbeError,
    boundary_exponent,
    dirichlet_layer_split,
    dyadic_radii,
    harnack_quotient,
    interior_exponent,
    lp_spike,
)

FINE = 2**15 + 1


@pytest.fixture(scope="module")
def fine_grid():
    return Grid((1.0,), (FINE,))


# ---------------------------------------------------------------------------
# Campanato machinery
# ---------------------------------------------------------------------------


def test_probe_validation():
    g = Grid((1.0,), (129,))
    with pytest.raises(ProbeError):
        CampanatoProbe((0.5,), (0.2, 0.1, 0.05))  # too few radii
    with pytest.raises(ProbeError):
        CampanatoProbe((0.5,), (0.1, 0.2, 0.05, 0.01))  # not decreasing
    probe = CampanatoProbe((0.9,), tuple(dyadic_radii(g, 0.25)))
    u = GridFunction.ones(g)
    with pytest.raises(ProbeError, match="largest ball exits the grid"):
        interior_exponent(u, probe)


def test_self_calibration_gate():
    # the probe, at the same radius window the theorem fits use, must
    # recover 2s from the closed-form half-line profile within 0.02
    g = Grid((2.0,), (FINE,))
    for s in (0.15, 0.25, 0.4):
        u = GridFunction.from_callable(g, lambda x: np.abs(x - 1.0) ** (2 * s))
        probe = CampanatoProbe((1.0,), tuple(dyadic_radii(g, 0.0625, floor_cells=30)))
        fit = interior_exponent(u, probe)
        assert abs(fit.exponent - 2 * s) <= 0.02


def test_exponent_fits_scale_invariant(fine_grid):
    f = GridFunction.from_callable(fine_grid, lambda x: np.abs(x - 0.5) ** 0.2)
    u = fractional_solve_sine(fine_grid, f, 0.25)
    probe = CampanatoProbe((0.5,), tuple(dyadic_radii(fine_grid, 0.03125, floor_cells=30)))
    f1 = interior_exponent(u, probe)
    f2 = interior_exponent(173.0 * u, probe)
    assert f2.slope == pytest.approx(f1.slope, abs=1e-12)
    assert f2.intercept != pytest.approx(f1.intercept, abs=1e-3)


def test_affine_saturates_at_ceiling():
    g = Grid((1.0,), (513,))
    u = GridFunction.from_callable(g, lambda x: 2.0 * x + 1.0)
    probe = CampanatoProbe((0.5,), tuple(dyadic_radii(g, 0.125)), mode="linear")
    fit = interior_exponent(u, probe)
    assert fit.saturated
    assert fit.exponent >= 2.0


# ---------------------------------------------------------------------------
# theorem-level probes
# ---------------------------------------------------------------------------


def test_interior_exponent_calpha(fine_grid):
    for alpha, s in [(0.2, 0.25), (0.3, 0.3)]:
        f = GridFunction.from_callable(fine_grid, lambda x: np.abs(x - 0.5) ** alpha)
        u = fractional_solve_sine(fine_grid, f, s)
        probe = CampanatoProbe((0.5,), tuple(dyadic_radii(fine_grid, 0.03125, floor_cells=30)))
        fit = interior_exponent(u, probe)
        assert abs(fit.exponent - (alpha + 2 * s)) <= 0.1


def test_interior_exponent_lp(fine_grid):
    s, p = 0.75, 3.0
    f = lp_spike(fine_grid, (0.5,), p)
    u = fractional_solve_sine(fine_grid, f, s)
    probe = CampanatoProbe(
        (0.5,),
        tuple(dyadic_radii(fine_grid, 0.03125, floor_cells=30)),
        mode="linear",
    )
    fit = interior_exponent(u, probe)
    assert abs(fit.exponent - (2 * s - 1.0 / p)) <= 0.1


def test_boundary_exponents(fine_grid):
    h = fine_grid.spacing[0]
    for s, target in [(0.25, 0.5), (0.75, 1.0)]:
        u = fractional_solve_sine(fine_grid, GridFunction.ones(fine_grid), s)
        fit = boundary_exponent(u, (0.0,), d_min=30 * h, d_max=0.01)
        assert abs(fit.exponent - target) <= 0.05


def test_boundary_exponent_errors(fine_grid):
    u = GridFunction.zeros(fine_grid)
    with pytest.raises(ProbeError):
        boundary_exponent(u, (0.0,), 1e-3, 1e-2)
    with pytest.raises(ProbeError):
        boundary_exponent(GridFunction.ones(fine_grid), (0.5,), 1e-3, 1e-2)


def test_neumann_boundary_no_layer():
    # smooth datum under Neumann walls: no dist^{2s} boundary layer; the
    # inward profile behaves like the interior solution (slope ~ ceiling,
    # far above min(2s,1) = 0.5)
    g = Grid((1.0,), (258,))
    from fracell import NEUMANN, fractional_solve

    op = assemble(g, CoefficientField.identity(g), NEUMANN)
    basis = eigendecompose(op)
    f = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x))
    u = fractional_solve(basis, f, 0.25)
    h = g.spacing[0]
    offset = GridFunction(g, u.values - u.values[0] + 1.0)
    fit = boundary_exponent(offset, (0.0,), 2 * h, 0.02)
    assert abs(fit.exponent) <= 0.05  # flat profile: no singular layer


def test_layer_split(fine_grid):
    s = 0.25
    h = fine_grid.spacing[0]
    f = GridFunction.ones(fine_grid)
    u = fractional_solve_sine(fine_grid, f, s)
    fit_u = boundary_exponent(u, (0.0,), 30 * h, 0.01)
    v = dirichlet_layer_split(u, f, s, lambda d: d**0.5, (0.0,), (30 * h, 0.005))
    fit_v = boundary_exponent(v, (0.0,), 30 * h, 0.01)
    assert fit_v.exponent > fit_u.exponent + 0.1


def test_layer_split_zero_boundary_datum(fine_grid):
    s = 0.25
    f = GridFunction.from_callable(fine_grid, lambda x: x * (1 - x))
    u = fractional_solve_sine(fine_grid, f, s)
    v = dirichlet_layer_split(u, f, s, lambda d: d**0.5, (0.0,), (1e-3, 5e-3))
    assert np.array_equal(v.values, u.values)


def test_layer_split_additive(fine_grid):
    s = 0.25
    h = fine_grid.spacing[0]
    f = GridFunction.ones(fine_grid)
    u1 = fractional_solve_sine(fine_grid, f, s)
    u2 = fractional_solve_sine(
        fine_grid, GridFunction.from_callable(fine_grid, lambda x: 1.0 + x), s
    )
    w = lambda d: d**0.5
    window = (30 * h, 0.005)
    v1 = dirichlet_layer_split(u1, f, s, w, (0.0,), window)
    v2 = dirichlet_layer_split(u2, f, s, w, (0.0,), window)
    v12 = dirichlet_layer_split(u1 + u2, f, s, w, (0.0,), window)
    assert np.allclose(v12.values, (v1 + v2).values, atol=1e-12)


# ---------------------------------------------------------------------------
# Harnack quotient
# ---------------------------------------------------------------------------


def _harnack_setup(nodes):
    g = Grid((1.0,), (nodes,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    f = GridFunction.from_callable(
        g, lambda x: np.where((x > 0.05) & (x < 0.15), 1.0, 0.0)
    )
    return basis, f


def test_harnack_quotient_basic():
    basis, f = _harnack_setup(257)
    rep = harnack_quotient(basis, f, 0.5, (0.6,), 0.2)
    assert rep["quotient"] >= 1.0
    # invariance under positive scaling
    rep2 = harnack_quotient(basis, 5.0 * f, 0.5, (0.6,), 0.2)
    assert rep2["quotient"] == pytest.approx(rep["quotient"], rel=1e-12)


def test_harnack_quotient_stable_under_refinement():
    q = []
    for nodes in (257, 513):
        basis, f = _harnack_setup(nodes)
        q.append(harnack_quotient(basis, f, 0.5, (0.6,), 0.2)["quotient"])
    assert abs(q[1] - q[0]) / q[0] <= 0.2


def test_harnack_rejects_bad_witness():
    basis, f = _harnack_setup(129)
    g = basis.grid
    bad = GridFunction.ones(g)  # intersects the ball
    with pytest.raises(ProbeError):
        harnack_quotient(basis, bad, 0.5, (0.6,), 0.2)
    negative = GridFunction(g, -f.values)
    with pytest.raises(ProbeError):
        harnack_quotient(basis, negative, 0.5, (0.6,), 0.2)


def test_lp_spike_truncated_at_grid_scale():
    g = Grid((1.0,), (129,))
    f = lp_spike(g, (0.5,), 3.0)
    assert np.isfinite(f.values).all()
    h = g.spacing[0]
    assert f.values.max() == pytest.approx(h ** (-1.0 / 3.0 + 0.01), rel=1e-12)
