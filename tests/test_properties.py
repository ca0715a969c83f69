"""Property-based checks of the structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fracell import (
    CoefficientField,
    DIRICHLET,
    Grid,
    GridFunction,
    assemble,
    eigendecompose,
    fractional_apply,
    heat_apply,
    l2_norm,
)
from fracell.halfspace import reflect

N = 17
GRID = Grid((1.0,), (N,))
OP = assemble(GRID, CoefficientField.identity(GRID), DIRICHLET)
BASIS = eigendecompose(OP)

finite_vals = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
field_values = arrays(np.float64, N, elements=finite_vals)


def _interior(vals):
    out = np.array(vals, dtype=float)
    out[0] = out[-1] = 0.0
    return GridFunction(GRID, out)


@settings(max_examples=25, deadline=None)
@given(field_values, field_values, finite_vals, finite_vals)
def test_fractional_apply_linearity(a, b, ca, cb):
    u, v = _interior(a), _interior(b)
    lhs = fractional_apply(BASIS, ca * u + cb * v, 0.6)
    rhs = ca * fractional_apply(BASIS, u, 0.6) + cb * fractional_apply(BASIS, v, 0.6)
    scale = max(l2_norm(rhs), 1.0)
    assert l2_norm(lhs - rhs) <= 1e-9 * scale


@settings(max_examples=25, deadline=None)
@given(field_values, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_heat_semigroup_law(a, t1, t2):
    u = _interior(a)
    two = heat_apply(BASIS, heat_apply(BASIS, u, t1), t2)
    one = heat_apply(BASIS, u, t1 + t2)
    assert l2_norm(two - one) <= 1e-10 * max(l2_norm(u), 1.0)


@settings(max_examples=25, deadline=None)
@given(field_values)
def test_heat_apply_is_contraction(a):
    u = _interior(a)
    out = heat_apply(BASIS, u, 0.05)
    assert l2_norm(out) <= l2_norm(u) * (1.0 + 1e-12) + 1e-12


@settings(max_examples=25, deadline=None)
@given(field_values)
def test_reflection_parity_exact(a):
    vals = np.array(a)
    vals[0] = 0.0
    u = GridFunction(GRID, vals)
    odd, even = reflect(u, "odd").values, reflect(GridFunction(GRID, np.array(a)), "even").values
    assert np.array_equal(odd[N - 1 :: -1], -odd[N - 1 :])
    assert np.array_equal(even[N - 1 :: -1], even[N - 1 :])


PROBE_GRID = Grid((1.0,), (129,))
PROBE_VALUES = arrays(np.float64, 129, elements=finite_vals)


@settings(max_examples=15, deadline=None)
@given(PROBE_VALUES, st.floats(min_value=0.1, max_value=100.0))
def test_campanato_slopes_scale_invariant(a, c):
    from fracell.regularity import CampanatoProbe, dyadic_radii, interior_exponent

    vals = np.array(a) + np.linspace(0, 1, 129) ** 2  # ensure nonconstant
    u = GridFunction(PROBE_GRID, vals)
    probe = CampanatoProbe((0.5,), tuple(dyadic_radii(PROBE_GRID, 0.25, floor_cells=4.0)))
    f1 = interior_exponent(u, probe)
    f2 = interior_exponent(c * u, probe)
    if not (f1.saturated or f2.saturated):
        assert f2.slope == pytest.approx(f1.slope, abs=1e-9)
