import math

import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    Grid,
    GridFunction,
    hs_seminorm,
)
from fracell.grids import GridError
from fracell.io import read_field_csv, read_grid_json, write_field_csv, write_grid_json


def test_grid_spacing_and_coords():
    g = Grid((2.0,), (5,))
    assert g.spacing == (0.5,)
    assert np.allclose(g.axis_coords(0), [0.0, 0.5, 1.0, 1.5, 2.0])
    # coordinates reproducible exactly from the index
    for i in range(5):
        assert g.axis_coords(0)[i] == i * (2.0 / 4)


def test_grid_boundary_mask_marks_faces():
    g = Grid((1.0, 1.0), (4, 5))
    mask = g.boundary_mask()
    assert mask[0].all() and mask[-1].all()
    assert mask[:, 0].all() and mask[:, -1].all()
    assert not mask[1:-1, 1:-1].any()
    assert mask.sum() == g.num_nodes - 2 * 3


def test_grid_validation():
    with pytest.raises(GridError):
        Grid((1.0,), (2,))
    with pytest.raises(GridError):
        Grid((-1.0,), (5,))
    with pytest.raises(GridError):
        Grid((1.0, 1.0, 1.0), (4, 4, 4))


def test_grid_function_shape_check():
    g = Grid((1.0,), (5,))
    with pytest.raises(GridError):
        GridFunction(g, np.zeros(4))


def _rotated(theta, eigs):
    """Constant field A = R(theta) diag(eigs) R(theta)^T, sampled at the faces."""
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    mat = R @ np.diag(eigs) @ R.T
    return lambda g: CoefficientField.from_callable(g, lambda x, y: np.broadcast_to(mat, x.shape + (2, 2)).copy())


@pytest.mark.parametrize(
    "shape, build, lo, hi, atol",
    [
        ((9,), CoefficientField.identity, 1.0, 1.0, 0.0),
        ((5, 5), lambda g: CoefficientField.constant(g, np.diag([2.0, 0.5])), 0.5, 2.0, 0.0),
        # faces at odd multiples of 1/12 include the extrema x = 1/4, 3/4
        ((7,), lambda g: CoefficientField.from_callable(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)), 0.5, 1.5, 1e-14),
        # eigenvectors between 16 sampled directions: a direction search would report 0.3051, 0.9949
        ((5, 5), _rotated(0.7, [1.0, 0.3]), 0.3, 1.0, 1e-15),
    ],
    ids=["identity", "diagonal", "oscillating", "rotated"],
)
def test_ellipticity_report_is_exact(shape, build, lo, hi, atol):
    # `eigen_range` reports the exact eigenvalue extremes of the face samples
    A = build(Grid((1.0,) * len(shape), shape))
    observed_lo, observed_hi = A.eigen_range
    assert abs(observed_lo - lo) <= atol and abs(observed_hi - hi) <= atol
    assert (A.lambda1, A.lambda2) == A.eigen_range


def _negative_sample(g):
    faces = np.ones((g.shape[0] - 1, 1, 1))
    faces[3] = -0.1
    return CoefficientField(g, (faces,), 1.0, 2.0)


@pytest.mark.parametrize(
    "shape, build",
    [
        # indefinite, yet positive on 16 sampled directions
        ((5, 5), _rotated(math.pi / 32, [-0.005, 1.0])),
        # declared constants do not stand in for the samples
        ((9,), _negative_sample),
    ],
    ids=["indefinite-between-directions", "declared-constants"],
)
def test_non_positive_field_refused_at_construction(shape, build):
    with pytest.raises(GridError, match="not positive definite on samples"):
        build(Grid((1.0,) * len(shape), shape))


def test_inverted_declared_constants_are_refused():
    g = Grid((1.0,), (9,))
    faces = np.full((8, 1, 1), 2.0)
    with pytest.raises(GridError, match="0 < Lambda1 <= Lambda2"):
        CoefficientField(g, (faces,), 2.0, 1.0)


def test_coefficient_symmetry_enforced():
    g = Grid((1.0, 1.0), (4, 4))
    bad = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(GridError):
        CoefficientField.from_callable(
            g, lambda x, y: np.broadcast_to(bad, x.shape + (2, 2)).copy()
        )


def test_hs_seminorm_constant_is_zero():
    g = Grid((1.0,), (17,))
    assert hs_seminorm(GridFunction.ones(g) * 3.7, 0.5) == 0.0


def test_hs_seminorm_rejects_bad_exponent():
    g = Grid((1.0,), (9,))
    u = GridFunction.ones(g)
    with pytest.raises(ValueError):
        hs_seminorm(u, 1.0)
    with pytest.raises(ValueError):
        hs_seminorm(u, 0.0)


def test_hs_seminorm_matches_brute_force():
    # independent O(n^2) python double loop as the oracle
    g = Grid((1.0,), (21,))
    u = GridFunction.from_callable(g, lambda x: np.where(x > 0.5, 1.0, 0.0))
    s = 0.25
    x = g.axis_coords(0)
    h = g.spacing[0]
    acc = 0.0
    for i in range(21):
        for j in range(21):
            if i == j:
                continue
            acc += (u.values[i] - u.values[j]) ** 2 / abs(x[i] - x[j]) ** (1 + 2 * s)
    oracle = acc * h * h
    assert hs_seminorm(u, s) == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("shape", [(600,), (23, 29)])
def test_hs_seminorm_blocked_sum_matches_dense(shape, rng):
    # dense N x N reference; both grids span several 256-row blocks
    g = Grid((1.0,) * len(shape), shape)
    u = GridFunction(g, rng.standard_normal(shape))
    pts = np.stack([c.ravel() for c in g.coords()], axis=1)
    vals = u.values.ravel()
    dist2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(dist2, 1.0)
    for s in (0.1, 0.5, 0.9):
        dense = g.cell_volume**2 * np.sum((vals[:, None] - vals[None, :]) ** 2 / dist2 ** (0.5 * g.dim + s))
        assert hs_seminorm(u, s) == pytest.approx(dense, rel=1e-13)


def test_hs_seminorm_triangle_inequality(rng):
    g = Grid((1.0,), (17,))
    for _ in range(5):
        u = GridFunction(g, rng.standard_normal(17))
        v = GridFunction(g, rng.standard_normal(17))
        su = math.sqrt(hs_seminorm(u, 0.4))
        sv = math.sqrt(hs_seminorm(v, 0.4))
        suv = math.sqrt(hs_seminorm(u + v, 0.4))
        assert suv <= su + sv + 1e-12


def test_field_csv_round_trip(tmp_path):
    g = Grid((1.0, 2.0), (4, 5))
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) + y**2)
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    back = read_field_csv(path, g)
    assert np.array_equal(back.values, u.values)


def test_grid_json_round_trip(tmp_path):
    g = Grid((1.0, 2.0), (4, 5))
    path = tmp_path / "grid.json"
    write_grid_json(path, g, DIRICHLET, "sine:0.5")
    g2, bc, coeff = read_grid_json(path)
    assert g2 == g
    assert bc == DIRICHLET
    assert coeff == "sine:0.5"
