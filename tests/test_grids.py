import json
import math

import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    Grid,
    GridFunction,
)
from fracell.grids import GridError
from fracell.io import write_field_csv, write_grid_json


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


@pytest.mark.parametrize(
    "extent, dim", [(1e-200, 2), (1e160, 1), (1e160, 2), (math.nan, 1)], ids=["tiny-2d", "huge-1d", "huge-2d", "nan"]
)
def test_grid_refuses_a_spacing_whose_square_leaves_the_doubles(extent, dim):
    # h^2 underflowed to 0 (a ZeroDivisionError in `assemble`), overflowed (an
    # OverflowError in the eigen factors) or is NaN; 1e-150 and 1e150 boxes still build
    with pytest.raises(GridError, match="spacing .* out of range"):
        Grid((extent,) * dim, (9,) * dim)
    for ok in (1e-150, 1e150):
        assert Grid((ok,) * dim, (9,) * dim).cell_volume > 0


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


@pytest.mark.parametrize("a, c", [(1e-16, 1.0), (1.0, 1e-17), (1e-100, 1.0)])
def test_eigen_range_of_a_diagonal_field_is_exact(a, c):
    # exact for a diagonal sample, where mid - rad cancels to 5.55e-17, 0 and 0
    g = Grid((1.0, 1.0), (5, 5))
    assert CoefficientField.constant(g, np.diag([a, c])).eigen_range == (min(a, c), max(a, c))


def _negative_sample(g):
    faces = np.ones((g.shape[0] - 1, 1, 1))
    faces[3] = -0.1
    return CoefficientField(g, (faces,))


@pytest.mark.parametrize(
    "shape, build",
    [
        # indefinite, yet positive on 16 sampled directions
        ((5, 5), _rotated(math.pi / 32, [-0.005, 1.0])),
        # one negative sample among positive ones
        ((9,), _negative_sample),
    ],
    ids=["indefinite-between-directions", "negative-sample"],
)
def test_non_positive_field_refused_at_construction(shape, build):
    with pytest.raises(GridError, match="not positive definite on samples"):
        build(Grid((1.0,) * len(shape), shape))


def test_coefficient_symmetry_enforced():
    g = Grid((1.0, 1.0), (4, 4))
    bad = np.array([[1.0, 0.3], [0.2, 1.0]])
    with pytest.raises(GridError):
        CoefficientField.from_callable(
            g, lambda x, y: np.broadcast_to(bad, x.shape + (2, 2)).copy()
        )


def test_field_csv_round_trip(tmp_path):
    g = Grid((1.0, 2.0), (4, 5))
    u = GridFunction.from_callable(g, lambda x, y: np.sin(x) + y**2)
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    assert path.read_text(encoding="utf-8").startswith("i,j,x,y,value\n")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    x, y = g.coords()
    expected = [*np.indices(g.shape), x, y, u.values]
    assert rows.shape == (u.values.size, 5)
    for col, want in zip(rows.T, expected):
        assert np.array_equal(col, np.ravel(want))


def test_grid_json_round_trip(tmp_path):
    g = Grid((1.0, 2.0), (4, 5))
    path = tmp_path / "grid.json"
    write_grid_json(path, g, DIRICHLET, "sine:0.5")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data == {"dim": 2, "extents": [1.0, 2.0], "nodes": [4, 5], "bc": "dirichlet", "coefficient": "sine:0.5"}
    assert Grid(tuple(data["extents"]), tuple(data["nodes"])) == g
