import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracell import (
    CoefficientField,
    DIRICHLET,
    NEUMANN,
    Grid,
    GridFunction,
    assemble,
)
from fracell.grids import GridError
from fracell.operators import _stiffness

from conftest import scipy_csr


def test_unit_interval_stencil():
    g = Grid((1.0,), (5,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    h = 0.25
    M = op.matrix.toarray()
    assert np.allclose(np.diag(M), 2.0 / h**2)
    assert np.allclose(np.diag(M, 1), -1.0 / h**2)
    assert np.allclose(np.diag(M, -1), -1.0 / h**2)


def test_neumann_annihilates_constants():
    for dim, shape in [(1, (9,)), (2, (6, 7))]:
        g = Grid((1.0,) * dim, shape)
        A = CoefficientField.from_callable(
            g, lambda *xs: 1.0 + 0.3 * np.cos(2 * np.pi * xs[0])
        )
        op = assemble(g, A, NEUMANN)
        resid = np.abs(op.matrix @ np.ones(op.size)).max()
        assert resid <= 1e-12 * np.abs(op.matrix.data).max()
        # and u = c maps to 0 as a grid function
        out = op.embed(op.matrix @ op.restrict(GridFunction.ones(g) * 4.2))
        assert np.abs(out.values).max() <= 1e-10


def test_dirichlet_eigenvalue_closed_form():
    g = Grid((1.0,), (34,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    h = g.spacing[0]
    lam = np.sort(sla.eigvalsh(op.matrix.toarray()))
    k = np.arange(1, op.size + 1)
    expected = 4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2
    assert np.allclose(lam, expected, rtol=1e-12)


def test_apply_zero_and_discrete_eigenpair():
    g = Grid((1.0,), (17,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    z = op.embed(op.matrix @ op.restrict(GridFunction.zeros(g)))
    assert np.all(z.values == 0.0)
    h = g.spacing[0]
    u = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x))
    out = op.embed(op.matrix @ op.restrict(u))
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2
    interior = g.interior_mask()
    assert np.allclose(out.values[interior], lam * u.values[interior], rtol=1e-12)


def test_symmetry_and_m_matrix_structure():
    g = Grid((1.0, 1.0), (8, 8))
    A = CoefficientField.from_callable(g, lambda x, y: 1.0 + 0.4 * x * y)
    op = assemble(g, A, DIRICHLET)
    assert abs(op.matrix - op.matrix.T).max() == 0.0
    dense = op.matrix.toarray()
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 0.0


def test_full_tensor_coefficient_assembles_symmetric():
    g = Grid((1.0, 1.0), (7, 7))
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    A = CoefficientField.constant(g, mat)
    op = assemble(g, A, DIRICHLET)
    assert abs(op.matrix - op.matrix.T).max() == 0.0
    lam = sla.eigvalsh(op.matrix.toarray())
    assert lam.min() > 0.0


def test_dirichlet_maximum_principle(rng):
    g = Grid((1.0,), (34,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    for _ in range(5):
        f = np.abs(rng.standard_normal(op.size))
        u = spla.spsolve(scipy_csr(op.matrix).tocsc(), f)
        assert u.min() >= -1e-14


def test_eigenvalue_refinement_order():
    # k-th discrete eigenvalue converges to (k pi)^2 at order >= 1.9
    errs = []
    for n in (33, 65):
        g = Grid((1.0,), (n,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        lam = np.sort(sla.eigvalsh(op.matrix.toarray()))[:3]
        exact = (np.arange(1, 4) * np.pi) ** 2
        errs.append(np.abs(lam - exact) / exact)
    order = np.log2(np.asarray(errs[0]) / np.asarray(errs[1]))
    assert order.min() >= 1.9


def test_assembly_rejects_small_grid_and_bad_coefficient():
    with pytest.raises(GridError):
        Grid((1.0,), (2,))
    g = Grid((1.0,), (9,))
    with pytest.raises(GridError):
        CoefficientField.from_callable(g, lambda x: x - 0.5)  # not positive
        # samples change sign -> refused where the field is built


def _rotated_field(grid, theta0=0.4, ratio=0.3):
    """A = R(theta) diag(1, ratio) R(theta)^T with a position-dependent angle."""

    def fn(x, y):
        th = theta0 + 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        c, s = np.cos(th), np.sin(th)
        a = np.empty(x.shape + (2, 2))
        a[..., 0, 0] = c * c + ratio * s * s
        a[..., 1, 1] = s * s + ratio * c * c
        a[..., 0, 1] = a[..., 1, 0] = (1.0 - ratio) * c * s
        return a

    return CoefficientField.from_callable(grid, fn)


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 1.0), (0.7, -1.3)])
def test_cross_term_energy_of_linear_field(a, b):
    # u = a x + b y has the same difference quotients on every face and the
    # same averaged gradient (a, b) in every cell, so its discrete energy is
    # a closed-form sum over the sampled coefficients.
    g = Grid((1.0, 2.0), (9, 13))
    A = _rotated_field(g)
    op = assemble(g, A, NEUMANN)
    x, y = g.coords()
    u = (a * x + b * y).ravel()
    vol = g.cell_volume
    Ax, Ay = A.faces
    a12 = 0.25 * (Ax[:, :-1, 0, 1] + Ax[:, 1:, 0, 1] + Ay[:-1, :, 0, 1] + Ay[1:, :, 0, 1])
    expected = (
        vol * Ax[:, :, 0, 0].sum() * a**2
        + vol * Ay[:, :, 1, 1].sum() * b**2
        + 2.0 * vol * a12.sum() * a * b
    )
    energy = vol * (u @ (op.matrix @ u))
    assert energy == pytest.approx(expected, rel=1e-12)


def _stiffness_2d_loops(grid, A):
    """Face-by-face and cell-by-cell reference assembly of the 2D stiffness."""
    nx, ny = grid.shape
    hx, hy = grid.spacing
    vol = hx * hy
    Ax, Ay = A.faces
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for (i, j), w in np.ndenumerate((vol / hx**2) * Ax[:, :, 0, 0]):
        a, b = i * ny + j, (i + 1) * ny + j
        for r, c, v in ((a, a, w), (b, b, w), (a, b, -w), (b, a, -w)):
            add(r, c, v)
    for (i, j), w in np.ndenumerate((vol / hy**2) * Ay[:, :, 1, 1]):
        a, b = i * ny + j, i * ny + j + 1
        for r, c, v in ((a, a, w), (b, b, w), (a, b, -w), (b, a, -w)):
            add(r, c, v)
    a12 = 0.25 * (Ax[:, :-1, 0, 1] + Ax[:, 1:, 0, 1] + Ay[:-1, :, 0, 1] + Ay[1:, :, 0, 1])
    gx = 0.5 / hx * np.array([-1.0, 1.0, -1.0, 1.0])
    gy = 0.5 / hy * np.array([-1.0, -1.0, 1.0, 1.0])
    elem = np.outer(gx, gy) + np.outer(gy, gx)
    for (i, j), a in np.ndenumerate(a12):
        c = vol * a
        if c == 0.0:
            continue
        idx = [i * ny + j, (i + 1) * ny + j, i * ny + j + 1, (i + 1) * ny + j + 1]
        for p in range(4):
            for q in range(4):
                if c * elem[p, q] != 0.0:
                    add(idx[p], idx[q], c * elem[p, q])
    n = nx * ny
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("field", ["identity", "rotated"])
def test_stiffness_2d_matches_loop_reference(field):
    # the stencil sums in the loop's duplicate order, so the CSR arrays agree bit for bit
    g = Grid((1.0, 2.0), (9, 13))
    A = CoefficientField.identity(g) if field == "identity" else _rotated_field(g)
    got = _stiffness(g, A, NEUMANN)
    ref = _stiffness_2d_loops(g, A)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def _coo_assemble(grid, A, bc):
    """The face-by-face COO assembly the CSR fill replaced: triplets per face
    and per cell, `tocsr` sums the duplicates, the inactive rows and columns
    are cut out and the result is divided by the cell volume."""

    def faces(a, b, w):
        return (
            np.stack([a, b, a, b], axis=1).ravel(),
            np.stack([a, b, b, a], axis=1).ravel(),
            np.stack([w, w, -w, -w], axis=1).ravel(),
        )

    if grid.dim == 1:
        w = A.faces[0][:, 0, 0] / grid.spacing[0]
        diag = np.zeros(w.size + 1)
        diag[:-1] += w
        diag[1:] += w
        K = sp.diags([-w, diag, -w], offsets=[-1, 0, 1], format="csr")
    else:
        (nx, ny), (hx, hy) = grid.shape, grid.spacing
        vol = hx * hy
        Ax, Ay = A.faces
        nid = np.arange(nx * ny).reshape(nx, ny)
        x_faces = faces(nid[:-1, :].ravel(), nid[1:, :].ravel(), ((vol / hx**2) * Ax[:, :, 0, 0]).ravel())
        y_faces = faces(nid[:, :-1].ravel(), nid[:, 1:].ravel(), ((vol / hy**2) * Ay[:, :, 1, 1]).ravel())
        a12 = 0.25 * (Ax[:, :-1, 0, 1] + Ax[:, 1:, 0, 1] + Ay[:-1, :, 0, 1] + Ay[1:, :, 0, 1])
        gx = 0.5 / hx * np.array([-1.0, 1.0, -1.0, 1.0])
        gy = 0.5 / hy * np.array([-1.0, -1.0, 1.0, 1.0])
        elem = np.outer(gx, gy) + np.outer(gy, gx)
        corners = np.stack([nid[:-1, :-1], nid[1:, :-1], nid[:-1, 1:], nid[1:, 1:]], axis=-1).reshape(-1, 4)
        cell_vals = (vol * a12).reshape(-1, 1, 1) * elem
        keep = cell_vals != 0.0
        shape = cell_vals.shape
        cross = (
            np.broadcast_to(corners[:, :, None], shape)[keep],
            np.broadcast_to(corners[:, None, :], shape)[keep],
            cell_vals[keep],
        )
        rows, cols, vals = (np.concatenate(parts) for parts in zip(x_faces, y_faces, cross))
        K = sp.coo_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny)).tocsr()
    idx = np.flatnonzero(grid.active_mask(bc).ravel())
    M = (K[np.ix_(idx, idx)] / grid.cell_volume).tocsr()
    M.sum_duplicates()
    return M


def _cross_field(grid, where):
    """A rotated field with A12 as is ("full"), zero ("none") or zero on x < L/2 ("half")."""

    def fn(x, y):
        th = 0.4 + 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        c, s = np.cos(th), np.sin(th)
        keep = {"full": 1.0, "none": 0.0, "half": x >= 0.5 * grid.extents[0]}[where]
        a = np.empty(x.shape + (2, 2))
        a[..., 0, 0] = c * c + 0.3 * s * s
        a[..., 1, 1] = s * s + 0.3 * c * c
        a[..., 0, 1] = a[..., 1, 0] = np.where(keep, 0.7 * c * s, 0.0)
        return a

    return CoefficientField.from_callable(grid, fn)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("cross", ["full", "none", "half"])
@pytest.mark.parametrize(
    "extents, shape",
    [((1.0, 1.0), (5, 5)), ((1.0, 2.5), (9, 17)), ((0.3, 1.0), (33, 12)), ((1.0, 1.0), (8, 8)), ((1.0, 1.0), (24, 24)), ((1.0, 1.0), (128, 128))],
    ids=str,
)
def test_assemble_matches_the_coo_assembly_bit_for_bit(extents, shape, cross, bc):
    g = Grid(extents, shape)
    A = _cross_field(g, cross)
    got, ref = assemble(g, A, bc).matrix, _coo_assemble(g, A, bc)
    assert got.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN], ids=["dirichlet", "neumann"])
def test_assemble_1d_matches_the_tridiagonal_assembly_bit_for_bit(bc):
    g = Grid((1.7,), (130,))
    A = CoefficientField.from_callable(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    got, ref = assemble(g, A, bc).matrix, _coo_assemble(g, A, bc)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_assemble_2d_builds_no_coo_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembly built a COO matrix")

    for name in ("coo_matrix", "coo_array"):
        monkeypatch.setattr(sp, name, refuse)
    g = Grid((1.0, 1.0), (24, 24))
    for bc in (DIRICHLET, NEUMANN):
        assert assemble(g, _rotated_field(g), bc).matrix.nnz > 0


def _reference_operators():
    """1D, 2D 5-point and 2D 9-point (cross-term) operators under both conditions."""
    cases = []
    for bc in (DIRICHLET, NEUMANN):
        g1 = Grid((1.7,), (130,))
        cases.append(assemble(g1, CoefficientField.from_callable(g1, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)), bc))
        g2 = Grid((1.0, 2.5), (13, 11))
        cases.append(assemble(g2, CoefficientField.from_callable(g2, lambda x, y: 1.0 + 0.4 * x * y), bc))
        g3 = Grid((1.0, 1.0), (24, 24))
        cases.append(assemble(g3, _rotated_field(g3), bc))
    return cases


@pytest.mark.parametrize("op", _reference_operators(), ids=["1d-dirichlet", "5pt-dirichlet", "9pt-dirichlet", "1d-neumann", "5pt-neumann", "9pt-neumann"])
def test_csr_matches_scipy_bit_for_bit(op, rng):
    # SciPy is the reference: the slot walk sums each row from 0 in CSR order, as SciPy does,
    # on a vector, a column-contiguous block (V.T, V C-ordered) and a row-contiguous block;
    # 300 vectors span more than one row block of the walk
    M, ref = op.matrix, scipy_csr(op.matrix)
    assert M.indices.dtype == M.indptr.dtype == np.int32
    x, V = rng.standard_normal(op.size), rng.standard_normal((300, op.size))
    assert np.array_equal(M @ x, ref @ x)
    assert np.array_equal(M @ V.T, ref @ V.T)
    assert np.array_equal(M @ np.ascontiguousarray(V.T), ref @ np.ascontiguousarray(V.T))
    assert M.row_sum_norm() == abs(ref).sum(axis=1).max()
    assert abs(M).max() == abs(ref).max()
    assert abs(M - M.T).max() == abs(ref - ref.T).max() == 0.0
    assert np.array_equal(M.T.toarray(), ref.T.toarray())
    assert np.array_equal(M.toarray(), ref.toarray())


def test_csr_difference_drops_zeros_and_refuses_another_pattern():
    # one pattern: the entries that cancel are dropped, as SciPy drops them
    from fracell.operators import _CSR

    A = sp.random(40, 40, density=0.15, random_state=1, format="csr")
    B = A.copy()
    B.data[::2] *= 0.5
    ref = A - B
    got = _CSR(A.data, A.indices, A.indptr, A.shape) - _CSR(B.data, B.indices, B.indptr, B.shape)
    assert got.nnz == ref.nnz < A.nnz
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    C = sp.random(40, 40, density=0.15, random_state=2, format="csr")
    with pytest.raises(ValueError, match="patterns"):
        got - _CSR(C.data, C.indices, C.indptr, C.shape)


def test_csr_max_propagates_nan():
    g = Grid((1.0,), (9,))
    M = assemble(g, CoefficientField.identity(g), DIRICHLET).matrix
    M.data[3] = np.nan
    assert np.isnan(abs(M).max()) and np.isnan(M.row_sum_norm())
