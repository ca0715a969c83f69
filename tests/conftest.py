import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    NEUMANN,
    Grid,
    GridFunction,
    assemble,
    eigendecompose,
)


@pytest.fixture(scope="session")
def grid_1d():
    return Grid((1.0,), (130,))


@pytest.fixture(scope="session")
def op_dirichlet(grid_1d):
    return assemble(grid_1d, CoefficientField.identity(grid_1d), DIRICHLET)


@pytest.fixture(scope="session")
def basis_dirichlet(op_dirichlet):
    return eigendecompose(op_dirichlet)


@pytest.fixture(scope="session")
def op_neumann(grid_1d):
    return assemble(grid_1d, CoefficientField.identity(grid_1d), NEUMANN)


@pytest.fixture(scope="session")
def basis_neumann(op_neumann):
    return eigendecompose(op_neumann)


@pytest.fixture(scope="session")
def op_variable(grid_1d):
    A = CoefficientField.from_callable(
        grid_1d, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)
    )
    return assemble(grid_1d, A, DIRICHLET)


@pytest.fixture(scope="session")
def basis_variable(op_variable):
    return eigendecompose(op_variable)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_dirichlet_field(op, rng) -> GridFunction:
    return op.embed(rng.standard_normal(op.size))


def scipy_csr(matrix):
    """The operator's CSR arrays wrapped as a `scipy.sparse.csr_matrix`, for tests that
    need SciPy's sparse API or take SciPy as the reference."""
    import scipy.sparse as sp

    return sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
