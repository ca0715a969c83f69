import numpy as np
import pytest

from fracell import CoefficientField, DIRICHLET, Grid, GridFunction, assemble, eigendecompose, greens_function
from fracell.io import fmt, write_field_csv, write_kernel_csv


def _kernel_2d(n):
    g = Grid((1.0, 1.0), (n, n))
    op = assemble(g, CoefficientField.from_callable(g, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x)), DIRICHLET)
    return greens_function(eigendecompose(op), 0.5)


def _joined_kernel_csv(kernel) -> str:
    # the all-lines-in-memory form the streamed writer must reproduce byte for byte
    lines = ["i,j,value"]
    n = kernel.entries.shape[0]
    for i in range(n):
        for j in range(n):
            lines.append(f"{i},{j},{fmt(kernel.entries[i, j])}")
    return "\n".join(lines) + "\n"


def test_kernel_csv_bytes_match_the_joined_lines(tmp_path):
    K = _kernel_2d(13)
    path = tmp_path / "kernel.csv"
    write_kernel_csv(path, K)
    assert path.read_bytes() == _joined_kernel_csv(K).encode("utf-8")


def test_kernel_csv_streams_its_rows(tmp_path):
    # 14^2 = 196 rows of ~5 KB each: a file of ~1 MB, many row buffers long
    import tracemalloc

    K = _kernel_2d(16)
    path = tmp_path / "kernel.csv"
    tracemalloc.start()
    try:
        write_kernel_csv(path, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


_AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3, 1e16, -7.0]


@pytest.mark.parametrize("shape", [(12,), (4, 3)], ids=str)
def test_field_csv_matches_per_value_fmt(tmp_path, shape):
    g = Grid((1.0,) * len(shape), shape)
    u = GridFunction(g, np.reshape(_AWKWARD, shape))
    lines = ["i,x,value" if len(shape) == 1 else "i,j,x,y,value"]
    for idx in np.ndindex(shape):
        coords = [fmt(g.axis_coords(d)[k]) for d, k in enumerate(idx)]
        lines.append(",".join([*map(str, idx), *coords, fmt(u.values[idx])]))
    path = tmp_path / "field.csv"
    write_field_csv(path, u)
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
