"""CSV / JSON emission for grids, fields, spectra, kernels and reports.

CSV uses '.' decimals, no locale, floats with 17 significant digits.
JSON reports are emitted with sorted keys and no timestamps, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .grids import BoundaryCondition, Grid, GridFunction

__all__ = [
    "fmt",
    "write_field_csv",
    "write_grid_json",
    "write_eigen_csv",
    "write_eigen_summary",
    "write_eigenvectors",
    "write_probe_sweep_csv",
    "write_kernel_csv",
    "write_extension_csv",
    "write_modes_csv",
    "write_oracle_csv",
    "write_report_json",
    "config_hash",
]


def fmt(x: float) -> str:
    """17-significant-digit decimal representation."""
    return format(float(x), ".17g")


def _rows(template: str, *columns) -> str:
    """One `template` line per entry of the equally long columns, all formatted by a
    single `%`: "%.17g" % x is `fmt(x)`, and "%d" prints an integral float as `int`."""
    values = np.column_stack([np.ravel(c) for c in columns]).ravel().tolist()
    return (template * (len(values) // len(columns))) % tuple(values)


def write_field_csv(path, u: GridFunction) -> None:
    """Nodal field as CSV: 1D header i,x,value; 2D header i,j,x,y,value."""
    grid, dim = u.grid, u.grid.dim
    body = _rows("%d," * dim + "%.17g," * dim + "%.17g\n", *np.indices(grid.shape), *grid.coords(), u.values)
    Path(path).write_text(",".join([*"ij"[:dim], *"xy"[:dim], "value"]) + "\n" + body, encoding="utf-8")


def write_grid_json(path, grid: Grid, bc: BoundaryCondition, coefficient: str) -> None:
    payload = {
        "dim": grid.dim,
        "extents": [float(e) for e in grid.extents],
        "nodes": list(grid.shape),
        "bc": bc.kind,
        "coefficient": coefficient,
    }
    write_report_json(path, payload)


def write_eigen_csv(path, basis) -> None:
    body = _rows("%d,%.17g\n", np.arange(basis.size), basis.eigenvalues)
    Path(path).write_text("k,lambda\n" + body, encoding="utf-8")


def write_eigen_summary(path, basis) -> None:
    write_report_json(
        path,
        {
            "count": int(basis.size),
            "lambda_min": float(basis.eigenvalues.min()),
            "lambda_max": float(basis.eigenvalues.max()),
            "bc": basis.bc.kind,
        },
    )


def write_eigenvectors(dirpath, basis, count: int) -> list[Path]:
    """Per-mode eigenvector CSVs (field format), eigenvector_<k>.csv."""
    dirpath = Path(dirpath)
    paths = []
    for k in range(min(count, basis.size)):
        p = dirpath / f"eigenvector_{k}.csv"
        write_field_csv(p, basis.eigenfunction(k))
        paths.append(p)
    return paths


def write_probe_sweep_csv(path, rows: list[dict]) -> None:
    """Aggregate probe-sweep table: one row per (probe, parameters) case."""
    header = ["probe", "s", "alpha", "p", "exponent", "target", "tolerance", "pass"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row.get("probe", "")),
                    fmt(row["s"]) if row.get("s") is not None else "",
                    fmt(row["alpha"]) if row.get("alpha") is not None else "",
                    fmt(row["p"]) if row.get("p") is not None else "",
                    fmt(row["exponent"]),
                    fmt(row["target"]),
                    fmt(row["tolerance"]),
                    str(bool(row["pass"])).lower(),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_kernel_csv(path, kernel) -> None:
    """Kernel matrix as (i, j, value) triplets over active-node pairs,
    streamed row by row: memory stays O(N) for the N^2 lines."""
    cols = np.arange(len(kernel.entries))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,value\n")
        for i, row in enumerate(kernel.entries):
            fh.write(_rows("%d,%d,%.17g\n", np.full(cols.size, i), cols, row))


def write_extension_csv(path, field) -> None:
    """Extension field as (i, j, x, y, U); 1D bases."""
    mesh = field.mesh
    if mesh.base.dim != 1:
        raise ValueError("extension CSV export covers 1D bases")
    j, i = np.indices(field.values.shape)
    body = _rows("%d,%d,%.17g,%.17g,%.17g\n", i, j, mesh.base.axis_coords(0)[i], mesh.y_nodes[j], field.values)
    Path(path).write_text("i,j,x,y,U\n" + body, encoding="utf-8")


def write_modes_csv(path, lam, dtn_defect, energy_defect) -> None:
    """Per base mode: lambda, g/lambda^s - 1 and e/(h^dim d_s lambda^s) - 1 (`extension_multipliers`)."""
    body = _rows("%.17g,%.17g,%.17g\n", lam, dtn_defect, energy_defect)
    Path(path).write_text("lambda,dtn_ratio_minus_1,energy_ratio_minus_1\n" + body, encoding="utf-8")


def write_oracle_csv(path, xs, values, closed_form) -> None:
    values, closed_form = np.asarray(values, dtype=float), np.asarray(closed_form, dtype=float)
    ratio = np.divide(values, closed_form, out=np.full(values.shape, np.nan), where=closed_form != 0)
    body = _rows("%.17g,%.17g,%.17g,%.17g\n", xs, values, closed_form, ratio)
    Path(path).write_text("x,value,closed_form,ratio\n" + body, encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_report_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def config_hash(items: dict) -> str:
    """sha256 of the canonicalized key=value listing."""
    blob = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
