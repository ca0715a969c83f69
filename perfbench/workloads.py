"""The three benchmark workloads: ordered case lists and their oracle checks.

A workload is one client running its cases one after another (closed
loop).  CLI cases go through `fracell.cli.run`, which is what
`fracell <cmd>` and the `scripts/` sweeps call; API cases call the public
package API directly.  Every case returns `Check` records: whether it
passed and, where one exists, its relative error against the spectral
oracle or a closed form.

The seed feeds `seed=` to the CLI cases that draw random data and draws the
data of the API cases.  It never changes the case list.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fracell.cli
from fracell import (
    DIRICHLET,
    NEUMANN,
    CoefficientField,
    ExtensionMesh,
    ForcingData,
    Grid,
    GridFunction,
    SingularQuadrature,
    assemble,
    balakrishnan_apply,
    eigendecompose,
    fractional_apply,
    fractional_solve,
    l2_norm,
    solve_extension_forced,
)
from fracell.extension import dtn_constant_divform

FORCED_TOL = 1e-3  # forced-extension trace vs oracle (5.4e-5 at 513x256)
BALAKRISHNAN_TOL = 5e-2  # eigen-free backward-Euler route (1.3e-2 at s=0.75)
ASSEMBLY_TOL = 1e-12  # symmetry and constant-annihilation defects, relative


@dataclass
class Check:
    name: str
    ok: bool
    err: float | None = None  # relative error against an oracle or closed form
    detail: str = ""


@dataclass(frozen=True)
class Case:
    """One step of a workload.  `data` holds everything the seed decides;
    `fn(data, out_dir)` returns the checks and, for a CLI case, the sha256
    of its `report.json`."""

    name: str
    fn: Callable[[dict, Path], tuple[list[Check], str | None]]
    data: dict = field(default_factory=dict)


@dataclass
class CaseResult:
    name: str
    seconds: float
    checks: list[Check]
    digest: str | None


# ---------------------------------------------------------------------------
# CLI cases
# ---------------------------------------------------------------------------

# assertion name -> relative error against an oracle, from (value, target)
_ORACLE_ASSERTIONS = {
    "solve_round_trip": lambda v, t: v,
    "greens_route_agreement": lambda v, t: v,
    "extension_dtn_error": lambda v, t: v,
    "extension_energy_identity": lambda v, t: v,
    "halfline_log_residual": lambda v, t: v,
    "halfline_ratio_constancy": lambda v, t: v,
    "halfline_growth_slope": lambda v, t: abs(v - t) / abs(t),
    "log_constant_oracle": lambda v, t: abs(v - t) / abs(t),
}


def _oracle_errors(report: dict) -> list[float]:
    errs = [
        _ORACLE_ASSERTIONS[a["name"]](a["value"], a["target"])
        for a in report["assertions"]
        if a["name"] in _ORACLE_ASSERTIONS
    ]
    if report["command"] == "converge":  # finest level against the oracle
        results = report["results"]
        errs += [results["dtn_errors"][-1], results["energy_errors"][-1]]
    return errs


def _run_cli(data: dict, out: Path) -> tuple[list[Check], str]:
    cfg = fracell.cli.RunConfig(data["command"], dict(data["params"]))
    res = fracell.cli.run(cfg, out_dir=out)
    blob = res.report_path.read_bytes()
    errs = _oracle_errors(json.loads(blob))
    failed = [a["name"] for a in res.assertions if not a["pass"]]
    check = Check(
        "assertions",
        res.passed,
        max(errs) if errs else None,
        "failed: " + ",".join(failed) if failed else "",
    )
    return [check], hashlib.sha256(blob).hexdigest()


def cli_case(command: str, seed: int | None = None, **params) -> Case:
    """A `fracell <command> --key=value ...` run; `seed` is passed only to
    commands that draw random data and is left out of the case name."""
    name = command + "".join(f" {k}={v}" for k, v in params.items())
    cfg = {k: str(v) for k, v in params.items()}
    if seed is not None:
        cfg["seed"] = str(seed)
    return Case(name, _run_cli, {"command": command, "params": cfg})


# ---------------------------------------------------------------------------
# API cases
# ---------------------------------------------------------------------------


def _forced_extension(data: dict, out: Path) -> tuple[list[Check], None]:
    """Flux-forced extension: its trace must equal L^{-s} f / d_s."""
    s, nodes, layers = data["s"], data["nodes"], data["layers"]
    grid = Grid((1.0,), (nodes,))
    op = assemble(grid, CoefficientField.identity(grid), DIRICHLET)
    basis = eigendecompose(op)
    coeffs = np.zeros(basis.size)
    coeffs[: len(data["modes"])] = data["modes"]
    f = basis.synthesize(coeffs)
    mesh = ExtensionMesh.build(grid, s, layers, lam0=basis.lambda_min_positive)
    U = solve_extension_forced(op, mesh, ForcingData(None, f))
    ref = fractional_solve(basis, f, s) * (1.0 / dtn_constant_divform(s))
    err = l2_norm(U.trace() - ref) / l2_norm(ref)
    return [Check("forced_trace_vs_oracle", err <= FORCED_TOL, err)], None


def _sine_coefficient(grid: Grid) -> CoefficientField:
    # the CLI's coeff=sine: 1 + 0.5 sin(2 pi x / L)
    return CoefficientField.from_callable(grid, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))


def _balakrishnan(data: dict, out: Path) -> tuple[list[Check], None]:
    """Eigen-free Balakrishnan apply against the spectral `fractional_apply`."""
    s, nodes, amp = data["s"], data["nodes"], data["amplitude"]
    grid = Grid((1.0,), (nodes,))
    op = assemble(grid, _sine_coefficient(grid), DIRICHLET)
    basis = eigendecompose(op)
    u = GridFunction.from_callable(grid, lambda x: amp * np.sin(np.pi * x))
    q = SingularQuadrature.for_spectrum(s, basis.lambda_min_positive, basis.lambda_max)
    got = balakrishnan_apply(op, u, s, q)
    ref = fractional_apply(basis, u, s)
    err = float(np.abs(got.values - ref.values).max() / np.abs(ref.values).max())
    return [Check("balakrishnan_vs_oracle", err <= BALAKRISHNAN_TOL, err)], None


def _anisotropic_field(grid: Grid, theta0: float, ratio: float) -> CoefficientField:
    """A = R(theta) diag(1, ratio) R(theta)^T with a position-dependent angle,
    so the off-diagonal (cross) entries are nonzero almost everywhere."""

    def fn(x, y):
        th = theta0 + 0.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        c, s = np.cos(th), np.sin(th)
        a = np.empty(x.shape + (2, 2))
        a[..., 0, 0] = c * c + ratio * s * s
        a[..., 1, 1] = s * s + ratio * c * c
        a[..., 0, 1] = a[..., 1, 0] = (1.0 - ratio) * c * s
        return a

    return CoefficientField.from_callable(grid, fn)


def _assemble_cross(data: dict, out: Path) -> tuple[list[Check], None]:
    """Cross-term assembly: symmetric, and under Neumann it kills constants."""
    n = data["nodes"]
    grid = Grid((1.0, 1.0), (n, n))
    A = _anisotropic_field(grid, data["theta0"], data["ratio"])
    checks = []
    for bc in (DIRICHLET, NEUMANN):
        M = assemble(grid, A, bc).matrix
        scale = float(abs(M).max())
        sym = float(abs(M - M.T).max()) / scale
        checks.append(Check(f"{bc.kind}_symmetric", sym <= ASSEMBLY_TOL, sym))
        if not bc.is_dirichlet:
            kill = float(np.abs(M @ np.ones(M.shape[0])).max()) / scale
            checks.append(Check("neumann_constants", kill <= ASSEMBLY_TOL, kill))
    return checks, None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _extension_route(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    modes = [1.0, *(0.25 * rng.standard_normal(3))]
    return [
        cli_case("converge", s=0.5, nodes=130, layers=64, levels=4),
        cli_case("extension", s=0.25, nodes=513, layers=256, u="bump"),
        cli_case("extension", dim=2, nodes=32, layers=24, s=0.75),
        Case(
            "api solve_extension_forced 513x256 s=0.5",
            _forced_extension,
            {"s": 0.5, "nodes": 513, "layers": 256, "modes": modes},
        ),
    ]


def _dense_spectral(seed: int) -> list[Case]:
    return [
        cli_case("kernel", kind="jump", dim=2, nodes=40, s=0.25),
        cli_case("kernel", kind="jump", dim=2, nodes=40, s=0.75),
        cli_case("kernel", kind="greens", dim=2, nodes=40, s=0.25, fit_rmax=0.12),
        cli_case("solve", seed, dim=2, nodes=40, coeff="sine", rhs="random"),
        cli_case("solve", seed, dim=2, nodes=48, bc="neumann", coeff="sine", rhs="random"),
        cli_case("solve", nodes=1025, coeff="sine"),
    ]


# the six cases of scripts/probe_sweep.py, at its default n = 2^15 + 1
PROBE_SWEEP = [
    {"probe": "interior", "alpha": "0.2", "s": "0.25"},
    {"probe": "interior", "alpha": "0.3", "s": "0.3"},
    {"probe": "interior_lp", "p": "3.0", "s": "0.75"},
    {"probe": "boundary", "s": "0.25"},
    {"probe": "boundary", "s": "0.75"},
    {"probe": "layer", "s": "0.25"},
]


def _fast_paths(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = [cli_case("probe", **p) for p in PROBE_SWEEP]
    cases.append(cli_case("probe", probe="harnack"))
    cases += [cli_case("halfline", s=s) for s in (0.25, 0.5, 0.75)]
    cases.append(cli_case("kernel", kind="jump", nodes=130))
    cases.append(cli_case("kernel", kind="greens", nodes=130))
    # The seed draws a sign and a power-of-two amplitude, not the shape of u.
    # The eigen-free route's error grows with frequency, and at s=0.75 it is
    # dominated by rounding in e^{-tL}u - u at small t: seeded higher modes,
    # or amplitudes that do not scale exactly, move it by up to ~40 %
    # between seeds, which would drown any bound on oracle_err_max.
    for s in (0.25, 0.5, 0.75):
        amp = float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-1, 2))
        cases.append(
            Case(
                f"api balakrishnan_apply(op) n=130 coeff=sine s={s}",
                _balakrishnan,
                {"s": s, "nodes": 130, "amplitude": amp},
            )
        )
    cases.append(
        Case(
            "api assemble 128^2 cross terms dirichlet+neumann",
            _assemble_cross,
            {"nodes": 128, "theta0": float(rng.uniform(0, math.pi)), "ratio": float(rng.uniform(0.2, 0.5))},
        )
    )
    return cases


WORKLOADS = {
    "extension_route": _extension_route,
    "dense_spectral": _dense_spectral,
    "fast_paths": _fast_paths,
}


def cases(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](seed)


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def run_pass(case_list: list[Case], out_root: Path) -> list[CaseResult]:
    """Run every case once, in order.  A case that raises is recorded as one
    failed check and the pass goes on."""
    results = []
    for i, case in enumerate(case_list):
        t0 = time.perf_counter()
        try:
            checks, digest = case.fn(case.data, out_root / f"{i:02d}_{_slug(case.name)}")
        except Exception as exc:  # a benchmark pass must survive a failing case
            checks, digest = [Check("raised", False, None, f"{type(exc).__name__}: {exc}")], None
        results.append(CaseResult(case.name, time.perf_counter() - t0, checks, digest))
    return results
