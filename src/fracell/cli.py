"""Batch front-end: `fracell <command> [--config path] [--key=value ...] [--out dir]`.

Commands: solve, kernel, extension, halfline, probe, converge.  Configs are
flat key=value text files; command-line --key=value pairs override them.  A
command reads every key of its table to compute or write something: assertion
tolerances are module constants next to their assertions, and the output
directory is `--out` (default fracell_out), not a key.  Every run writes one
report.json (sorted keys, no timestamps) holding the resolved-config hash,
the package version, the assertions and the results, plus CSV artifacts; the
exit status is 0 iff every assertion passed.  Outputs are a pure function of
the config (`solve --rhs=random` draws from its `seed`).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .grids import (
    BoundaryCondition,
    CoefficientField,
    DIRICHLET,
    Grid,
    GridError,
    GridFunction,
    l2_norm,
)
from .operators import assemble
from .spectral import (
    CompatibilityError,
    DenseMemoryError,
    _brief,
    _check_memory,
    eigendecompose,
    fractional_apply,
    fractional_solve,
    fractional_solve_sine,
    hs_energy_norm,
)
from .semigroup import (
    QuadratureError,
    SingularQuadrature,
    greens_function,
    greens_route_agreement,
    jump_kernel,
    kernel_log_fit,
    kernel_slope_fit,
)
from .extension import (
    ExtensionError,
    ExtensionMesh,
    dtn_constant_divform,
    extension_multipliers,
    solve_extension,
)
from .halfspace import (
    HalfLineProblem,
    RHS_INDICATOR,
    RHS_ONE,
    boundary_growth_exponent,
    closed_form_halfline,
    halfline_inverse_quadrature,
    interior_log_constant,
)
from .regularity import (
    CampanatoProbe,
    boundary_exponent,
    dirichlet_layer_split,
    dyadic_radii,
    harnack_quotient,
    interior_exponent,
    lp_spike,
)
from .io import (
    config_hash,
    write_eigen_csv,
    write_eigen_summary,
    write_eigenvectors,
    write_extension_csv,
    write_field_csv,
    write_grid_json,
    write_kernel_csv,
    write_modes_csv,
    write_oracle_csv,
    write_report_json,
)


def _s(default, hi=1.0 - 1e-9):
    return ("s", float, default, 1e-9, hi)


# One table per command of rows (key, kind, default, lo, hi), parsed in order when a
# RunConfig is built.  A kind is int, float, bool, str (a spec, parsed with its grid) or
# a tuple of choices, which may be ints.  An unset key without a default is None; a
# default or lo may be a function of the keys parsed before it.
_PROBLEM = (
    ("dim", (1, 2), 1), ("nodes", int, 130, 3),
    # the eigen gate's squared residuals (u n^2 / extent^2)^2 overflow near extent 1e-85, flush to 0 near 1e75
    ("extent", float, 1.0, 1e-12, 1e12),
    ("bc", ("dirichlet", "neumann"), "dirichlet"), ("coeff", str, "identity"),
)
_TABLES = {
    "solve": (("seed", int, 0, 0), *_PROBLEM, _s(0.5, 1.0), ("rhs", str, "ones"), ("eigenvectors", int, 3, 0)),
    "kernel": (
        *_PROBLEM, _s(0.5), ("kind", ("jump", "greens"), "jump"),
        ("fit_rmin", float), ("fit_rmax", float), ("margin", float), ("write_kernel", bool, False),
    ),
    "extension": (
        *_PROBLEM, _s(0.5), ("layers", int, 64, 5),  # dtn_extract fits 4 layers below the lid
        ("gamma", float), ("write_field", bool, False), ("u", ("phi1", "bump"), "phi1"),
    ),
    "halfline": (_s(0.25),),
    "probe": (
        ("probe", ("interior", "interior_lp", "boundary", "layer", "harnack")), _s(0.25),
        # harnack decomposes L: a coarser default grid
        ("nodes", int, lambda v: 257 if v["probe"] == "harnack" else 2**15 + 1, lambda v: 17 if v["probe"] == "harnack" else 9),
        ("alpha", float, 0.2, 1e-9, 1.0 - 1e-9), ("p", float, 3.0, 1.0),
        ("r_max", float, 0.03125, 1e-12), ("d_max", float, 0.01, 1e-12),
    ),
    "converge": (_s(0.5), ("nodes", int, 130, 9), ("layers", int, 64, 5), ("levels", int, 3, 2, 40)),
}
_VALUES = {command: namedtuple(command, [row[0] for row in rows]) for command, rows in _TABLES.items()}
_KEYS = {command: frozenset(values._fields) for command, values in _VALUES.items()}
COMMANDS = tuple(_TABLES)
_MEMORY_KEY = {"converge": "levels"}  # the key a DenseMemoryError names, else "nodes"


class ConfigError(ValueError):
    """Bad or missing configuration key; the message names it."""


def _value(key, val, parsed: dict, kind, default=None, lo=None, hi=None):
    """`key`'s value from its raw `val` (None when unset) by its table row."""
    if val is None:
        val = default(parsed) if callable(default) else default
    lo = lo(parsed) if callable(lo) else lo
    if isinstance(kind, tuple) and isinstance(kind[0], str):
        if val not in kind:
            raise ConfigError(f"key {key!r}: expected one of {kind}, got {val!r}")
        return val
    if val is None or kind is str:
        return val
    if kind is bool:
        val = str(val).lower()
        if val not in ("true", "false", "0", "1"):
            raise ConfigError(f"key {key!r}: expected true/false, got {val!r}")
        return val in ("true", "1")
    try:
        x = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: not a number: {val!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"key {key!r}: not a finite number: {val!r}")
    x_lo = lo if kind is float else None  # an int's lo is checked below
    if x_lo is not None and x < x_lo or hi is not None and x > hi:
        raise ConfigError(f"key {key!r}: value {x} outside [{x_lo}, {hi}]")
    if kind is float:
        return x
    if x != int(x):
        raise ConfigError(f"key {key!r}: expected an integer, got {x}")
    n = int(x)
    if lo is not None and n < lo:
        raise ConfigError(f"key {key!r}: value {n} below minimum {lo}")
    if kind is not int and n not in kind:
        raise ConfigError(f"key {key!r}: must be {' or '.join(map(str, kind))}")
    return n


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    values: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"key 'command': unknown command {self.command!r}")
        if unknown := sorted(set(self.params) - _KEYS[self.command]):
            key = unknown[0]
            if any(key in keys for keys in _KEYS.values()):
                raise ConfigError(f"key {key!r}: the {self.command} command does not read it")
            raise ConfigError(f"key {key!r}: unknown key")
        parsed = {}
        for key, *row in _TABLES[self.command]:
            parsed[key] = _value(key, self.params.get(key), parsed, *row)
        self.values = _VALUES[self.command](**parsed)

    def resolved(self) -> dict:
        """Canonical config for hashing/reporting."""
        return {"command": self.command, **{k: str(v) for k, v in self.params.items()}}


def parse_config_file(path) -> dict:
    out = {}
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln} of {path}: expected key = value")
        key, _, val = stripped.partition("=")
        out[key.strip()] = val.strip()
    return out


def _spec_number(key: str, spec: str, arg: str, kind: type):
    """The finite numeric argument of a `name:arg` spec, or a ConfigError naming `key`."""
    try:
        x = kind(arg)
        if math.isfinite(x):
            return x
    except ValueError:
        pass
    raise ConfigError(f"key {key!r}: bad number {arg!r} in spec {spec!r}")


def coefficient_from_spec(grid: Grid, spec: str) -> CoefficientField:
    name, _, arg = spec.partition(":")
    if name == "identity":
        return CoefficientField.identity(grid)
    if name == "constant":
        scale = _spec_number("coeff", spec, arg, float)
        return CoefficientField.constant(grid, scale * np.eye(grid.dim))
    if name == "diag":
        vals = [_spec_number("coeff", spec, v, float) for v in arg.split(",")]
        if grid.dim != len(vals):
            raise ConfigError(f"key 'coeff': diag needs {grid.dim} entries")
        return CoefficientField.constant(grid, np.diag(vals))
    if name == "sine":
        amp = _spec_number("coeff", spec, arg, float) if arg else 0.5
        if not -1 < amp < 1:
            raise ConfigError("key 'coeff': sine amplitude must lie in (-1,1)")
        L = grid.extents[0]
        return CoefficientField.from_callable(
            grid, lambda *xs: 1.0 + amp * np.sin(2 * np.pi * xs[0] / L)
        )
    raise ConfigError(f"key 'coeff': unknown coefficient spec {spec!r}")


def rhs_from_spec(grid: Grid, spec: str, bc: BoundaryCondition, seed: int) -> GridFunction:
    name, _, arg = spec.partition(":")
    if name == "ones":
        return GridFunction.ones(grid)
    if name == "sine":
        k = _spec_number("rhs", spec, arg, int) if arg else 1
        L = grid.extents[0]
        return GridFunction.from_callable(grid, lambda *xs: np.sin(k * np.pi * xs[0] / L))
    if name == "bump":
        L = grid.extents[0]
        return GridFunction.from_callable(
            grid, lambda *xs: (xs[0] * (L - xs[0])) ** 2 * (16.0 / L**4)
        )
    if name == "random":  # numpy.random is loaded here, by the one spec that draws
        vals = np.random.default_rng(seed).standard_normal(grid.shape)
        if bc.is_dirichlet:
            vals = vals * grid.interior_mask()
        else:
            vals = vals - vals.mean()
        return GridFunction(grid, vals)
    if name == "spike":
        p = _spec_number("rhs", spec, arg, float) if arg else 3.0
        if p == 0:
            raise ConfigError("key 'rhs': the spike exponent p must be nonzero")
        center = tuple(e / 2 for e in grid.extents)
        return lp_spike(grid, center, p)
    raise ConfigError(f"key 'rhs': unknown spec {spec!r}")


def _build_problem(v):
    # peaks at 24.3 floats per node in 1D, 36.2 in 2D; a first product, which builds the
    # operator's slot tables, at 16.5 and 32.4 (tracemalloc at 10^6 and 700^2 nodes)
    _check_memory((13 + 12 * v.dim) * v.nodes**v.dim, f"a {v.dim}D grid of {_brief(v.nodes**v.dim)} nodes and its operator")
    grid = Grid((v.extent,) * v.dim, (v.nodes,) * v.dim)
    bc = BoundaryCondition(v.bc)
    try:
        A = coefficient_from_spec(grid, v.coeff)
    except GridError as exc:  # a field that is not uniformly elliptic
        raise ConfigError(f"key 'coeff': {exc}") from None
    op = assemble(grid, A, bc)
    if not abs(op.matrix).max() <= 1e150:
        raise ConfigError("key 'coeff': operator entries (coefficient / spacing^2) above 1e150 overflow when squared")
    return grid, bc, A, op


def _assertion(name, value, target, tol, mode="le") -> dict:
    if mode == "le":
        ok = value <= target + tol
    elif mode == "abs":
        ok = abs(value - target) <= tol
    else:
        raise ValueError(mode)
    return {
        "name": name,
        "value": float(value),
        "target": float(target),
        "tolerance": float(tol),
        "mode": mode,
        "pass": bool(ok),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_solve(v, out: Path) -> tuple[list, dict]:
    grid, bc, A, op = _build_problem(v)
    f = rhs_from_spec(grid, v.rhs, bc, v.seed)
    basis = eigendecompose(op)
    try:
        u = fractional_solve(basis, f, v.s)
    except CompatibilityError as exc:
        failed = {**_assertion("solve_compatible_datum", math.inf, 0.0, 0.0), "detail": str(exc)}
        return [failed], {"error": str(exc)}
    back = fractional_apply(basis, u, v.s)
    # compare on the active nodes: the Dirichlet representation of f drops
    # boundary samples, the Neumann one its mean
    mask = basis.active_mask
    fv = f.values[mask]
    if not bc.is_dirichlet:
        fv = fv - fv.mean()
    diff = back.values[mask] - fv
    resid = float(np.linalg.norm(diff) / max(np.linalg.norm(fv), 1e-300))
    write_field_csv(out / "solution.csv", u)
    write_grid_json(out / "problem.json", grid, bc, v.coeff)
    write_eigen_csv(out / "spectrum.csv", basis)
    write_eigen_summary(out / "spectrum.json", basis)
    write_eigenvectors(out, basis, v.eigenvectors)
    assertions = [_assertion("solve_round_trip", resid, 0.0, 1e-8)]
    return assertions, {
        "solution_l2": l2_norm(u),
        "round_trip_residual": resid,
        "spectrum": {"min": basis.eigenvalues.min(), "max": basis.lambda_max},
    }


_SLOPE_TOL = {"jump": 0.15, "greens": 0.1}  # |fitted - predicted| power-law slope of the kernel


def _cmd_kernel(v, out: Path) -> tuple[list, dict]:
    grid, bc, A, op = _build_problem(v)
    s, kind, tol = v.s, v.kind, _SLOPE_TOL[v.kind]
    if kind == "greens" and not bc.is_dirichlet:
        raise ConfigError("key 'bc': the Green function needs bc=dirichlet (a Neumann spectrum has a zero mode)")
    window = {"r_min": v.fit_rmin, "r_max": v.fit_rmax, "interior_margin": v.margin}
    basis = eigendecompose(op)
    n = grid.dim
    assertions = []
    payload = {}
    if kind == "jump":
        q = SingularQuadrature.for_spectrum(s, basis.lambda_min_positive, basis.lambda_max)
        K = jump_kernel(basis, s, q)
        with _fit_needs_nodes():
            fit = kernel_slope_fit(K, **window)
        target = -(n + 2 * s)
        assertions.append(_assertion("jump_kernel_slope", fit.slope, target, tol, "abs"))
        assertions.append(_assertion("kernel_symmetry", K.symmetry_defect(), 0.0, 1e-10))
        payload["fit"] = asdict(fit)
    else:
        G = greens_function(basis, s)
        routes = greens_route_agreement(G)
        assertions.append(_assertion("greens_route_agreement", routes, 0.0, 1e-6))
        assertions.append(_assertion("greens_symmetry", G.symmetry_defect(), 0.0, 1e-10))
        if n == 2 * s:  # 1D, s = 1/2: logarithmic regime
            with _fit_needs_nodes():
                fit = kernel_log_fit(G, **window)
            assertions.append(_assertion("greens_log_r2", -fit.r2, -0.99, 0.0))
        else:
            with _fit_needs_nodes():
                fit = kernel_slope_fit(G, **window)
            target = -(n - 2 * s)
            assertions.append(_assertion("greens_slope", fit.slope, target, tol, "abs"))
        payload["fit"] = asdict(fit)
        payload["route_agreement"] = routes
    if v.write_kernel:
        write_kernel_csv(out / f"{kind}_kernel.csv", K if kind == "jump" else G)
    return assertions, payload


@contextmanager
def _fit_needs_nodes():
    """A fit with too few grid points in its window is a config error on 'nodes'."""
    try:
        yield
    except DenseMemoryError:
        raise
    except ValueError as exc:
        raise ConfigError(f"key 'nodes': too few grid points in the fit window: {exc}") from None


def _extension_mesh(grid, lam0, lam_max, s, layers, gamma=None) -> ExtensionMesh:
    """The graded cylinder mesh over `grid` for the spectrum [lam0, lam_max].  A grading
    the y-nodes cannot hold (gamma < 1, or y_1 underflowing), or whose DtN fit layers
    y_1..y_4 are so low that U - u rounds away ((sqrt(lam_max) y_4)^{2s} < 1e-12), is a
    config error on 'gamma', or on 's' for the default grading max(3, 1/s); y-nodes past
    memory (4 floats each) are one on 'layers'."""
    key = "s" if gamma is None else "gamma"
    try:
        _check_memory(4 * (layers + 1), f"a {_brief(layers)}-layer mesh")
        mesh = ExtensionMesh.build(grid, s, layers, gamma_mesh=gamma, lam0=lam0)
    except DenseMemoryError as exc:
        raise ConfigError(f"key 'layers': {exc}") from None
    except ExtensionError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    y4 = mesh.y_nodes[4]
    if (math.sqrt(lam_max) * y4) ** (2 * s) < 1e-12:
        raise ConfigError(f"key {key!r}: the DtN fit layers end at y={y4:.3g}, too low to resolve U - u")
    return mesh


def _extension_errors(basis, u: GridFunction, mesh: ExtensionMesh):
    """The relative error of the discrete extension's DtN map of u against
    L^s u and the relative defect of its energy identity, from the per-mode
    `extension_multipliers` g and e, and each mode's g / lambda^s - 1 and
    e / (h^dim d_s lambda^s) - 1."""
    s, d_s = mesh.s, dtn_constant_divform(mesh.s)
    g, e = extension_multipliers(mesh, basis.eigenvalues)
    target = fractional_apply(basis, u, s)
    dtn_err = l2_norm(basis.apply_fn(lambda lam: g, u) - target) / l2_norm(target)
    energy = float(np.sum(e * basis.coefficients(u) ** 2)) / basis.weight
    energy_ref = d_s * hs_energy_norm(basis, u, s) ** 2
    lam_s = basis.eigenvalues**s
    return dtn_err, abs(energy - energy_ref) / energy_ref, g / lam_s - 1.0, e / (basis.weight * d_s * lam_s) - 1.0


_DTN_TOL, _ENERGY_TOL = 2e-2, 1e-2  # relative DtN error against L^s u, relative energy-identity defect


def _cmd_extension(v, out: Path) -> tuple[list, dict]:
    grid, bc, A, op = _build_problem(v)
    if not bc.is_dirichlet:
        raise ConfigError("key 'bc': extension command drives the Dirichlet problem")
    if v.write_field and grid.dim != 1:
        raise ConfigError("key 'write_field': the extension field CSV covers 1D bases")
    basis = eigendecompose(op)
    mesh = _extension_mesh(grid, basis.lambda_min_positive, basis.lambda_max, v.s, v.layers, v.gamma)
    u = basis.eigenfunction(0) if v.u == "phi1" else rhs_from_spec(grid, "bump", bc, 0)
    dtn_err, energy_err, *defects = _extension_errors(basis, u, mesh)
    write_modes_csv(out / "extension_modes.csv", basis.eigenvalues, *defects)
    if v.write_field:
        write_extension_csv(out / "extension.csv", solve_extension(op, u, mesh, basis))
    assertions = [
        _assertion("extension_dtn_error", dtn_err, 0.0, _DTN_TOL),
        _assertion("extension_energy_identity", energy_err, 0.0, _ENERGY_TOL),
    ]
    payload = {
        "s": v.s,
        "mesh": {"layers": v.layers, "height": mesh.height, "gamma": mesh.gamma_mesh},
        "dtn_error": dtn_err,
        "energy_error": energy_err,
    }
    return assertions, payload


def _cmd_halfline(v, out: Path) -> tuple[list, dict]:
    s = v.s
    assertions = []
    payload = {"s": s}
    if s < 0.5:
        rhs, xs = RHS_ONE, np.geomspace(1e-3, 1e-1, 12)
    else:
        rhs, xs = RHS_INDICATOR, np.linspace(0.05, 0.45, 9)
    problem = HalfLineProblem(s, rhs)
    vals = halfline_inverse_quadrature(problem, xs)
    cf = closed_form_halfline(problem, xs)
    if s < 0.5:  # down to s = 1e-9 the values carry the slope 2s to ~1e-6 relative, checked to 1e-3 of 2s
        slope = float(np.polyfit(np.log(xs), np.log(vals), 1)[0])
        assertions.append(_assertion("halfline_growth_slope", slope, 2 * s, 1e-3 * 2 * s, "abs"))
        payload["slope"] = slope
    elif s == 0.5:
        c_fit = float(np.dot(vals, cf) / np.dot(cf, cf))
        resid = float(np.abs(vals - c_fit * cf).max() / np.abs(vals).max())
        c_oracle = interior_log_constant()
        assertions.append(_assertion("halfline_log_residual", resid, 0.0, 1e-6))
        assertions.append(_assertion("log_constant_oracle", c_oracle, 3.0 * math.log(3.0), 1e-8, "abs"))
        payload.update({"fitted_constant": c_fit, "residual": resid})
    else:
        ratio = vals / cf
        spread = float((ratio.max() - ratio.min()) / abs(ratio.mean()))
        assertions.append(_assertion("halfline_ratio_constancy", spread, 0.0, 1e-6))
        payload["ratio_mean"] = float(ratio.mean())
    write_oracle_csv(out / "halfline.csv", xs, vals, cf)
    return assertions, payload


_INTERIOR_TOL, _BOUNDARY_TOL = 0.1, 0.05  # |fitted - predicted| Holder exponent


def _cmd_probe(v, out: Path) -> tuple[list, dict]:
    which, s, alpha = v.probe, v.s, v.alpha
    # a sine-transform probe peaks at ~6 floats per node (tracemalloc at 2^15 + 1 and 2^17 + 1)
    _check_memory(8 * v.nodes, f"a 1D grid of {_brief(v.nodes)} nodes and its sine solves")
    grid = Grid((1.0,), (v.nodes,))
    h = grid.spacing[0]
    report = {"probe": which, "s": s}
    assertions = []

    if which in ("interior", "interior_lp"):
        if which == "interior":
            f = GridFunction.from_callable(grid, lambda x: np.abs(x - 0.5) ** alpha)
            target = alpha + 2 * s
            mode = "oscillation"
        else:
            f = lp_spike(grid, (0.5,), v.p)
            target = 2 * s - 1.0 / v.p
            mode = "linear" if target > 1.0 else "oscillation"
        u = fractional_solve_sine(grid, f, s)
        radii = dyadic_radii(grid, r_max=v.r_max, floor_cells=30.0)
        with _fit_needs_nodes():
            fit = interior_exponent(u, CampanatoProbe((0.5,), tuple(radii), mode=mode))
        assertions.append(_assertion("probe_exponent", fit.exponent, target, _INTERIOR_TOL, "abs"))
        report.update({"x0": [0.5], "fit": asdict(fit), "target": target, "tolerance": _INTERIOR_TOL})
    elif which == "boundary":
        u = fractional_solve_sine(grid, GridFunction.ones(grid), s)
        with _fit_needs_nodes():
            fit = boundary_exponent(u, (0.0,), d_min=30 * h, d_max=v.d_max)
        target = boundary_growth_exponent(s)
        assertions.append(_assertion("probe_exponent", fit.exponent, target, _BOUNDARY_TOL, "abs"))
        report.update({"x0": [0.0], "fit": asdict(fit), "target": target, "tolerance": _BOUNDARY_TOL})
    elif which == "layer":
        f = GridFunction.ones(grid)
        u = fractional_solve_sine(grid, f, s)
        growth = boundary_growth_exponent(s)
        with _fit_needs_nodes():
            fit_u = boundary_exponent(u, (0.0,), 30 * h, 0.01)
            split = dirichlet_layer_split(u, f, s, lambda d: d**growth, (0.0,), (30 * h, 0.005))
            fit_v = boundary_exponent(split, (0.0,), 30 * h, 0.01)
        gain = fit_v.exponent - fit_u.exponent
        assertions.append(_assertion("layer_split_improvement", -gain, 0.0, 0.0))
        report.update({"x0": [0.0], "exponent_u": fit_u.exponent, "exponent_v": fit_v.exponent, "improvement": gain})
    else:  # harnack
        op = assemble(grid, CoefficientField.identity(grid), DIRICHLET)
        basis = eigendecompose(op)
        f = GridFunction.from_callable(grid, lambda x: np.where((x > 0.05) & (x < 0.15), 1.0, 0.0))
        rep = harnack_quotient(basis, f, s, (0.6,), 0.2)
        assertions.append(_assertion("harnack_quotient_lower", -rep["quotient"], -1.0, 0.0))
        report.update(rep)
    return assertions, report


def _dirichlet_line_ends(grid: Grid) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the 1D Dirichlet identity operator on `grid`, in
    closed form: (4/h^2) sin^2(k pi h / 2) for k = 1 and n - 2."""
    h, n = grid.spacing[0], grid.shape[0]
    lam0, lam_max = (2 / h * np.sin(np.array([1, n - 2]) * np.pi * h / 2)) ** 2
    return float(lam0), float(lam_max)


def _cmd_converge(v, out: Path) -> tuple[list, dict]:
    s, nodes, layers, levels = v.s, v.nodes, v.layers, v.levels
    finest = (nodes - 1) * 2 ** (levels - 1) + 1  # no level allocates its grid, but it must index it
    if finest > 2**53:  # past it, node indices are no longer exact doubles
        raise ConfigError(f"key 'nodes': the finest of {levels} levels has {finest:.3g} nodes, above 2^53")
    # 24 floats per y-node of the finest mesh (its build and y-system); no operator is built
    _check_memory(24 * (layers * 2 ** (levels - 1) + 1), f"{levels} levels from {_brief(nodes)} nodes and {_brief(layers)} layers")
    errs, energy_errs = [0.0] * levels, [0.0] * levels
    for level in reversed(range(levels)):  # finest first: its mesh is checked before any level is solved
        g = Grid((1.0,), ((nodes - 1) * 2**level + 1,))
        lam0, lam_max = _dirichlet_line_ends(g)
        mesh = _extension_mesh(g, lam0, lam_max, s, layers * 2**level)
        (dtn,), (energy,) = extension_multipliers(mesh, lam0)  # phi_1: its two multipliers give both errors
        errs[level] = abs(dtn / lam0**s - 1.0)
        energy_errs[level] = abs(energy / (g.cell_volume * dtn_constant_divform(s) * lam0**s) - 1.0)
    order = float(-np.polyfit(np.log2([2**k for k in range(levels)]), np.log2(errs), 1)[0])
    decreasing = all(a > b for a, b in zip(energy_errs, energy_errs[1:]))
    assertions = [
        _assertion("dtn_convergence_order", -order, -0.8, 0.0),
        _assertion("energy_error_decreasing", 0.0 if decreasing else 1.0, 0.0, 0.0),
    ]
    payload = {
        "s": s,
        "mesh": {"base_nodes": nodes, "base_layers": layers, "refinements": levels - 1},
        "levels": levels,
        "dtn_errors": errs,
        "energy_errors": energy_errs,
        "observed_order": order,
    }
    return assertions, payload


_DISPATCH = {
    "solve": _cmd_solve,
    "kernel": _cmd_kernel,
    "extension": _cmd_extension,
    "halfline": _cmd_halfline,
    "probe": _cmd_probe,
    "converge": _cmd_converge,
}


@dataclass
class ExitReport:
    passed: bool
    assertions: list
    report_path: Path


def run(cfg: RunConfig, out_dir) -> ExitReport:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        assertions, payload = _DISPATCH[cfg.command](cfg.values, out)
    except DenseMemoryError as exc:
        raise ConfigError(f"key {_MEMORY_KEY.get(cfg.command, 'nodes')!r}: {exc}") from None
    except QuadratureError as exc:  # the CLI builds rules only: one whose range over- or underflows at this s
        raise ConfigError(f"key 's': {exc}") from None
    passed = all(a["pass"] for a in assertions)
    resolved = cfg.resolved()
    report = {
        "command": cfg.command,
        "config": resolved,
        "config_sha256": config_hash(resolved),
        "version": __version__,
        "assertions": assertions,
        "pass": passed,
        "results": payload,
    }
    report_path = out / "report.json"
    write_report_json(report_path, report)
    return ExitReport(passed, assertions, report_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracell",
        description="fractional elliptic operator experiments (solve, kernels, extension, half-line oracles, regularity probes, convergence)",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default="fracell_out", help="output directory (default fracell_out)")
    args, rest = parser.parse_known_args(argv)

    params = {}
    try:
        if args.config:
            params.update(parse_config_file(args.config))
        for item in rest:
            if not item.startswith("--") or "=" not in item:
                raise ConfigError(f"override {item!r}: expected --key=value")
            key, _, val = item[2:].partition("=")
            params[key] = val
        cfg = RunConfig(args.command, params)
        result = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for a in result.assertions:
        status = "PASS" if a["pass"] else "FAIL"
        print(f"[{status}] {a['name']}: value={a['value']:.6g} target={a['target']:.6g} tol={a['tolerance']:.2g}")
    print(f"report: {result.report_path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
