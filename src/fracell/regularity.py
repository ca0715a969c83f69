"""Campanato/Morrey probes: Holder exponents from mean-oscillation decay.

The regularity statements are probed, not proved: the decay
(1/r^n) int_{B_r} |u - c|^2 ~ r^{2 kappa} is turned into a least-squares
slope of log(mean oscillation^2) against log r over a dyadic radius list,
and slope/2 estimates the Holder exponent kappa.  Constants of the
underlying estimates are never asserted, only recorded.

Modes:
    "oscillation"  subtract the per-ball mean
    "linear"       subtract the per-ball best affine function (gradient
                   regimes, exponents in (1, 2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, _node_points
from .spectral import EigenBasis, fractional_solve

__all__ = [
    "CampanatoProbe",
    "ExponentFit",
    "interior_exponent",
    "boundary_exponent",
    "dirichlet_layer_split",
    "harnack_quotient",
    "dyadic_radii",
    "lp_spike",
]

MODES = ("oscillation", "linear")


class ProbeError(ValueError):
    """Invalid probe configuration or degenerate data."""


def dyadic_radii(grid: Grid, r_max: float | None = None, floor_cells: float = 4.0) -> list[float]:
    """Dyadic radius list from r_max (default: a quarter of the box) down
    to `floor_cells` grid cells."""
    h = max(grid.spacing)
    if r_max is None:
        r_max = min(grid.extents) / 4.0
    radii = []
    r = r_max
    while r >= floor_cells * h:
        radii.append(r)
        r *= 0.5
    return radii


@dataclass(frozen=True)
class CampanatoProbe:
    """Ball family around a center with a mode."""

    center: tuple[float, ...]
    radii: tuple[float, ...]
    mode: str = "oscillation"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ProbeError(f"unknown mode {self.mode!r}")
        if len(self.radii) < 4:
            raise ProbeError("need at least 4 radii for a fit")
        r = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(r) >= 0):
            raise ProbeError("radii must be strictly decreasing")
        object.__setattr__(self, "radii", tuple(float(x) for x in r))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    rmse: float
    exponent: float
    radii_used: tuple[float, ...]
    saturated: bool = False


def _distances(grid: Grid, center) -> tuple[np.ndarray, np.ndarray]:
    """The flattened node points and their distances to `center`."""
    pts = _node_points(grid)
    c = np.asarray(center, dtype=float)
    return pts, np.sqrt(np.sum((pts - c[None, :]) ** 2, axis=1))


def _ball_masks(grid: Grid, center, radii):
    pts, dist = _distances(grid, center)
    c = np.asarray(center, dtype=float)
    masks = []
    for r in radii:
        m = dist <= r + 1e-12
        if not m.any():
            raise ProbeError(f"ball of radius {r} contains no grid nodes")
        masks.append(m)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if np.any(c - max(radii) < lo - 1e-12) or np.any(c + max(radii) > hi + 1e-12):
        raise ProbeError("largest ball exits the grid")
    return pts, masks


def _ball_integrals(f: GridFunction, probe: CampanatoProbe) -> list:
    """int_{B_r} |f - c|^2 per probe radius.

    Mode "oscillation" takes for c the mean over each ball; mode "linear"
    subtracts the best affine function per ball instead.
    """
    pts, masks = _ball_masks(f.grid, probe.center, probe.radii)
    vals = f.values.ravel()
    integrals = []
    for m in masks:
        v = vals[m]
        if probe.mode == "oscillation":
            w = v - float(np.mean(v))
        else:
            dx = pts[m] - np.asarray(probe.center)[None, :]
            A = np.concatenate([np.ones((dx.shape[0], 1)), dx], axis=1)
            coef, *_ = np.linalg.lstsq(A, v, rcond=None)
            w = v - A @ coef
        integrals.append(float(np.mean(w**2)) * m.sum() * f.grid.cell_volume)
    return integrals


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept and rmse of the least-squares line through (log x, log y)."""
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    resid = np.log(y) - (slope * np.log(x) + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def interior_exponent(u: GridFunction, probe: CampanatoProbe) -> ExponentFit:
    """Least-squares slope of log(mean oscillation^2) against log r;
    slope/2 estimates the Holder exponent at the probe center.

    The oscillation subtracts the best constant (or affine) function per
    ball; no external center estimate enters, so singular profiles carry no
    centering bias.  Values at the round-off floor mark the fit as
    saturated (resolution ceiling), reported rather than fitted.
    """
    rs = np.asarray(probe.radii)
    n = u.grid.dim
    osc2 = np.asarray([i / r**n for r, i in zip(probe.radii, _ball_integrals(u, probe))])
    scale = float(np.max(np.abs(u.values))) ** 2
    floor = 1e-24 * max(scale, 1e-300)
    if np.any(osc2 <= floor):
        cap = 1.0 if probe.mode == "oscillation" else 2.0
        return ExponentFit(math.inf, -math.inf, 0.0, cap, tuple(rs), saturated=True)
    slope, intercept, rmse = _loglog_fit(rs, osc2)
    return ExponentFit(slope, intercept, rmse, slope / 2.0, tuple(rs))


def boundary_exponent(
    u: GridFunction,
    boundary_point: tuple[float, ...],
    d_min: float,
    d_max: float,
) -> ExponentFit:
    """Growth exponent at a boundary face: slope of log|u| against
    log(dist) along the inward normal within [d_min, d_max]."""
    grid = u.grid
    x0 = np.asarray(boundary_point, dtype=float)
    axis, inward = _boundary_face(grid, x0)
    coords = grid.axis_coords(axis)
    line = tuple(slice(None) if d == axis else int(round(x0[d] / grid.spacing[d])) for d in range(grid.dim))
    profile = u.values[line]
    dist = inward * (coords - x0[axis])
    sel = (dist >= d_min) & (dist <= d_max)
    dist, profile = dist[sel], profile[sel]
    if dist.size < 4:
        raise ProbeError("fewer than 4 nodes in the fit window")
    if np.all(np.abs(profile) < 1e-300):
        raise ProbeError("field vanishes identically near the boundary point")
    good = np.abs(profile) > 0
    slope, intercept, rmse = _loglog_fit(dist[good], np.abs(profile[good]))
    return ExponentFit(slope, intercept, rmse, slope, tuple(dist))


def dirichlet_layer_split(
    u: GridFunction,
    f: GridFunction,
    s: float,
    w_oracle,
    boundary_point: tuple[float, ...],
    fit_window: tuple[float, float],
) -> GridFunction:
    """Subtract the half-space boundary-layer profile: v = u - beta w.

    w_oracle(dist) is the unit-coefficient profile (dist^{min(2s,1)} up to
    the log case); beta is the least-squares projection of u onto w over
    the fit window along the inward normal, scaled to the whole field
    through dist(x).  With f vanishing at the boundary point no layer
    exists and u is returned unchanged.  beta is linear in u, so the split
    is additive.
    """
    grid = u.grid
    x0 = np.asarray(boundary_point, dtype=float)
    fv = _value_at(f, x0)
    if fv == 0.0:
        return GridFunction(grid, u.values.copy())
    axis, inward = _boundary_face(grid, x0)
    face = 0.0 if inward > 0 else grid.extents[axis]
    dist = inward * (grid.coords()[axis] - face)
    w_field = np.zeros(grid.shape)
    pos = dist > 0
    w_field[pos] = w_oracle(dist[pos])
    sel = pos & (dist >= fit_window[0]) & (dist <= fit_window[1])
    if sel.sum() < 2:
        raise ProbeError("empty fit window for the layer split")
    beta = float(np.sum(u.values[sel] * w_field[sel]) / np.sum(w_field[sel] ** 2))
    return GridFunction(grid, u.values - beta * w_field)


def _value_at(f: GridFunction, x0: np.ndarray) -> float:
    grid = f.grid
    idx = tuple(int(round(x0[d] / grid.spacing[d])) for d in range(grid.dim))
    return float(f.values[idx])


def _boundary_face(grid: Grid, x0: np.ndarray) -> tuple[int, float]:
    """The axis of the first box face through x0 and the sign (+1 on the
    lower face, -1 on the upper) of that axis's inward normal."""
    for d in range(grid.dim):
        if math.isclose(x0[d], 0.0, abs_tol=1e-12):
            return d, 1.0
        if math.isclose(x0[d], grid.extents[d], abs_tol=1e-12):
            return d, -1.0
    raise ProbeError(f"{tuple(x0)} is not on a boundary face")


def harnack_quotient(
    basis: EigenBasis,
    f: GridFunction,
    s: float,
    ball_center: tuple[float, ...],
    ball_radius: float,
) -> dict:
    """sup/inf over the half ball for u = L^{-s} f with f >= 0 supported
    outside the ball (so L^s u = 0 there and u >= 0).

    The witness is rejected, with a report, if f intersects the ball or u
    fails nonnegativity inside it.
    """
    _, dist = _distances(basis.grid, ball_center)
    in_ball = dist <= ball_radius
    if np.any(f.values.ravel()[in_ball] != 0.0):
        raise ProbeError("witness datum must vanish on the ball")
    if np.any(f.values < 0.0):
        raise ProbeError("witness datum must be nonnegative")
    u = fractional_solve(basis, f, s)
    uv = u.values.ravel()
    if np.any(uv[in_ball] < -1e-12 * np.abs(uv).max()):
        raise ProbeError("computed witness is not nonnegative in the ball")
    in_half = dist <= 0.5 * ball_radius
    vals = uv[in_half]
    if vals.size == 0:
        raise ProbeError("half ball contains no grid nodes")
    sup, inf = float(vals.max()), float(vals.min())
    if inf <= 0:
        raise ProbeError("witness degenerate: inf over the half ball is zero")
    return {"sup": sup, "inf": inf, "quotient": sup / inf}


def lp_spike(grid: Grid, center, p: float) -> GridFunction:
    """Integrable-spike surrogate for an L^p datum:

        f(x) = max(|x - c|, h)^{-n/p + 0.01}

    truncated at the grid scale so the sample stays finite.
    """
    _, dist = _distances(grid, center)
    capped = np.maximum(dist, max(grid.spacing))
    expo = -grid.dim / p + 0.01
    return GridFunction(grid, (capped**expo).reshape(grid.shape))
