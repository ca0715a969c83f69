"""Campanato/Morrey probes: Holder exponents from mean-oscillation decay.

The regularity statements are probed, not proved: the decay
(1/r^n) int_{B_r} |u - c|^2 ~ r^{2 kappa} is turned into a least-squares
slope of log(mean oscillation^2) against log r over a dyadic radius list,
and slope/2 estimates the Holder exponent kappa.  Constants of the
underlying estimates are never asserted, only recorded.

Modes:
    "oscillation"  subtract the center value (estimated from the smallest
                   ball, matching the pointwise Campanato definition)
    "linear"       subtract the per-ball best affine function (gradient
                   regimes, exponents in (1, 2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridFunction, _node_points
from .spectral import EigenBasis, fractional_solve

__all__ = [
    "CampanatoProbe",
    "ExponentFit",
    "campanato_seminorm",
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
    """Ball family around a center with a decay exponent and a mode."""

    center: tuple[float, ...]
    radii: tuple[float, ...]
    alpha: float
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

    def as_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "rmse": self.rmse,
            "exponent": self.exponent,
            "radii_used": list(self.radii_used),
            "saturated": self.saturated,
        }


def _ball_masks(grid: Grid, center, radii):
    pts = _node_points(grid)
    c = np.asarray(center, dtype=float)
    dist = np.sqrt(np.sum((pts - c[None, :]) ** 2, axis=1))
    masks = []
    for r in radii:
        m = dist <= r + 1e-12
        if not m.any():
            raise ProbeError(f"ball of radius {r} contains no grid nodes")
        masks.append(m)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    if np.any(c - max(radii) < lo - 1e-12) or np.any(c + max(radii) > hi + 1e-12):
        raise ProbeError("largest ball exits the grid")
    return pts, dist, masks


def _subtracted_square_mean(vals, pts, mask, center, mode, center_value=None):
    """Mean square after the mode's subtraction.

    mode "oscillation" subtracts the best constant per ball (its mean)
    unless a fixed center value is supplied (the seminorm's pointwise
    definition); "linear" subtracts the best affine per ball.
    """
    v = vals[mask]
    if mode == "oscillation":
        w = v - (float(np.mean(v)) if center_value is None else center_value)
    else:  # linear: best affine per ball
        dx = pts[mask] - np.asarray(center)[None, :]
        A = np.concatenate([np.ones((dx.shape[0], 1)), dx], axis=1)
        coef, *_ = np.linalg.lstsq(A, v, rcond=None)
        w = v - A @ coef
    return float(np.mean(w**2))


def campanato_seminorm(f: GridFunction, probe: CampanatoProbe) -> float:
    """sup_r r^{-(n+2 alpha)} int_{B_r} |f - f(x0)|^2 over the probe radii.

    f(x0) is the average over the smallest ball (the pointwise Campanato
    definition); mode "linear" subtracts the best affine function instead.
    """
    grid = f.grid
    n = grid.dim
    pts, _, masks = _ball_masks(grid, probe.center, probe.radii)
    vals = f.values.ravel()
    center_value = float(np.mean(vals[masks[-1]]))  # smallest ball average
    sup = 0.0
    for r, m in zip(probe.radii, masks):
        msq = _subtracted_square_mean(vals, pts, m, probe.center, probe.mode, center_value)
        integral = msq * m.sum() * grid.cell_volume
        sup = max(sup, integral / r ** (n + 2.0 * probe.alpha))
    return sup


def _oscillation_curve(f: GridFunction, probe: CampanatoProbe):
    """Mean-square oscillation per radius, best-constant (or best-affine)
    subtraction per ball; no external center estimate enters, so singular
    profiles carry no centering bias."""
    grid = f.grid
    n = grid.dim
    pts, _, masks = _ball_masks(grid, probe.center, probe.radii)
    vals = f.values.ravel()
    rs, osc2 = [], []
    for r, m in zip(probe.radii, masks):
        msq = _subtracted_square_mean(vals, pts, m, probe.center, probe.mode)
        integral = msq * m.sum() * grid.cell_volume
        rs.append(r)
        osc2.append(integral / r**n)
    return np.asarray(rs), np.asarray(osc2)


def interior_exponent(u: GridFunction, probe: CampanatoProbe) -> ExponentFit:
    """Least-squares slope of log(mean oscillation^2) against log r;
    slope/2 estimates the Holder exponent at the probe center.

    Values at the round-off floor mark the fit as saturated (resolution
    ceiling), reported rather than fitted.
    """
    rs, osc2 = _oscillation_curve(u, probe)
    scale = float(np.max(np.abs(u.values))) ** 2
    floor = 1e-24 * max(scale, 1e-300)
    if np.any(osc2 <= floor):
        cap = 1.0 if probe.mode == "oscillation" else 2.0
        return ExponentFit(math.inf, -math.inf, 0.0, cap, tuple(rs), saturated=True)
    slope, intercept = np.polyfit(np.log(rs), np.log(osc2), 1)
    resid = np.log(osc2) - (slope * np.log(rs) + intercept)
    rmse = float(np.sqrt(np.mean(resid**2)))
    return ExponentFit(float(slope), float(intercept), rmse, float(slope) / 2.0, tuple(rs))


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
    axis = None
    inward = 0.0
    for d in range(grid.dim):
        if math.isclose(x0[d], 0.0, abs_tol=1e-12):
            axis, inward = d, 1.0
            break
        if math.isclose(x0[d], grid.extents[d], abs_tol=1e-12):
            axis, inward = d, -1.0
            break
    if axis is None:
        raise ProbeError(f"{tuple(x0)} is not on a boundary face")
    coords = grid.axis_coords(axis)
    line = [slice(None)] * grid.dim
    for d in range(grid.dim):
        if d != axis:
            idx = int(round(x0[d] / grid.spacing[d]))
            line[d] = idx
    profile = u.values[tuple(line)]
    dist = inward * (coords - x0[axis])
    sel = (dist >= d_min) & (dist <= d_max)
    dist, profile = dist[sel], profile[sel]
    if dist.size < 4:
        raise ProbeError("fewer than 4 nodes in the fit window")
    if np.all(np.abs(profile) < 1e-300):
        raise ProbeError("field vanishes identically near the boundary point")
    good = np.abs(profile) > 0
    slope, intercept = np.polyfit(np.log(dist[good]), np.log(np.abs(profile[good])), 1)
    resid = np.log(np.abs(profile[good])) - (slope * np.log(dist[good]) + intercept)
    rmse = float(np.sqrt(np.mean(resid**2)))
    return ExponentFit(float(slope), float(intercept), rmse, float(slope), tuple(dist))


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
    dist = _distance_to_face(grid, x0)
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


def _distance_to_face(grid: Grid, x0: np.ndarray) -> np.ndarray:
    for d in range(grid.dim):
        if math.isclose(x0[d], 0.0, abs_tol=1e-12):
            return grid.coords()[d] - 0.0
        if math.isclose(x0[d], grid.extents[d], abs_tol=1e-12):
            return grid.extents[d] - grid.coords()[d]
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
    grid = basis.grid
    pts = _node_points(grid)
    c = np.asarray(ball_center, dtype=float)
    dist = np.sqrt(np.sum((pts - c[None, :]) ** 2, axis=1))
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


def lp_spike(grid: Grid, center, p: float, eps: float = 0.01) -> GridFunction:
    """Integrable-spike surrogate for an L^p datum:

        f(x) = min(|x - c|, h)^{-n/p + eps}

    truncated at the grid scale so the sample stays finite.
    """
    pts = _node_points(grid)
    c = np.asarray(center, dtype=float)
    dist = np.sqrt(np.sum((pts - c[None, :]) ** 2, axis=1))
    h = max(grid.spacing)
    capped = np.maximum(dist, h)
    expo = -grid.dim / p + eps
    return GridFunction(grid, (capped**expo).reshape(grid.shape))
