"""Half-line / half-space oracles built on the reflection method.

Closed-form solutions of the fractional Dirichlet Laplacian on the half
line (constant datum for s < 1/2, unit-interval indicator for s >= 1/2),
reflected Riesz / log kernel integrals by one fixed tanh-sinh rule, the
reflected half-space kernel, and the boundary growth law min(2s, 1).

Quadrature results carry a unit kernel constant.  The CLI compares them
with the closed forms by proportionality (ratio constancy, fitted
constant); with the unit constant the values are known exactly (see
`closed_form_halfline`), and the tests hold the quadrature to those.  The
same rule recomputes the s = 1/2 interior constant, whose value is 3 ln 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import BoundaryCondition, Grid, GridFunction

__all__ = [
    "HalfLineProblem",
    "ReflectedFunction",
    "reflect",
    "halfspace_kernel",
    "halfline_inverse_quadrature",
    "closed_form_halfline",
    "interior_log_constant",
    "boundary_growth_exponent",
]

RHS_ONE = "one"
RHS_INDICATOR = "indicator_unit"


class HalfSpaceError(ValueError):
    """Half-line problem contract violation."""


@dataclass(frozen=True)
class HalfLineProblem:
    """Right-hand-side selection for the Dirichlet half line.

    rhs "one" needs s < 1/2 (the reflected kernel integral converges at
    infinity only there); "indicator_unit" is the characteristic function
    of (0, 1).  Evaluation points must lie in (0, T/2).
    """

    s: float
    rhs: str = RHS_ONE
    truncation: float = 16.0

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise HalfSpaceError(f"s={self.s} outside (0,1)")
        if self.rhs not in (RHS_ONE, RHS_INDICATOR):
            raise HalfSpaceError(f"unknown rhs kind {self.rhs!r}")
        if self.rhs == RHS_ONE and not self.s < 0.5:
            raise HalfSpaceError(
                "constant datum needs s < 1/2 for the kernel integral to converge"
            )
        if self.truncation <= 0:
            raise HalfSpaceError("truncation length must be positive")


@dataclass(frozen=True)
class ReflectedFunction:
    """Field on the symmetric grid obtained by odd/even reflection.

    The symmetric grid spans [-T, T] index-wise (stored as a box of extent
    2T); the parity identity values[m-k] = +-values[m+k] about the middle
    node m holds exactly by construction.
    """

    grid: Grid
    values: np.ndarray
    parity: str

    def as_grid_function(self) -> GridFunction:
        return GridFunction(self.grid, self.values.copy())


def reflect(u: GridFunction, parity: str) -> ReflectedFunction:
    """Mirror a half-line field across the wall at its first node.

    Odd reflection requires a zero trace at the wall; both parities return
    the exact mirrored values on the doubled grid.
    """
    if parity not in ("odd", "even"):
        raise HalfSpaceError(f"parity must be 'odd' or 'even', got {parity!r}")
    if u.grid.dim != 1:
        raise HalfSpaceError("reflection implemented for half-line fields")
    vals = u.values
    if parity == "odd" and vals[0] != 0.0:
        raise HalfSpaceError("odd reflection needs a zero-trace field at the wall")
    n = vals.size
    full = Grid((2.0 * u.grid.extents[0],), (2 * n - 1,))
    sign = -1.0 if parity == "odd" else 1.0
    mirrored = np.concatenate([sign * vals[:0:-1], vals])
    return ReflectedFunction(full, mirrored, parity)


def halfspace_kernel(x, z, s: float, bc: BoundaryCondition) -> float:
    """Reflected jump kernel on the half space (last coordinate positive):

        |x-z|^-(n+2s) -+ |x-z*|^-(n+2s),   z* = z mirrored,

    '-' for Dirichlet (odd reflection) and '+' for Neumann (even).  The
    kernel constant is one; every comparison fits its own multiplicative
    constant.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if x.shape != z.shape:
        raise HalfSpaceError("points must share a dimension")
    if x[-1] <= 0 or z[-1] <= 0:
        raise HalfSpaceError("points must lie in the open half space")
    if np.array_equal(x, z):
        raise HalfSpaceError("kernel undefined at coincident points")
    n = x.size
    zs = z.copy()
    zs[-1] = -zs[-1]
    p = n + 2.0 * s
    direct = float(np.linalg.norm(x - z)) ** (-p)
    mirror = float(np.linalg.norm(x - zs)) ** (-p)
    sign = -1.0 if bc.is_dirichlet else 1.0
    return direct + sign * mirror


def _tanh_sinh(s: float) -> tuple[np.ndarray, ...]:
    """Fixed tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974), step
    1/32 in t, on the unit interval, for a kernel singular at its left end.

    Per node: its distances d and 1 - d to the two ends (each formed
    directly), its weight w and the weight w d^(2s-1) of the singular power.
    The latter is formed in log space, so nodes nearer the end than the
    smallest double still carry their mass; the t-range ends where that
    mass, d^(2s), falls below e^-40.
    """
    h = 1.0 / 32.0
    k = math.ceil(max(4.0, math.asinh(20.0 / (math.pi * s))) / h)
    t = h * np.arange(-k, k + 1)
    u = math.pi * np.sinh(t)  # d = 1 / (1 + e^u)
    log_d, log_far = -np.logaddexp(0.0, u), -np.logaddexp(0.0, -u)
    log_w_over_d = math.log(h * math.pi) + np.log(np.cosh(t)) + log_far
    return np.exp(log_d), np.exp(log_far), np.exp(log_w_over_d + log_d), np.exp(log_w_over_d + 2 * s * log_d)


def _kernel_integral(xs: np.ndarray, hi, s: float) -> np.ndarray:
    """int_0^hi k_s(x, z) dz for each x in xs, 0 < x < hi, k_s the reflected
    Dirichlet kernel |x-z|^(2s-1) - |x+z|^(2s-1) (ln|x+z| - ln|x-z| at
    s = 1/2), by the tanh-sinh rule split at z = x.  On both pieces
    |x - z| is the piece length L times the node's d."""
    d, far, w, w_sing = _tanh_sinh(s)
    x, hi = xs[:, None], np.reshape(hi, (-1, 1))
    total = 0.0
    # (L, x + z) of [0, x], where z = x far, and of [x, hi], where z = x + L d
    for L, x_plus_z in ((x, x * (1.0 + far)), (hi - x, 2.0 * x + (hi - x) * d)):
        if s == 0.5:
            terms = L * w * (np.log(x_plus_z) - np.log(L * d))
        else:
            terms = L ** (2.0 * s) * w_sing - L * w * x_plus_z ** (2.0 * s - 1.0)
        total = total + terms.sum(axis=1)
    return total


def halfline_inverse_quadrature(problem: HalfLineProblem, xs) -> np.ndarray:
    """Inverse-operator values u(x) = int f(z) k_s(x, z) dz on the half line
    with unit kernel constant.

    k_s is the reflected power kernel |x-z|^(2s-1) - |x+z|^(2s-1) for
    s != 1/2 and the reflected log kernel for s = 1/2, integrated by one
    fixed tanh-sinh rule split at z = x.  The constant datum's far tail
    beyond max(2x, 1) is added in closed form.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs <= 0) or np.any(xs >= problem.truncation / 2):
        raise HalfSpaceError("evaluation points must lie in (0, T/2)")
    s = problem.s
    if problem.rhs == RHS_INDICATOR:
        if np.any(xs >= 1.0):
            raise HalfSpaceError("indicator evaluation points must lie in (0, 1)")
        return _kernel_integral(xs, 1.0, s)
    # far tail of the difference kernel in closed form:
    # int_hi^inf ((z-x)^{2s-1} - (z+x)^{2s-1}) dz
    #   = ((hi+x)^{2s} - (hi-x)^{2s}) / (2s)      (finite for s < 1/2)
    hi = np.maximum(2.0 * xs, 1.0)
    tail = ((hi + xs) ** (2 * s) - (hi - xs) ** (2 * s)) / (2.0 * s)
    return _kernel_integral(xs, hi, s) + tail


def closed_form_halfline(problem: HalfLineProblem, x) -> np.ndarray:
    """Closed-form half-line solutions, bracket normalized to unit prefactor:

        s < 1/2, f = 1:        x^{2s}
        s = 1/2, f = chi(0,1): (1+x)ln(1+x) - (1-x)ln(1-x) - 2x ln x
        s > 1/2, f = chi(0,1): 2 x^{2s} + (1-x)^{2s} - (1+x)^{2s}

    With the unit kernel constant of `halfline_inverse_quadrature` the
    solutions are exactly these brackets divided by s (f = 1), by 1 (s = 1/2)
    and by 2s (indicator, s != 1/2).

    The s = 1/2 form is the elementary antiderivative of the log kernel
    against the indicator; the intermediate matching constant 3 ln 3 (see
    `interior_log_constant`) cancels against the lower integration limit
    and does not appear in the solution.  The s >= 1/2 forms are valid for
    x in (0, 1/2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = problem.s
    if problem.rhs == RHS_ONE:
        if np.any(x <= 0):
            raise HalfSpaceError("need x > 0")
        return x ** (2.0 * s)
    if np.any((x <= 0) | (x >= 0.5)):
        raise HalfSpaceError("indicator closed forms valid on (0, 1/2)")
    if s == 0.5:
        return (1 + x) * np.log1p(x) - (1 - x) * np.log1p(-x) - 2 * x * np.log(x)
    return 2.0 * x ** (2 * s) + (1 - x) ** (2 * s) - (1 + x) ** (2 * s)


def interior_log_constant() -> float:
    """The s = 1/2 matching constant int_0^2 (ln|1+w| - ln|1-w|) dw = 3 ln 3,
    recomputed with the tanh-sinh rule (the reflected log kernel at x = 1,
    integrated over (0, 2)) as the confirmation oracle."""
    return float(_kernel_integral(np.array([1.0]), 2.0, 0.5)[0])


def boundary_growth_exponent(s: float) -> float:
    """Boundary growth law of the half-space Dirichlet solutions: min(2s, 1)."""
    if not 0.0 < s < 1.0:
        raise HalfSpaceError(f"s={s} outside (0,1)")
    return min(2.0 * s, 1.0)
