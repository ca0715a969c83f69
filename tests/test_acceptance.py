"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  All tolerances are pinned here, none deferred.
"""

import math

import numpy as np
import pytest

from fracell import (
    CoefficientField,
    DIRICHLET,
    NEUMANN,
    ExtensionMesh,
    ForcingData,
    Grid,
    GridFunction,
    SingularQuadrature,
    assemble,
    balakrishnan_apply,
    bessel_k,
    dtn_extract,
    eigendecompose,
    extension_energy,
    extension_series_eval,
    fractional_apply,
    fractional_solve,
    fractional_solve_sine,
    greens_function,
    heat_apply,
    hs_energy_norm,
    jump_kernel,
    killing_term,
    l2_inner,
    l2_norm,
    nonlocal_bilinear_form,
    poisson_kernel,
    scaling_check,
    solve_extension,
)
from fracell.extension import (
    caccioppoli_check,
    dtn_constant_divform,
    trace_inequality_check,
)
from fracell.halfspace import (
    HalfLineProblem,
    RHS_INDICATOR,
    RHS_ONE,
    closed_form_halfline,
    halfline_inverse_quadrature,
    interior_log_constant,
    reflect,
)
from fracell.regularity import (
    CampanatoProbe,
    boundary_exponent,
    dirichlet_layer_split,
    dyadic_radii,
    harnack_quotient,
    interior_exponent,
    lp_spike,
)
from fracell.semigroup import kernel_log_fit, kernel_slope_fit


def _report(criterion: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bases_128():
    g = Grid((1.0,), (130,))
    ops = {
        "identity": assemble(g, CoefficientField.identity(g), DIRICHLET),
        "sine": assemble(
            g,
            CoefficientField.from_callable(g, lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x)),
            DIRICHLET,
        ),
    }
    return g, ops, {k: eigendecompose(v) for k, v in ops.items()}


def test_criterion_1_route_equivalence(bases_128, rng):
    g, ops, bases = bases_128
    worst = 0.0
    for name, basis in bases.items():
        u = ops[name].embed(rng.standard_normal(basis.size))
        for s in (0.25, 0.5, 0.75):
            q = SingularQuadrature.for_spectrum(
                s, basis.lambda_min_positive, basis.lambda_max
            )
            semi = balakrishnan_apply(basis, u, s, q)
            spec = fractional_apply(basis, u, s)
            worst = max(worst, l2_norm(semi - spec) / l2_norm(spec))
    _report(
        "criterion 1 (spectral vs semigroup route)",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e} <= 1e-6",
    )


def test_criterion_2_energy_bilinear_identity(rng):
    s = 0.5
    errs = []
    for nodes, dtau in [(130, 0.25), (258, 0.125)]:
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        q = SingularQuadrature.for_spectrum(
            s, basis.lambda_min_positive, basis.lambda_max, tol=1e-9, dtau=dtau
        )
        K = jump_kernel(basis, s, q)
        B = killing_term(basis, s, q)
        u = op.embed(rng.standard_normal(basis.size))
        psi = op.embed(rng.standard_normal(basis.size))
        lhs = l2_inner(fractional_apply(basis, u, s), psi)
        rhs = nonlocal_bilinear_form(u, psi, K, B)
        errs.append(abs(lhs - rhs) / abs(lhs))
    ok = errs[0] <= 1e-3 and errs[1] < errs[0]
    _report(
        "criterion 2 (pointwise/energy identity)",
        ok,
        f"relative error {errs[0]:.2e} <= 1e-3 at 128 nodes, refined {errs[1]:.2e} decreasing",
    )


def test_criterion_3_extension_dtn():
    detail = []
    ok = True
    for s in (0.25, 0.5, 0.75):
        errs, energy_errs = [], []
        for nodes, layers in [(130, 64), (258, 128), (514, 256)]:
            g = Grid((1.0,), (nodes,))
            op = assemble(g, CoefficientField.identity(g), DIRICHLET)
            basis = eigendecompose(op)
            mesh = ExtensionMesh.build(g, s, layers, lam0=basis.lambda_min_positive)
            u = basis.eigenfunction(0)
            U = solve_extension(op, u, mesh)
            dtn = dtn_extract(U, s)
            target = fractional_apply(basis, u, s)
            errs.append(l2_norm(dtn - target) / l2_norm(target))
            ref = dtn_constant_divform(s) * hs_energy_norm(basis, u, s) ** 2
            energy_errs.append(abs(extension_energy(U) - ref) / ref)
        order = float(-np.polyfit(np.arange(3), np.log2(errs), 1)[0])
        good = (
            errs[0] <= 2e-2
            and order >= 0.8
            and energy_errs[0] <= 1e-2
            and energy_errs[0] > energy_errs[1] > energy_errs[2]
        )
        ok = ok and good
        detail.append(f"s={s}: dtn {errs[0]:.1e} order {order:.2f} energy {energy_errs[0]:.1e}")
    _report("criterion 3 (extension DtN + energy identity)", ok, "; ".join(detail))


def test_criterion_4_bessel_cross_check():
    g = Grid((1.0,), (130,))
    op = assemble(g, CoefficientField.identity(g), DIRICHLET)
    basis = eigendecompose(op)
    s = 0.5
    mesh = ExtensionMesh.build(g, s, 64, lam0=basis.lambda_min_positive)
    phi1 = basis.eigenfunction(0)
    U = solve_extension(op, phi1, mesh)
    scale = np.abs(phi1.values).max()
    dev = 0.0
    for j in range(1, mesh.layers, 3):
        ser = extension_series_eval(basis, phi1, s, mesh.y_nodes[j])
        dev = max(dev, np.abs(U.values[j] - ser.values).max() / scale)
    bessel_err = 0.0
    for x in (0.1, 1.0, 10.0):
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        bessel_err = max(bessel_err, abs(bessel_k(0.5, x) - exact) / exact)
    ok = dev <= 1e-2 and bessel_err <= 1e-10
    _report(
        "criterion 4 (Bessel series vs FD extension)",
        ok,
        f"field deviation {dev:.2e} <= 1e-2, K_1/2 closed form {bessel_err:.1e} <= 1e-10",
    )


def test_criterion_5_halfline_closed_forms():
    p1 = HalfLineProblem(0.25, RHS_ONE)
    xs1 = np.geomspace(1e-3, 1e-1, 12)
    v1 = halfline_inverse_quadrature(p1, xs1)
    slope = float(np.polyfit(np.log(xs1), np.log(v1), 1)[0])

    p3 = HalfLineProblem(0.75, RHS_INDICATOR)
    xs = np.linspace(0.05, 0.45, 9)
    v3 = halfline_inverse_quadrature(p3, xs)
    c3 = closed_form_halfline(p3, xs)
    ratio = v3 / c3
    spread = float((ratio.max() - ratio.min()) / abs(ratio.mean()))

    p2 = HalfLineProblem(0.5, RHS_INDICATOR)
    v2 = halfline_inverse_quadrature(p2, xs)
    c2 = closed_form_halfline(p2, xs)
    cfit = float(np.dot(v2, c2) / np.dot(c2, c2))
    resid = float(np.abs(v2 - cfit * c2).max() / np.abs(v2).max())
    const_err = abs(interior_log_constant() - 3.0 * math.log(3.0))

    ok = (
        abs(slope - 0.5) <= 1e-3
        and spread <= 1e-6
        and resid <= 1e-6
        and const_err <= 1e-8
    )
    _report(
        "criterion 5 (half-line closed forms)",
        ok,
        f"s=1/4 slope err {abs(slope - 0.5):.1e}, s=3/4 ratio spread {spread:.1e}, "
        f"s=1/2 residual {resid:.1e}, 3ln3 oracle {const_err:.1e}",
    )


@pytest.fixture(scope="module")
def basis_2d():
    g2 = Grid((1.0, 1.0), (40, 40))
    op2 = assemble(g2, CoefficientField.identity(g2), DIRICHLET)
    return eigendecompose(op2)


def test_criterion_6_kernel_estimates(bases_128, basis_2d):
    g, ops, bases = bases_128
    basis1 = bases["identity"]
    detail = []
    ok = True

    for s in (0.25, 0.5, 0.75):
        q = SingularQuadrature.for_spectrum(s, basis1.lambda_min_positive, basis1.lambda_max)
        fit = kernel_slope_fit(jump_kernel(basis1, s, q))
        err = abs(fit.slope + 1 + 2 * s)
        ok = ok and err <= 0.15
        detail.append(f"K n=1 s={s}: {err:.3f}")

    for s in (0.25, 0.5, 0.75):
        q = SingularQuadrature.for_spectrum(s, basis_2d.lambda_min_positive, basis_2d.lambda_max)
        fit = kernel_slope_fit(jump_kernel(basis_2d, s, q))
        err = abs(fit.slope + 2 + 2 * s)
        ok = ok and err <= 0.15
        detail.append(f"K n=2 s={s}: {err:.3f}")

    G2 = greens_function(basis_2d, 0.25)
    h2 = basis_2d.grid.spacing[0]
    fit_g = kernel_slope_fit(G2, r_min=2 * h2, r_max=0.12)
    err_g = abs(fit_g.slope + 2 - 2 * 0.25)
    ok = ok and err_g <= 0.1
    detail.append(f"G n=2 s=0.25: {err_g:.3f}")

    G1 = greens_function(basis1, 0.5)
    fit_log = kernel_log_fit(G1)
    ok = ok and fit_log.r2 >= 0.99
    detail.append(f"G n=1 log r2 {fit_log.r2:.4f}")
    ok = ok and G1.symmetry_defect() <= 1e-10 and G2.symmetry_defect() <= 1e-10
    detail.append(f"G symmetry {max(G1.symmetry_defect(), G2.symmetry_defect()):.1e}")

    _report("criterion 6 (kernel two-sided estimates)", ok, "; ".join(detail))


def test_criterion_7_neumann_structure():
    g = Grid((1.0,), (130,))
    op = assemble(g, CoefficientField.identity(g), NEUMANN)
    basis = eigendecompose(op)
    ones = GridFunction.ones(g)

    heat_dev = max(
        np.abs(heat_apply(basis, ones, t).values - 1.0).max() for t in (0.01, 0.1, 1.0)
    )
    q = SingularQuadrature.for_spectrum(0.5, basis.lambda_min_positive, basis.lambda_max)
    B = killing_term(basis, 0.5, q)
    killing_dev = max(abs(B.min_entry()), abs(B.max_entry()))

    from fracell.spectral import CompatibilityError

    rejected = False
    try:
        fractional_solve(basis, ones, 0.5)
    except CompatibilityError:
        rejected = True

    poisson_dev = np.abs(poisson_kernel(basis, 0.25, 0.3).row_integrals() - 1.0).max()

    ok = (
        heat_dev <= 1e-10
        and killing_dev <= 1e-10
        and rejected
        and poisson_dev <= 1e-6
    )
    _report(
        "criterion 7 (Neumann structure)",
        ok,
        f"heat preserves constants {heat_dev:.1e}, killing term {killing_dev:.1e}, "
        f"nonzero-mean rejected {rejected}, Poisson rows {poisson_dev:.1e}",
    )


def test_criterion_8_regularity_exponents():
    fine = Grid((1.0,), (2**15 + 1,))
    h = fine.spacing[0]
    detail = []
    ok = True

    for alpha, s in [(0.2, 0.25), (0.3, 0.3)]:
        f = GridFunction.from_callable(fine, lambda x: np.abs(x - 0.5) ** alpha)
        u = fractional_solve_sine(fine, f, s)
        probe = CampanatoProbe((0.5,), tuple(dyadic_radii(fine, 0.03125, floor_cells=30)))
        fit = interior_exponent(u, probe)
        err = abs(fit.exponent - (alpha + 2 * s))
        ok = ok and err <= 0.1
        detail.append(f"interior({alpha},{s}): {err:.3f}")

    s, p = 0.75, 3.0
    u = fractional_solve_sine(fine, lp_spike(fine, (0.5,), p), s)
    probe = CampanatoProbe(
        (0.5,), tuple(dyadic_radii(fine, 0.03125, floor_cells=30)), mode="linear"
    )
    fit = interior_exponent(u, probe)
    err = abs(fit.exponent - (2 * s - 1.0 / p))
    ok = ok and err <= 0.1
    detail.append(f"Lp(0.75,3): {err:.3f}")

    for s in (0.25, 0.75):
        u = fractional_solve_sine(fine, GridFunction.ones(fine), s)
        fit = boundary_exponent(u, (0.0,), 30 * h, 0.01)
        err = abs(fit.exponent - min(2 * s, 1.0))
        ok = ok and err <= 0.05
        detail.append(f"boundary s={s}: {err:.3f}")

    s = 0.25
    f = GridFunction.ones(fine)
    u = fractional_solve_sine(fine, f, s)
    fit_u = boundary_exponent(u, (0.0,), 30 * h, 0.01)
    v = dirichlet_layer_split(u, f, s, lambda d: d**0.5, (0.0,), (30 * h, 0.005))
    fit_v = boundary_exponent(v, (0.0,), 30 * h, 0.01)
    gain = fit_v.exponent - fit_u.exponent
    ok = ok and gain > 0
    detail.append(f"layer-split gain {gain:.2f}")

    _report("criterion 8 (regularity exponents)", ok, "; ".join(detail))


def test_criterion_9_inequality_checks():
    s = 0.5
    rng = np.random.default_rng(99)
    cacc, trace = [], []
    for nodes, layers in [(34, 16), (66, 32), (130, 64)]:
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        mesh = ExtensionMesh.build(g, s, layers, lam0=basis.lambda_min_positive)
        height = mesh.height

        def eta(x, y, H=height):
            return (
                np.clip(np.cos(np.pi * (x - 0.5) / 0.8), 0.0, None) ** 2
                * np.clip(1.0 - y / (0.8 * H), 0.0, None) ** 2
            )

        level_c, level_t = [], []
        for _ in range(10):
            coeffs = rng.standard_normal(5)
            u = basis.synthesize(np.concatenate([coeffs, np.zeros(basis.size - 5)]))
            U = solve_extension(op, u, mesh)
            flux = fractional_apply(basis, u, s) * dtn_constant_divform(s)
            level_c.append(caccioppoli_check(U, eta, ForcingData(None, flux))["ratio"])
            level_t.append(trace_inequality_check(U, [0.25, 0.5, 1.0], s)["sup"])
        cacc.append(max(level_c))
        trace.append(max(level_t))

    growth_ok = all(f <= 1.10 * c for c, f in zip(cacc, cacc[1:])) and all(
        f <= 1.10 * c for c, f in zip(trace, trace[1:])
    )

    quotients = []
    for nodes in (257, 513):
        g = Grid((1.0,), (nodes,))
        op = assemble(g, CoefficientField.identity(g), DIRICHLET)
        basis = eigendecompose(op)
        f = GridFunction.from_callable(
            g, lambda x: np.where((x > 0.05) & (x < 0.15), 1.0, 0.0)
        )
        quotients.append(harnack_quotient(basis, f, s, (0.6,), 0.2)["quotient"])
    harnack_ok = abs(quotients[1] - quotients[0]) / quotients[0] <= 0.2

    ok = growth_ok and harnack_ok
    _report(
        "criterion 9 (Caccioppoli / trace / Harnack)",
        ok,
        f"caccioppoli sup ratios {['%.3f' % c for c in cacc]}, "
        f"trace sups {['%.3f' % t for t in trace]}, "
        f"harnack drift {abs(quotients[1] - quotients[0]) / quotients[0]:.2%}",
    )


def test_criterion_10_scaling_and_parity(rng):
    n = 66
    g_small = Grid((1.0,), (n,))
    g_big = Grid((2.0,), (n,))
    b_small = eigendecompose(assemble(g_small, CoefficientField.identity(g_small), DIRICHLET))
    b_big = eigendecompose(assemble(g_big, CoefficientField.identity(g_big), DIRICHLET))
    vals = np.sin(np.pi * g_big.axis_coords(0) / 2.0)
    vals[0] = vals[-1] = 0.0
    u_big = GridFunction(g_big, vals)
    worst_scaling = max(
        scaling_check(b_small, b_big, u_big, s, 2.0).max_rel_deviation
        for s in (0.25, 0.5, 0.75)
    )

    g_half = Grid((1.0,), (33,))
    vals = rng.standard_normal(33)
    vals[0] = vals[-1] = 0.0
    u = GridFunction(g_half, vals)
    worst_parity = 0.0
    for parity in ("odd", "even"):
        refl = reflect(u, parity)
        op = assemble(refl.grid, CoefficientField.identity(refl.grid), DIRICHLET)
        basis = eigendecompose(op)
        out = fractional_apply(basis, refl.as_grid_function(), 0.5)
        sign = -1.0 if parity == "odd" else 1.0
        worst_parity = max(
            worst_parity,
            np.abs(out.values[::-1] - sign * out.values).max()
            / max(np.abs(out.values).max(), 1e-30),
        )

    ok = worst_scaling <= 1e-8 and worst_parity <= 1e-9
    _report(
        "criterion 10 (scaling law + parity preservation)",
        ok,
        f"scaling deviation {worst_scaling:.1e} <= 1e-8, parity defect {worst_parity:.1e}",
    )
