import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracell.cli import COMMANDS, ConfigError, RunConfig, _TABLES, main, parse_config_file, run


def test_run_solve_writes_artifacts(tmp_path):
    cfg = RunConfig("solve", {"nodes": "34", "s": "0.5"})
    result = run(cfg, out_dir=tmp_path)
    assert result.passed
    for name in ("report.json", "solution.csv", "problem.json", "spectrum.csv", "spectrum.json"):
        assert (tmp_path / name).exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is True
    assert report["version"]
    assert len(report["config_sha256"]) == 64


def test_reports_are_byte_identical(tmp_path):
    params = {"probe": "interior", "alpha": "0.2", "s": "0.25"}
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(RunConfig("probe", dict(params)), out_dir=a)
    run(RunConfig("probe", dict(params)), out_dir=b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# halfline case\ns = 0.25\n", encoding="utf-8")
    parsed = parse_config_file(config)
    assert parsed == {"s": "0.25"}
    rc = main(
        [
            "halfline",
            "--config",
            str(config),
            "--out",
            str(tmp_path / "o"),
            "--s=0.75",  # override the file value
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["s"] == "0.75"
    assert (tmp_path / "o" / "halfline.csv").exists()


def test_invalid_key_names_offender(tmp_path, capsys):
    rc = main(["solve", "--nodes=abc", f"--out={tmp_path}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nodes" in err


def test_unknown_key_is_a_config_error_before_any_work(tmp_path, capsys):
    # a typo of 'nodes' must not run the default 130-node solve
    out = tmp_path / "o"
    assert main(["solve", "--node=9", f"--out={out}"]) == 2
    assert capsys.readouterr().err == "config error: key 'node': unknown key\n"
    assert not out.exists()
    config = tmp_path / "run.cfg"
    config.write_text("s = 0.25\nlayer = 16\n", encoding="utf-8")
    assert main(["extension", "--config", str(config), f"--out={out}"]) == 2
    assert "key 'layer': unknown key" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="key 'frob': unknown key"):
        RunConfig("probe", {"probe": "interior", "frob": "1"})
    # assertion tolerances are constants, the output directory is --out, and T fed no formula
    for command, key in (("kernel", "slope_tol"), ("extension", "dtn_tol"), ("extension", "energy_tol"), ("probe", "tol"), ("halfline", "T"), ("solve", "out")):
        with pytest.raises(ConfigError, match=f"key '{key}': unknown key"):
            RunConfig(command, {key: "1"})


@pytest.mark.parametrize(
    "args, key",
    [
        (["solve", "--nodes=9", "--layers=3"], "layers"),
        (["kernel", "--nodes=9", "--rhs=ones"], "rhs"),
        (["extension", "--nodes=9", "--kind=greens"], "kind"),
        (["halfline", "--nodes=9"], "nodes"),
        (["probe", "--probe=interior", "--dim=2"], "dim"),
        (["converge", "--nodes=9", "--gamma=3"], "gamma"),
        (["probe", "--probe=interior", "--seed=5"], "seed"),  # only rhs=random draws
    ],
)
def test_a_key_of_another_command_is_refused_before_any_work(tmp_path, capsys, args, key):
    out = tmp_path / "o"
    assert main([*args, f"--out={out}"]) == 2
    assert capsys.readouterr().err == f"config error: key {key!r}: the {args[0]} command does not read it\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, heavy",
    [
        (["solve", "--nodes=9", "--rhs=sine:x"], "eigendecompose"),
        (["solve", "--nodes=9", "--eigenvectors=abc"], "eigendecompose"),
        (["kernel", "--nodes=9", "--fit_rmin=abc"], "eigendecompose"),
        (["kernel", "--nodes=9", "--kind=greens", "--write_kernel=maybe"], "eigendecompose"),
        (["extension", "--nodes=9", "--u=psi"], "eigendecompose"),
        (["extension", "--nodes=9", "--gamma=abc"], "eigendecompose"),
        (["extension", "--nodes=9", "--write_field=maybe"], "eigendecompose"),
        (["probe", "--probe=interior", "--r_max=abc"], "fractional_solve_sine"),
        (["probe", "--probe=interior_lp", "--p=abc"], "fractional_solve_sine"),
        (["probe", "--probe=boundary", "--d_max=abc"], "fractional_solve_sine"),
        (["probe", "--probe=harnack", "--nodes=12"], "Grid"),
    ],
)
def test_every_key_is_read_before_the_heavy_work(tmp_path, capsys, monkeypatch, args, heavy):
    # a malformed key that is used only after the decomposition or solve is still refused first
    import fracell.cli as cli

    def refuse(*a, **kw):
        raise AssertionError(f"{heavy} ran before every key was read")

    monkeypatch.setattr(cli, heavy, refuse)
    assert main([*args, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "--seed=-1"], "key 'seed': value -1 below minimum 0"),
        (["solve", "--nodes=abc"], "key 'nodes': not a number: 'abc'"),
        (["solve", "--dim=3"], "key 'dim': must be 1 or 2"),
        (["kernel", "--write_kernel=maybe"], "key 'write_kernel': expected true/false, got 'maybe'"),
        (["kernel", "--kind=heat"], "key 'kind': expected one of ('jump', 'greens'), got 'heat'"),
        (["extension", "--layers=4.5"], "key 'layers': expected an integer, got 4.5"),
        (["extension", "--u=psi"], "key 'u': expected one of ('phi1', 'bump'), got 'psi'"),
        (["probe", "--probe=interior", "--alpha=1"], "key 'alpha': value 1.0 outside [1e-09, 0.999999999]"),
        (["probe", "--probe=interior", "--r_max=0"], "key 'r_max': value 0.0 outside [1e-12, None]"),
        (["probe", "--probe=boundary", "--d_max=-0.01"], "key 'd_max': value -0.01 outside [1e-12, None]"),
        (["probe", "--probe=harnack", "--nodes=12"], "key 'nodes': value 12 below minimum 17"),
        (["converge", "--levels=41"], "key 'levels': value 41.0 outside [None, 40]"),
    ],
)
def test_a_bad_value_is_refused_before_the_output_directory_exists(tmp_path, capsys, args, message):
    # every key is parsed when the RunConfig is built, before `run` makes the directory
    out = tmp_path / "o"
    assert main([*args, f"--out={out}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _keys_read(fn, name="v") -> set:
    """The keys `name.<key>` that `fn` reads, and that every cli function it hands `name` to reads."""
    import ast
    import inspect

    import fracell.cli as cli

    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name:
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = getattr(cli, node.func.id, None)
            params = inspect.signature(callee).parameters if inspect.isfunction(callee) else ()
            for param, arg in zip(params, node.args):
                if isinstance(arg, ast.Name) and arg.id == name:
                    read |= _keys_read(callee, param)
    return read


@pytest.mark.parametrize("command", COMMANDS)
def test_every_table_key_is_read_by_its_command(command):
    # a key that no number depends on is refused, not accepted and hashed into the report
    from fracell.cli import _DISPATCH

    assert _keys_read(_DISPATCH[command]) == {key for key, *_ in _TABLES[command]}


def test_every_benchmark_cli_case_builds_its_config(monkeypatch):
    # a table row that refuses a benchmark case fails here, not in the benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    built = 0
    for seed in range(3):
        for workload in workloads.WORKLOADS:
            for case in workloads.cases(workload, seed):
                if "command" in case.data:
                    RunConfig(case.data["command"], dict(case.data["params"]))
                    built += 1
    assert built > 0


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        RunConfig("frobnicate", {})


def test_failed_assertion_gives_nonzero_exit(tmp_path):
    # an 8-layer cylinder misses the DtN tolerance: a clean assertion failure
    rc = main(["extension", "--nodes=9", "--layers=8", "--s=0.25", f"--out={tmp_path}"])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False
    assert not {a["name"]: a["pass"] for a in report["assertions"]}["extension_dtn_error"]


def test_neumann_incompatible_rhs_fails_cleanly(tmp_path):
    rc = main(["solve", "--bc=neumann", "--rhs=ones", "--nodes=34", f"--out={tmp_path}"])
    assert rc == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert not report["pass"]
    assert "mean" in report["results"]["error"]


def test_converge_checks_its_finest_mesh_before_any_level(tmp_path, capsys, monkeypatch):
    # levels 0-6 hold the grading exponent 1/s = 100; the 2048-layer finest level underflows
    import fracell.cli as cli

    def no_level(*args, **kwargs):
        raise AssertionError("a level was solved before the finest mesh was checked")

    monkeypatch.setattr(cli, "extension_multipliers", no_level)
    assert main(["converge", "--nodes=9", "--layers=16", "--levels=8", "--s=0.01", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 's':") and "2048-layer" in err


def test_converge_counts_the_finest_y_nodes_before_any_mesh(tmp_path, capsys, monkeypatch):
    # memory for just less than 24 floats per y-node of the finest mesh (257 y-nodes)
    import fracell.cli as cli
    from fracell import spectral

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before its y-nodes were counted")

    monkeypatch.setattr(cli, "_extension_mesh", no_mesh)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0.99 * 8 * 24 * 257)
    assert main(["converge", "--nodes=9", "--layers=64", "--levels=3", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'levels':") and "64 layers" in err


def test_converge_memory_error_names_the_levels(tmp_path, capsys, monkeypatch):
    # 30 levels of 64 layers: 2^35 finest y-nodes, refused before any mesh is built
    import fracell.cli as cli

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built before its y-nodes were counted")

    monkeypatch.setattr(cli, "_extension_mesh", no_mesh)
    assert main(["converge", "--layers=64", "--levels=30", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'levels':")
    assert "30 levels from 130 nodes and 64 layers" in err


@pytest.mark.parametrize(
    "args, key",
    [(["solve", "--dim=2", "--nodes=1e300"], "nodes"), (["converge", "--layers=1e300", "--levels=40"], "levels")],
    ids=["grid", "converge"],
)
def test_a_count_past_float_range_is_refused(tmp_path, capsys, args, key):
    # 8 bytes times a count above ~2e307 is no float; the request is refused, not an OverflowError
    assert main([*args, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key {key!r}:")


@pytest.mark.parametrize(
    "args",
    [
        ["probe", "--probe=interior", "--nodes=1e300"],
        ["probe", "--probe=boundary", "--nodes=1e12"],
        ["probe", "--probe=harnack", "--nodes=1e12"],
        ["converge", "--nodes=1e300"],
        ["converge", "--nodes=1e15", "--levels=5"],
    ],
    ids=["interior", "boundary", "harnack", "converge", "converge-finest"],
)
def test_probe_and_converge_grids_past_range_are_refused_before_they_are_built(tmp_path, capsys, monkeypatch, args):
    # a probe counts ~8 floats per node, and converge's finest grid must index in exact doubles (2^53)
    import fracell.cli as cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before its nodes were counted")

    monkeypatch.setattr(cli, "Grid", no_grid)
    assert main([*args, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith("config error: key 'nodes':")


def test_probe_counts_its_grid_against_available_memory(tmp_path, capsys, monkeypatch):
    # memory for just less than 8 floats per node of a 10^6-node probe
    import fracell.cli as cli
    from fracell import spectral

    monkeypatch.setattr(cli, "Grid", lambda *a, **k: pytest.fail("a grid was built before its nodes were counted"))
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0.99 * 8 * 8 * 10**6)
    assert main(["probe", "--probe=interior", "--nodes=1000000", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':") and "1D grid of 1000000 nodes" in err


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--nodes=1e300"],
        ["solve", "--dim=2", "--nodes=1e300"],
        ["probe", "--probe=interior", "--nodes=1e300"],
        ["converge", "--layers=1e300", "--levels=40"],
    ],
    ids=["solve", "solve-2d", "probe", "converge"],
)
def test_a_huge_count_is_refused_in_one_short_line(tmp_path, capsys, args):
    # a count past 1e15 and its GiB figure print 3 significant digits, not ~300 (~600 for the 2D grid)
    assert main([*args, f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize(
    "args",
    [["solve", "--dim=2", "--nodes=1e300"], ["converge", "--layers=1e300", "--levels=40"]],
    ids=["solve-2d", "converge"],
)
def test_a_count_past_float_range_prints_its_true_need(tmp_path, capsys, monkeypatch, args):
    # the refusal compares a clamped float but prints the GiB figure of the exact int count, rounded up
    import re
    from decimal import Decimal

    import fracell.cli as cli
    from fracell import spectral

    counts = []

    def recorded(floats, what):
        counts.append(floats)
        spectral._check_memory(floats, what)

    monkeypatch.setattr(cli, "_check_memory", recorded)
    assert main([*args, f"--out={tmp_path}"]) == 2
    printed = Decimal(re.search(r"needs ~(\S+) GiB", capsys.readouterr().err).group(1))
    true_gib = Decimal(8 * counts[-1]) / 2**30
    assert counts[-1] > 10**300 and true_gib <= printed <= true_gib * Decimal("1.01")  # rounded up, 3 digits


def test_converge_budgets_y_nodes_only(tmp_path, monkeypatch):
    # no operator is built, so a 100,001-node base (400,001 at the finest level)
    # runs in memory for the 65 y-nodes of its finest mesh
    from fracell import spectral

    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1.01 * 8 * 24 * 65)
    assert main(["converge", "--nodes=100001", "--layers=16", "--levels=3", f"--out={tmp_path}"]) == 0


def test_converge_builds_no_operator_and_calls_no_eigensolver(tmp_path, monkeypatch):
    # every level's spectrum ends come from the closed form of the 1D Dirichlet identity
    import scipy.linalg

    import fracell.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("converge built an operator or called an eigensolver")

    for module, name in ((cli, "assemble"), (cli, "eigendecompose"), (scipy.linalg, "eigh_tridiagonal"), (scipy.linalg, "eigh")):
        monkeypatch.setattr(module, name, refuse)
    assert main(["converge", "--nodes=17", "--layers=8", "--levels=3", f"--out={tmp_path}"]) == 0


def test_converge_two_levels(tmp_path):
    cfg = RunConfig("converge", {"nodes": "34", "layers": "16", "levels": "2", "s": "0.5"})
    result = run(cfg, out_dir=tmp_path)
    assert result.passed
    data = json.loads((tmp_path / "report.json").read_text())["results"]
    assert len(data["dtn_errors"]) == 2


@pytest.mark.parametrize(
    "args, decompositions, fields",
    [
        (["extension", "--nodes=34", "--layers=16"], 1, 0),
        (["converge", "--nodes=17", "--layers=8", "--levels=3"], 0, 0),
        (["extension", "--nodes=34", "--layers=16", "--write_field=true"], 1, 1),
    ],
    ids=["extension", "converge", "extension-field"],
)
def test_each_extension_level_decomposes_its_base_once(tmp_path, monkeypatch, args, decompositions, fields):
    # the DtN and energy come from the per-mode multipliers: `extension`
    # decomposes its base once and solves the cylinder field only to write
    # it; `converge` needs only the two ends of each level's spectrum
    from fracell import cli, extension, spectral

    seen, solved = [], []

    def counted(op, *rest, **kw):
        seen.append(op.size)
        return spectral.eigendecompose(op, *rest, **kw)

    def counted_solve(*a, **kw):
        solved.append(1)
        return extension.solve_extension(*a, **kw)

    monkeypatch.setattr(cli, "eigendecompose", counted)
    monkeypatch.setattr(extension, "eigendecompose", counted)
    monkeypatch.setattr(cli, "solve_extension", counted_solve)
    main([*args, f"--out={tmp_path}"])
    assert len(seen) == len(set(seen)) == decompositions
    assert len(solved) == fields


def test_extension_writes_its_per_mode_defects(tmp_path):
    # lambda_k, g/lambda^s - 1 and e/(h d_s lambda^s) - 1 per base mode; for
    # u = phi_1 the first row carries the reported errors
    assert main(["extension", "--nodes=9", "--layers=8", "--s=0.25", f"--out={tmp_path}"]) == 1
    rows = (tmp_path / "extension_modes.csv").read_text().splitlines()
    assert rows[0] == "lambda,dtn_ratio_minus_1,energy_ratio_minus_1"
    lam, dtn, energy = np.array([[float(v) for v in r.split(",")] for r in rows[1:]]).T
    h = 1.0 / 8
    assert lam == pytest.approx(4.0 / h**2 * np.sin(np.arange(1, 8) * np.pi * h / 2) ** 2, rel=1e-12)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert abs(dtn[0]) == pytest.approx(results["dtn_error"], rel=1e-9)
    assert abs(energy[0]) == pytest.approx(results["energy_error"], rel=1e-9)


def _child_env() -> dict:
    # the child runs the package under test, also where only pytest's pythonpath finds it
    import fracell

    src = os.path.dirname(os.path.dirname(fracell.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fracell.cli", "halfline", "--s=0.25", f"--out={tmp_path}"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_import_skips_scipy_integrate():
    # every command pays for what `import fracell.cli` loads
    probe = "import sys, fracell.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["solve", "--nodes=17"], []),
        (["solve", "--nodes=17", "--coeff=sine"], ["scipy", "scipy.linalg"]),
        (["kernel", "--kind=jump", "--nodes=33"], ["scipy", "scipy.special"]),
        (["probe", "--probe=harnack"], []),
        (["halfline"], []),
    ],
    ids=["solve", "solve-sine", "kernel-jump", "probe-harnack", "halfline"],
)
def test_cli_command_imports_only_the_scipy_it_calls(argv, loaded, tmp_path):
    # `import fracell` loads numpy and no SciPy: the operator is fracell's own CSR, and
    # scipy.linalg and scipy.special are imported by the functions that call them, so a
    # command that calls neither loads no scipy module at all
    probe = (
        "import sys, fracell, fracell.cli\n"
        f"assert fracell.cli.main({[*argv, f'--out={tmp_path}']!r}) == 0\n"
        "watched = ('scipy', 'scipy.sparse', 'scipy.linalg', 'scipy.special', 'scipy.integrate')\n"
        "print([m for m in watched if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == repr(loaded)


def test_halfline_slope_check_is_relative(tmp_path, monkeypatch):
    # a slope 50 % off 2s = 2e-3 is 1e-3 off, which an absolute 1e-3 tolerance passed
    from fracell import cli

    monkeypatch.setattr(cli, "halfline_inverse_quadrature", lambda problem, xs: xs ** (1.5 * 2 * problem.s))
    assert main(["halfline", "--s=1e-3", f"--out={tmp_path}"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["assertions"][0]["tolerance"] == pytest.approx(2e-6)


def test_halfline_smallest_s_carries_its_slope(tmp_path):
    # at the lower bound s = 1e-9, u = x^{2s}/s varies by ~1e-8 relative over
    # the evaluation points; the values still carry the slope 2s
    assert main(["halfline", "--s=1e-9", f"--out={tmp_path}"]) == 0
    slope = json.loads((tmp_path / "report.json").read_text())["results"]["slope"]
    assert slope == pytest.approx(2e-9, rel=1e-4)


@pytest.mark.parametrize(
    "args, key",
    [
        (["solve", "--nodes=9", "--coeff=sine:abc"], "coeff"),
        (["solve", "--nodes=9", "--coeff=constant:"], "coeff"),
        (["solve", "--nodes=9", "--dim=2", "--coeff=diag:1,x"], "coeff"),
        (["solve", "--nodes=9", "--rhs=sine:x"], "rhs"),
        (["solve", "--nodes=9", "--rhs=spike:x"], "rhs"),
        (["extension", "--nodes=34", "--layers=4"], "layers"),
        (["converge", "--nodes=9", "--layers=4", "--levels=2"], "layers"),
        (["solve", "--nodes=nan"], "nodes"),
        (["solve", "--nodes=inf"], "nodes"),
        (["solve", "--nodes=1e400"], "nodes"),
        (["solve", "--nodes=9", "--s=nan"], "s"),
        (["solve", "--nodes=9", "--extent=inf"], "extent"),
        (["kernel", "--nodes=5"], "nodes"),
        (["kernel", "--kind=greens", "--nodes=9"], "nodes"),
        (["kernel", "--kind=greens", "--nodes=9", "--bc=neumann"], "bc"),
        (["probe", "--probe=interior", "--nodes=9"], "nodes"),
        (["probe", "--probe=boundary", "--nodes=9"], "nodes"),
        (["probe", "--probe=layer", "--nodes=9"], "nodes"),
        (["extension", "--nodes=9", "--gamma=0.5"], "gamma"),
        (["extension", "--nodes=9", "--gamma=1e6"], "gamma"),
        (["extension", "--nodes=9", "--layers=8", "--s=1e-9"], "s"),
        (["converge", "--nodes=9", "--layers=8", "--levels=2", "--s=1e-9"], "s"),
        (["solve", "--nodes=9", "--extent=1e300"], "extent"),
        (["extension", "--nodes=9", "--gamma=100"], "gamma"),
        (["solve", "--nodes=9", "--coeff=constant:0"], "coeff"),
        (["solve", "--nodes=9", "--coeff=constant:-1"], "coeff"),
        (["solve", "--nodes=9", "--dim=2", "--coeff=diag:1,-1"], "coeff"),
        (["solve", "--nodes=9", "--coeff=constant:inf"], "coeff"),
    ],
)
def test_bad_spec_is_a_named_config_error(tmp_path, capsys, args, key):
    assert main([*args, f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert repr(key) in err


@pytest.mark.parametrize(
    "args", [["--dim=2", "--nodes=24", "--extent=1e-6"], ["--nodes=1025", "--extent=1e-12"], ["--dim=2", "--nodes=9", "--coeff=diag:1e-17,1"]]
)
def test_small_boxes_and_weak_directions_pass(tmp_path, args):
    # a gate relative to lambda_max does not see the unit of length; a 1e-17 eigenvalue is read exactly
    assert main(["solve", *args, f"--out={tmp_path}"]) == 0


def test_2d_extension_field_export_is_refused_before_any_decomposition(tmp_path, capsys, monkeypatch):
    from fracell import cli

    monkeypatch.setattr(cli, "eigendecompose", lambda op: pytest.fail("decomposed before the config check"))
    args = ["extension", "--dim=2", "--nodes=10", "--layers=8", "--write_field=true", f"--out={tmp_path}"]
    assert main(args) == 2
    assert "config error: key 'write_field'" in capsys.readouterr().err


def test_log_regime_green_fit_honours_its_window(tmp_path):
    def pairs(*window):
        out = tmp_path / str(len(window))
        assert main(["kernel", "--kind=greens", "--nodes=130", "--s=0.5", *window, f"--out={out}"]) == 0
        return json.loads((out / "report.json").read_text())["results"]["fit"]["pairs_used"]

    assert pairs("--fit_rmin=0.05", "--fit_rmax=0.1", "--margin=0.4") < pairs()


def test_dense_request_past_available_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    from fracell import spectral

    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1e6)
    assert main(["kernel", "--dim=2", "--nodes=24", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':")
    assert "kernel matrix" in err


def test_cylinder_past_available_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    # memory for the eigenbasis check (3 n^2 floats, n = 32 interior nodes)
    # and little more: the 65-layer cylinder is refused before its load rows
    from fracell import spectral

    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1.01 * 8 * 3 * 32**2)
    assert main(["extension", "--nodes=34", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':")
    assert "cylinder of 65 layers x 32 base nodes" in err


@pytest.mark.parametrize(
    "args, floats",
    [(["--nodes=1000000"], 24 * 10**6), (["--dim=2", "--nodes=700"], 36 * 700**2)],
    ids=["1d", "2d"],
)
def test_grid_past_available_memory_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch, args, floats):
    # memory for just less than the grid, its coefficient and operator: 24 floats per node in 1D, 36 in 2D
    import fracell.cli as cli
    from fracell import spectral

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before its nodes were counted")

    monkeypatch.setattr(cli, "Grid", no_grid)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0.99 * 8 * floats)
    assert main(["solve", *args, f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':") and "grid of" in err


def test_extension_counts_its_y_nodes_before_the_mesh(tmp_path, capsys, monkeypatch):
    # memory for just less than 4 floats per y-node of a 4e8-layer mesh; the 9-node base fits
    import fracell.cli as cli
    from fracell import spectral

    class NoMesh:
        @staticmethod
        def build(*args, **kwargs):
            raise AssertionError("a mesh was built before its y-nodes were counted")

    monkeypatch.setattr(cli, "ExtensionMesh", NoMesh)
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0.99 * 8 * 4 * (4 * 10**8 + 1))
    assert main(["extension", "--nodes=9", "--layers=4e8", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'layers':") and "400000000-layer mesh" in err


@pytest.mark.parametrize(
    "args, what",
    [(["--kind=jump", "--margin=0"], "pair distances")],
    ids=["jump"],
)
def test_kernel_consumers_check_available_memory(tmp_path, capsys, monkeypatch, args, what):
    # memory for 2 N^2 floats (N = 22^2), past the kernel's own check (N^2 +
    # N nx) but not enough for the pair distances of every node next to it
    from fracell import spectral

    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1.01 * 8 * 2 * (22**2) ** 2)
    assert main(["kernel", "--dim=2", "--nodes=24", *args, f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':")
    assert what in err


def test_greens_route_check_fits_next_to_one_kernel(tmp_path, capsys, monkeypatch):
    # memory for ~1.7 N^2 floats (N = 22^2): the series kernel and the
    # quadrature route's row blocks fit, so the run reaches its report (exit
    # 1 is the slope fit at 24^2); below N^2 the kernel itself is refused
    from fracell import spectral

    n_sq = (22**2) ** 2
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 1.7 * 8 * n_sq)
    assert main(["kernel", "--kind=greens", "--dim=2", "--nodes=24", f"--out={tmp_path / 'fits'}"]) == 1
    report = json.loads((tmp_path / "fits" / "report.json").read_text())
    assert {a["name"]: a["pass"] for a in report["assertions"]}["greens_route_agreement"]
    monkeypatch.setattr(spectral, "_available_bytes", lambda: 0.99 * 8 * n_sq)
    assert main(["kernel", "--kind=greens", "--dim=2", "--nodes=24", f"--out={tmp_path / 'refused'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'nodes':")
    assert "kernel matrix" in err


# ---------------------------------------------------------------------------
# fuzzed overrides: every request ends with exit 0, 1 or 2, never a traceback
# ---------------------------------------------------------------------------

_SPECS = {
    "coeff": ("identity", "constant:2", "diag:1,2", "sine", "sine:0.3", "sine:0.99", "constant:1e-300"),
    "rhs": ("ones", "sine", "sine:3", "bump", "random", "spike", "spike:1.5"),
}
_INT_CAPS = {"layers": 64, "levels": 3, "eigenvectors": 8, "seed": 2**40}  # nodes: by dim, below
_MALFORMED = ("", "abc", "1,2", "0x10", "--", "1e", "true", "2.5.1", "spike:")
_NONFINITE = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400")


def _floats():
    tiny = st.sampled_from(["1e-9", "1e-12", "1e-300", "5e-324", "1e300", "0", "-0.0"])
    return tiny | st.floats(-2.0, 1e3, allow_nan=False).map(repr)


def _values(key, kind):
    # valid-looking values of a table row's kind; specs from the samples above
    near = st.floats(-2.0, 2.0, allow_nan=False).map(repr)
    if kind is bool:
        return st.sampled_from(("true", "false", "1", "0")) | near
    if kind is float:
        return _floats()
    if kind is int:
        return st.integers(-3, _INT_CAPS.get(key, 8)).map(str)
    if kind is str:
        return st.sampled_from(_SPECS.get(key, _MALFORMED))
    return st.sampled_from(kind).map(str) | near


@st.composite
def _request(draw):
    # a command and overrides of the keys it reads
    command = draw(st.sampled_from(COMMANDS))
    kinds = {key: kind for key, kind, *_ in _TABLES[command]}
    keys = draw(st.lists(st.sampled_from(sorted(kinds)), max_size=6, unique=True))
    dim = draw(st.sampled_from(("1", "2", "0", "3"))) if "dim" in keys else "1"
    params = {}
    for key in keys:
        if key == "dim":
            numeric = st.just(dim)
        elif key == "nodes":
            numeric = st.integers(-2, 24 if dim == "2" else 1025).map(str)
        else:
            numeric = _values(key, kinds[key])
        params[key] = draw(numeric | st.sampled_from(_MALFORMED) | st.sampled_from(_NONFINITE))
    return command, params


@given(case=_request())
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
# tracebacks that a wider search found: each is a named config error or a pass now
@example(case=("kernel", {"s": "1e-9"}))
@example(case=("kernel", {"s": "0.999999999"}))
@example(case=("kernel", {"kind": "greens", "s": "0.01"}))
@example(case=("solve", {"seed": "-1"}))
@example(case=("solve", {"nodes": "9", "rhs": "spike:0"}))
@example(case=("solve", {"dim": "2", "nodes": "24", "extent": "1e-6"}))
@example(case=("solve", {"nodes": "9", "coeff": "constant:1e200"}))
@example(case=("converge", {"nodes": "9", "levels": "1e300"}))
@example(case=("extension", {"dim": "2", "nodes": "10", "layers": "8", "write_field": "true"}))
def test_fuzzed_overrides_end_in_an_exit_code(tmp_path_factory, case):
    # a request is a pass (0), a failed assertion (1) or a named config error (2)
    command, params = case
    out = tmp_path_factory.mktemp("fuzz")
    rc = main([command, *(f"--{k}={v}" for k, v in params.items()), f"--out={out}"])
    assert rc in (0, 1, 2)
