"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Case, Check, run_pass  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        Span("cli.run", 0.0, 10.0),
        Span("spectral.eigendecompose", 1.0, 4.0, parent=0),
        Span("grids.l2_norm", 2.0, 3.0, parent=1),
        Span("io.write_field_csv", 5.0, 6.5, parent=0),
        Span("operators.assemble", 11.0, 12.0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])


def test_layer_metrics_cover_the_pass():
    tr = Tracer([])
    tr.spans += [
        Span("cli.run", 0.0, 9.0),
        Span("semigroup.jump_kernel", 1.0, 3.0, parent=0, attrs={"n": 1000}),
        Span("semigroup.greens_function", 3.0, 4.0, parent=0, attrs={"n": 1000}, error=True),
        Span("spectral.eigendecompose", 4.0, 8.0, parent=0, attrs={"n": 10, "fingerprint": "a"}),
        Span("spectral.eigendecompose", 9.0, 9.5, attrs={"n": 20, "fingerprint": "a"}),
    ]
    m = layer_metrics(tr, wall=10.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["semigroup.kernels.calls"] == 2
    assert m["semigroup.kernels.self_s"] == pytest.approx(3.0)
    assert m["semigroup.kernels.gflop_computed"] == pytest.approx(4.0)
    assert m["semigroup.errors"] == 1 and m["spectral.errors"] == 0
    assert m["spectral.eigendecompose.n_max"] == 20
    assert m["spectral.eigendecompose.dup_ratio"] == pytest.approx(0.5)
    assert m["spectral.eigendecompose.gflop_computed"] == pytest.approx(9 * (10**3 + 20**3) / 1e9)
    assert m["trace.coverage"] == pytest.approx(0.95)


def test_tracer_wraps_and_restores_layer_functions():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    inner.__module__ = "fracell.grids"
    outer.__module__ = "fracell.spectral"
    ns = types.SimpleNamespace(inner=inner, outer=outer, _hidden=inner)
    with Tracer([ns]) as tr:
        assert ns.outer(1) == 4
        assert ns._hidden is inner
    assert ns.inner is inner and ns.outer is outer
    assert [(s.name, s.parent) for s in tr.spans] == [("spectral.outer", -1), ("grids.inner", 0)]
    assert all(s.end >= s.start for s in tr.spans)


def test_raising_case_fails_without_aborting_the_pass(tmp_path):
    def boom(data, out):
        raise RuntimeError("broken case")

    def fine(data, out):
        return [Check("fine", True, 1e-9)], None

    results = run_pass([Case("boom", boom), Case("fine", fine)], tmp_path)
    assert [r.name for r in results] == ["boom", "fine"]
    (raised,) = results[0].checks
    assert not raised.ok and "broken case" in raised.detail
    assert results[1].checks[0].ok


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_data_not_case_list(name):
    a, b = workloads.cases(name, 1), workloads.cases(name, 2)
    assert [c.name for c in a] == [c.name for c in b]
    assert [c.data for c in a] != [c.data for c in b]
    assert [c.data for c in a] == [c.data for c in workloads.cases(name, 1)]
    api = [(x.data, y.data) for x, y in zip(a, b) if x.fn is not workloads._run_cli]
    assert all(x != y for x, y in api)


def test_run_refuses_a_tree_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fast_paths", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
