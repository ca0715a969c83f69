"""One workload in one fresh interpreter; `run.py` starts it.

    python3 perfbench/worker.py setup --out DIR
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --out DIR

Both modes first time `import fracell` and one tiny warm-up CLI solve, which
every CLI invocation pays.  `run` then repeats the workload's pass until the
next pass would end after `--seconds`, and prints one JSON line.

With `--trace 1` passes alternate untraced and traced, starting untraced:
the traced ones give the per-layer metrics, the difference of the two
medians is the tracing overhead, and every CLI case's `report.json` digest
must be the same with and without tracing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _setup(out: Path) -> dict:
    t0 = time.perf_counter()
    import fracell.cli

    t1 = time.perf_counter()
    res = fracell.cli.run(fracell.cli.RunConfig("solve", {"nodes": "17"}), out_dir=out / "warmup")
    t2 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "warmup_s": t2 - t1,
        "warmup_passed": res.passed,
        "fracell_file": fracell.cli.__file__,
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRACELL_THREADS")},
    }


def _record(case: str, name: str, ok: bool, err: float | None = None, detail: str = "") -> dict:
    return {"case": case, "name": name, "ok": ok, "err": err, "detail": detail}


def _digest_checks(passes, reference) -> list[dict]:
    """Every CLI case's report digest must equal the reference pass's."""
    out = []
    for res in passes:
        for case, ref in zip(res, reference):
            if ref.digest is not None:
                ok = case.digest == ref.digest
                detail = "" if ok else f"{case.digest} != {ref.digest}"
                out.append(_record(case.name, "report_sha256_stable", ok, detail=detail))
    return out


def _run(args, setup: dict) -> dict:
    import workloads
    from tracer import Tracer, layer_metrics, median_metrics

    import fracell.cli

    case_list = workloads.cases(args.workload, args.seed)
    out_root = args.out / "cases"
    plain, traced, per_pass_layers = [], [], []
    walls = {False: [], True: []}
    cpu = []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing = bool(args.trace) and len(plain) > len(traced)
        c0, t0 = _cpu_s(), time.perf_counter()
        if tracing:
            with Tracer([fracell.cli, workloads]) as tr:
                results = workloads.run_pass(case_list, out_root)
            wall = time.perf_counter() - t0
            per_pass_layers.append(layer_metrics(tr, wall))
            traced.append(results)
        else:
            results = workloads.run_pass(case_list, out_root)
            wall = time.perf_counter() - t0
            plain.append(results)
        walls[tracing].append(wall)
        cpu.append(_cpu_s() - c0)
        need_traced = bool(args.trace) and not traced
        next_wall = statistics.median(walls[False] + walls[True])
        if not need_traced and time.perf_counter() + next_wall > deadline:
            break

    checks = [_record(r.name, **dataclasses.asdict(c)) for res in plain + traced for r in res for c in r.checks]
    checks += _digest_checks(plain[1:] + traced, plain[0])
    checks.append(_record("setup", "warmup_passed", setup["warmup_passed"]))
    case_s = {c.name: [] for c in case_list}
    for res in plain:
        for r in res:
            case_s[r.name].append(r.seconds)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": setup,
        "pass_wall_s": walls[False],
        "pass_cpu_s": cpu,
        "case_median_s": {k: statistics.median(v) for k, v in case_s.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "environment": _environment(),
    }
    if args.trace:
        layers = median_metrics(per_pass_layers)
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        out["traced_wall_s"] = walls[True]
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    setup = _setup(args.out)
    result = setup if args.mode == "setup" else _run(args, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
