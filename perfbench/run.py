#!/usr/bin/env python3
"""fracell benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload extension_route --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (the directory holding `src/fracell`).
The program is imported from that `src/`; nothing is installed.  Each
workload runs in a fresh interpreter pinned to one BLAS thread; set-up is
timed in several more fresh interpreters.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 4  # fresh interpreters besides the workload's own
TIME_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "FRACELL_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "oracle_err_max": "ratio"}
UNITS = {
    "self_s": "s",
    "overhead_s": "s",
    "own_s": "s",
    "import_s": "s",
    "warmup_s": "s",
    "rss_raise_mb": "MiB",
    "gflop_computed": "gflop",
    "gflop_per_s": "gflop/s",
    "unknowns_per_s": "1/s",
    "dup_ratio": "ratio",
    "coverage": "ratio",
    "bytes_written": "byte",
}


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "fracell" / "__init__.py").is_file():
        print(f"perfbench: no fracell sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    start = time.monotonic()
    try:
        setups = [_worker(["setup", "--out", str(out)], env, 60.0) for _ in range(SETUP_SAMPLES)]
        remaining = TIME_LIMIT_S - (time.monotonic() - start)
        res = _worker(
            [
                "run",
                "--out", str(out),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            env,
            remaining,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    setups.append(res["setup"])
    for s in setups:
        if not Path(s["fracell_file"]).resolve().is_relative_to(src.resolve()):
            print(f"perfbench: imported fracell from {s['fracell_file']}, not {src}", file=sys.stderr)
            return 1

    checks = res["checks"]
    for c in checks:  # an error that is not a number fails its check
        if c["err"] is not None and not math.isfinite(c["err"]):
            c["ok"] = False
    failed = [c for c in checks if not c["ok"]]
    errs = [c["err"] for c in checks if c["err"] is not None and math.isfinite(c["err"])]
    walls = res["pass_wall_s"]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "oracle_err_max": max(errs),
    }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": _git_sha(root),
        "environment": res["environment"],
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_cpu_s": res["pass_cpu_s"],
        "setup_samples_s": [s["import_s"] + s["warmup_s"] for s in setups],
        "case_median_s": res["case_median_s"],
        "fail_ratio": len(failed) / len(checks),
        "failed_checks": failed,
    }
    if args.trace:
        layers = dict(res["layers"])
        layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["setup.warmup_s"] = statistics.median(s["warmup_s"] for s in setups)
        info["traced_wall_s"] = res["traced_wall_s"]
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        info["end_to_end"] = e2e
    print("perfbench info: " + json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
