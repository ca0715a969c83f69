#!/usr/bin/env python3
"""Sweep the jump-kernel and Green-function slope fits over s.

Writes one report.json per case under out/kernels (one subdirectory per
run; the fit is its `results.fit`) and prints a summary table.  Kernel CSV
dumps can be enabled with --write_kernel=true per the CLI contract.
"""

import json
import sys
from pathlib import Path

from fracell.cli import RunConfig, run

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/kernels")


def main() -> int:
    # the jump kernel is probed at every s in both dimensions; the Green
    # function only in the regimes the estimates cover at desk scale:
    # the n = 2 power law and the n = 2s (1D, s = 1/2) log law.  The 1D
    # weak-singularity power cases are drowned by the bounded-domain
    # regular part and are not claimed.
    cases = [("jump", 1, 130, s, {}) for s in (0.25, 0.5, 0.75)]
    cases += [("jump", 2, 40, s, {}) for s in (0.25, 0.5, 0.75)]
    cases += [
        ("greens", 1, 130, 0.5, {}),
        ("greens", 2, 40, 0.25, {"fit_rmax": "0.12"}),
    ]
    rows = []
    for kind, dim, nodes, s, extra in cases:
        tag = f"{kind}_n{dim}_s{s}"
        cfg = RunConfig(
            "kernel",
            {"kind": kind, "dim": str(dim), "nodes": str(nodes), "s": str(s), **extra},
        )
        res = run(cfg, out_dir=OUT / tag)
        fit = json.loads(res.report_path.read_text())["results"]["fit"]
        rows.append((tag, fit["slope"], fit["r2"], res.passed))

    print(f"{'case':24s} {'slope':>10s} {'r2':>8s} {'pass':>6s}")
    ok = True
    for tag, slope, r2, passed in rows:
        ok = ok and passed
        print(f"{tag:24s} {slope:10.4f} {r2:8.4f} {str(passed):>6s}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
