#!/usr/bin/env python3
"""Regularity-exponent sweep with an aggregate CSV table.

Covers the interior Holder cases, the L^p case, the Dirichlet boundary
growth exponents and the layer-split improvement.
"""

import json
import sys
from pathlib import Path

from fracell.cli import RunConfig, run
from fracell.io import write_probe_sweep_csv

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/probes")

CASES = [
    {"probe": "interior", "alpha": "0.2", "s": "0.25"},
    {"probe": "interior", "alpha": "0.3", "s": "0.3"},
    {"probe": "interior_lp", "p": "3.0", "s": "0.75"},
    {"probe": "boundary", "s": "0.25"},
    {"probe": "boundary", "s": "0.75"},
    {"probe": "layer", "s": "0.25"},
]


def main() -> int:
    rows = []
    ok = True
    for case in CASES:
        tag = "_".join(f"{k}{v}" for k, v in sorted(case.items()))
        res = run(RunConfig("probe", dict(case)), out_dir=OUT / tag)
        ok = ok and res.passed
        report = json.loads(res.report_path.read_text())["results"]
        if "fit" in report:
            exponent = report["fit"]["exponent"]
            target = report["target"]
            tol = report["tolerance"]
        else:  # layer split reports the improvement directly
            exponent = report["improvement"]
            target, tol = 0.0, 0.0
        rows.append(
            {
                "probe": case["probe"],
                "s": float(case["s"]),
                "alpha": float(case["alpha"]) if "alpha" in case else None,
                "p": float(case["p"]) if "p" in case else None,
                "exponent": exponent,
                "target": target,
                "tolerance": tol,
                "pass": res.passed,
            }
        )
        print(f"{tag}: exponent {exponent:.4f} target {target} pass={res.passed}")
    write_probe_sweep_csv(OUT / "sweep.csv", rows)
    print(f"aggregate table: {OUT / 'sweep.csv'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
