#!/usr/bin/env python3
"""Extension-route convergence sweep: DtN and energy-identity errors over
three mesh levels for each s, via the `converge` command.  Each level reads
both errors off the per-mode multipliers of its lowest mode, from the two
ends of its spectrum; no eigenbasis or cylinder field is built.
"""

import json
import sys
from pathlib import Path

from fracell.cli import RunConfig, run

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/extension")


def main() -> int:
    ok = True
    for s in (0.25, 0.5, 0.75):
        res = run(
            RunConfig(
                "converge",
                {"s": str(s), "nodes": "130", "layers": "64", "levels": "3"},
            ),
            out_dir=OUT / f"s{s}",
        )
        data = json.loads(res.report_path.read_text())["results"]
        ok = ok and res.passed
        errs = ", ".join(f"{e:.2e}" for e in data["dtn_errors"])
        print(
            f"s={s}: dtn errors [{errs}] observed order {data['observed_order']:.2f} "
            f"pass={res.passed}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
