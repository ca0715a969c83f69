#!/usr/bin/env python3
"""Half-line oracle tables: quadrature vs closed form for the three
regimes (s < 1/2 constant datum, s = 1/2 log case, s > 1/2 indicator)."""

import json
import sys
from pathlib import Path

from fracell.cli import RunConfig, run

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/halfline")


def main() -> int:
    ok = True
    for s in (0.25, 0.5, 0.75):
        res = run(RunConfig("halfline", {"s": str(s)}), out_dir=OUT / f"s{s}")
        ok = ok and res.passed
        report = json.loads(res.report_path.read_text())["results"]
        print(f"s={s}: {report} pass={res.passed}")
    print(f"tables under {OUT}/s*/halfline.csv")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
