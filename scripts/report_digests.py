#!/usr/bin/env python3
"""sha256 of every file the benchmark's CLI cases write, and of a cylinder field.

Runs, one after another, every CLI case of the three benchmark workloads
(the case lists of `perfbench/workloads.py`, for the given seed) from the
source tree this script sits in, then one case of its own that no workload
runs: `extension --nodes=65 --layers=32 --write_field=true`, whose
`extension.csv` holds every value of a `solve_extension` field.  It prints
one `sha256  workload/case/file` line per written file (`field` stands for
the workload of the last case).  Two trees write the same bytes when

    python3 scripts/report_digests.py --seed 0 > a.txt   # in tree A
    python3 scripts/report_digests.py --seed 0 > b.txt   # in tree B
    diff a.txt b.txt

prints nothing.  A full run peaks at about 99 MiB of resident memory
(2-core VM, 1 BLAS thread).
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    runs = [(workload, case) for workload in workloads.WORKLOADS for case in workloads.cases(workload, seed)]
    runs.append(("field", workloads.cli_case("extension", nodes=65, layers=32, write_field="true")))
    with tempfile.TemporaryDirectory() as tmp:
        for workload, case in runs:
            if "command" not in case.data:  # an API case writes no files
                continue
            out = Path(tmp, workload, workloads._slug(case.name))
            case.fn(case.data, out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {workload}/{case.name}/{path.relative_to(out)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
