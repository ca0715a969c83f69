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

prints nothing, and so does

    python3 scripts/report_digests.py --seed 0 --against a.txt   # in tree B

which prints, instead of every line, `- old` and `+ new` for each line that
differs from the saved run (a file that only one run wrote gets one of the
two) and exits 1 if any does.  A full run peaks at about 90 MiB of resident
memory (2-core VM, 1 BLAS thread).

The bytes are pinned at one BLAS thread: run both trees with
`OPENBLAS_NUM_THREADS=1`.  `scipy.linalg.eigh_tridiagonal` (LAPACK `stevd`,
which merges its divide-and-conquer pieces with BLAS-3 calls) returns
bitwise different eigenpairs at one and at two OpenBLAS threads, the same
way on every run, so the `solve --nodes=1025 --coeff=sine` case writes other
bytes when the thread count differs.
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
    parser.add_argument("--against", type=Path, help="a saved run: print only the lines that differ, exit 1 if any")
    args = parser.parse_args()
    seed, saved = args.seed, None
    if args.against is not None:
        saved = {line.split("  ", 1)[1]: line for line in args.against.read_text().splitlines() if line}
    differ = False
    runs = [(workload, case) for workload in workloads.WORKLOADS for case in workloads.cases(workload, seed)]
    runs.append(("field", workloads.cli_case("extension", nodes=65, layers=32, write_field="true")))
    with tempfile.TemporaryDirectory() as tmp:
        for workload, case in runs:
            if "command" not in case.data:  # an API case writes no files
                continue
            out = Path(tmp, workload, workloads._slug(case.name))
            case.fn(case.data, out)
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                name = f"{workload}/{case.name}/{path.relative_to(out)}"
                line = f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}"
                if saved is None:
                    print(line, flush=True)
                    continue
                old = saved.pop(name, None)
                if old != line:
                    differ = True
                    if old is not None:
                        print(f"- {old}")
                    print(f"+ {line}", flush=True)
    for line in (saved or {}).values():  # written in the saved run only
        differ = True
        print(f"- {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
