import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["kernel_slopes", "extension_convergence", "halfline_tables", "probe_sweep"])
def test_sweep_script_runs_to_a_pass(script, tmp_path):
    # each sweep reads back what the CLI writes: a file it no longer writes fails here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py"), str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
