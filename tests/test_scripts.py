import os
import subprocess
import sys
from pathlib import Path

import lpindex

ROOT = Path(__file__).resolve().parents[1]


def run_breakdown_scan(*args):
    src = str(Path(lpindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "breakdown_scan.py"), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_breakdown_scan_defaults():
    out = run_breakdown_scan()
    assert out.returncode == 0, out.stderr
    last = out.stdout.splitlines()[-1]
    assert last.startswith("violations found for 15 scanned p, largest violating p = 1.170000 ")


def test_breakdown_scan_rejects_infinite_pmax():
    out = run_breakdown_scan("--pmax", "inf")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "error: need 1 < pmin <= pmax < inf" in out.stderr
    assert "Traceback" not in out.stderr


def test_breakdown_scan_rejects_small_grid():
    # each row is the region's infimum, not a grid search: there is no grid to
    # size, so --grid-n of any size is rejected
    out = run_breakdown_scan("--grid-n", "3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "error: unrecognized arguments: --grid-n 3" in out.stderr
    assert "Traceback" not in out.stderr
