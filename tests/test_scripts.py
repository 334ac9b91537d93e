import os
import subprocess
import sys
from pathlib import Path

import lpindex

ROOT = Path(__file__).resolve().parents[1]


def test_breakdown_scan_defaults():
    src = str(Path(lpindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "breakdown_scan.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    last = out.stdout.splitlines()[-1]
    assert last.startswith("violations found for 15 scanned p, largest violating p = 1.170000 ")
