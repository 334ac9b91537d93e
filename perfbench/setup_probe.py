"""Set-up probe: a fresh interpreter imports lpindex and builds one workload's inputs, then exits.

run.py times this whole process to get setup_s:
    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
