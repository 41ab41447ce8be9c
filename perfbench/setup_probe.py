"""Set-up probe: import gdslab and generate a workload's operation list, then
print `ready`. `run.py` times a fresh process of this from spawn to `ready`,
which is the set-up a CLI user pays on every command.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gdslab.cli  # noqa: E402,F401  (the import is what is being timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
