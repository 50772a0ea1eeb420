"""One timed set-up in a fresh process: `python3 setup_probe.py WORKLOAD SEED CFG_DIR`.

Runs `workloads.setup` (import triqom, numpy and scipy; write the configs),
then prints `ready` and exits.  `run.py` times from starting this process to
reading that line.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, cfg_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.setup(workload, seed, HERE.parent, cfg_dir)
    print("ready", flush=True)
