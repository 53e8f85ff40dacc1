"""Cold-start child: import the program, produce a workload's first result,
print it and exit.  ``setup_s`` times this process from spawn to its
``result`` line.

Usage: ``python3 perfbench/child.py WORKLOAD SEED`` with ``src`` importable.
"""

import sys

import dse_sweep
import sim_validate

FIRST_RESULTS = {
    "dse-sweep": dse_sweep.first_result,
    "sim-validate": sim_validate.first_result,
}

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    print("result", FIRST_RESULTS[workload](seed), flush=True)
