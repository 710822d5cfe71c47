"""One set-up of a workload in a fresh interpreter.

Imports the program, builds the workload's inputs from the seed, then
prints ``ready`` and exits.  ``run.py`` times several of these from
process start to ``ready`` and reports the median as ``setup_s``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bench_workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
