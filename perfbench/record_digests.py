"""Record the simulated-statistics digests that ``run.py`` checks.

Runs one untraced round of every workload per seed and writes each
round's digest into ``digests.json`` (merging with what is there).  A
change that is meant to keep every simulated statistic identical must
not need this; re-record only for a change that moves outcomes on
purpose, and say so in the change description.

Usage (from the repository root)::

    python3 perfbench/record_digests.py 0 1 2 ...
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_workloads import WORKLOADS  # noqa: E402
from run import DIGESTS  # noqa: E402


def main(argv) -> int:
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    seeds = {int(text) for text in argv}
    seeds |= {recorded["default_seed"], recorded["holdout_seed"]}
    work_dir = os.path.join(ROOT, ".perfbench-work", f"record-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            table = recorded["digests"].setdefault(name, {})
            for seed in sorted(seeds):
                result = workload.run(workload.build(seed), work_dir,
                                      workload.jobs)
                if result.failed or result.problems:
                    print(f"{name} seed {seed}: checks failed: "
                          f"{result.problems or result.failed}",
                          file=sys.stderr)
                    return 1
                table[str(seed)] = result.digest
                print(f"{name} seed {seed}: {result.digest[:16]}")
            recorded["digests"][name] = dict(
                sorted(table.items(), key=lambda item: int(item[0])))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
