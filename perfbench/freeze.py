"""Record the frozen digests that `run.py` checks against (references (c)
and (d)): the output of every job of each workload's fixed frozen job list.

    python3 perfbench/freeze.py

Run it only on a commit whose outputs are known to be right; the digests pin
the output of that commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    run.import_aftlab(root)
    frozen = {}
    for workload in ("four-valued", "interval", "law-suite"):
        runner = run.Runner(workload, 0, root)
        jobs = run.frozen_jobs(workload)
        try:
            runner.prepare(jobs)
            frozen[workload] = {}
            for job in jobs:
                result, _ = runner.run(job)
                runner.check(job, result)
                if "out" in result:
                    frozen[workload][job.name] = run.digest(result["out"])
        finally:
            runner.close()
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
    run.FROZEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, frozen.values()))} digests to {run.FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
