"""Record the reference exit code and report digest of every job.

    python3 bench/make_reference.py

Runs each job that any seed can pick in its own fresh interpreter and
writes ``bench/reference.json``.  Run it only on code whose reports are
known good: later runs of the benchmark count any other exit code or
report byte as a failed job.
"""

from __future__ import annotations

import json
import sys

from jobs import all_jobs
from run import HERE, run_pass


def main() -> int:
    reference, bad = {}, []
    for job in all_jobs():
        (result,) = run_pass([job], trace=False)["jobs"]
        print(f"{result['wall_s']:8.3f} s  exit {result['exit']}  {job.key}")
        if result["exit"] != job.exit_code or result["verdict"] is False:
            bad.append(job.key)
        reference[job.key] = {"exit": result["exit"], "sha256": result["sha256"]}
    if bad:
        print("not recorded, these jobs fail: " + "; ".join(bad), file=sys.stderr)
        return 1
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
