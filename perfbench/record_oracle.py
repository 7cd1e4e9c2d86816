"""Record the key results of every workload for every pool input seed.

    python3 perfbench/record_oracle.py [workload ...]

Writes perfbench/oracle.json.  The oracle is recorded once, from the
commit the benchmark was defined at, and is not re-recorded by a change
that claims to keep results unchanged: timed runs are checked against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from ergolab import cli  # noqa: E402


def record(workload: str) -> dict:
    entries = {}
    for seed in range(workloads.POOL):
        reports = []
        for config in workloads.configs(workload, seed):
            _, report = cli.run(config)
            reports.append(report)
        entries[str(seed)] = workloads.key_results(workload, reports)
    return entries


def main(argv: list[str]) -> int:
    path = HERE / "oracle.json"
    oracle = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or workloads.WORKLOADS:
        oracle[workload] = record(workload)
        print(f"{workload}: {len(oracle[workload])} input seeds", flush=True)
    path.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
