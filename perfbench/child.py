"""One workload run in a fresh process: set up, run, check, report.

Usage (started by run.py, one process per run):

    python3 perfbench/child.py --workload W --seed N --spawned T [--trace FILE]

``--spawned`` is the CLOCK_MONOTONIC reading of the parent just before it
started this process, so ``setup_s`` covers interpreter start-up, the
import of ``ergolab.cli`` with numpy and scipy, and input generation.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install_import_hook()
    t_import = monotonic()
    import ergolab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "ergolab":
        raise RuntimeError(f"ergolab imported from {cli.__file__}, not from {SRC}")
    configs = workloads.configs(args.workload, args.seed)
    t_ready = monotonic()
    if tracer is not None:
        tracer.install()

    reports, error = [], None
    t0 = time.perf_counter()
    try:
        for config in configs:
            code, report = cli.run(config)
            report.pop("_files", None)
            report["exit_code"] = code
            reports.append(report)
    except Exception:
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    t_end = monotonic()
    if tracer is not None:
        tracer.uninstall()

    problems = [f"raised: {error}"] if error else []
    keys = None
    if not error:
        oracle = json.loads((HERE / "oracle.json").read_text())
        want = oracle[args.workload].get(str(workloads.input_seed(args.seed)))
        keys = workloads.key_results(args.workload, reports)
        if want is None:
            problems.append("no oracle entry for this input seed")
        else:
            problems.extend(workloads.compare(args.workload, keys, want))
        for report in reports:
            if report["exit_code"] != (0 if report["passed"] else 1):
                problems.append(f"{report['experiment']}: exit code disagrees with status")

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": workloads.input_seed(args.seed),
        "ok": not problems,
        "problems": problems,
        "keys": keys,
        "setup_s": t_ready - args.spawned,
        "wall_s": wall,
        "import_s": t_ready - t_import,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": runtime_info(),
    }
    if tracer is not None:
        out["traced_wall_s"] = (t_ready - t_import) + wall
        out["layers"] = tracer.metrics()
        dump = tracer.dump()
        dump["clock_origin"] = {"import_start": t_import, "ready": t_ready, "end": t_end}
        dump["note"] = "span times are time.perf_counter(); clock_origin is CLOCK_MONOTONIC"
        Path(args.trace).write_text(json.dumps(dump))
    print(json.dumps(out))
    return 0


def runtime_info() -> dict:
    import numpy
    import scipy

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["thread_env"] = {
        k: os.environ.get(k)
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ERGOLAB_THREADS")
    }
    return info


if __name__ == "__main__":
    sys.exit(main())
