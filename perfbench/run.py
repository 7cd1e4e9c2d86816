"""ergolab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {growth,quench,rates,dense} \
        --seed N --seconds S --trace {0,1}

Each workload run happens in its own child process (perfbench/child.py),
one at a time, under the default BLAS threading.  Runs are repeated until
``--seconds`` have passed (at least three runs).  With ``--trace 0`` the
result carries the end-to-end metrics (medians over the runs); with
``--trace 1`` runs alternate between untraced and traced, and the result
carries the per-layer metrics of the traced runs.  Times are rescaled to
reference speed (see ``reference_s``).  Every run's outputs are checked
against oracle.json.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Full
results, run metadata and the spans of the last traced run are written
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 60
MIN_RUNS = 3
# no new run starts after this, so a stuck program cannot hold the
# benchmark past 180 s
LAST_START_S = 90

sys.path.insert(0, str(HERE))
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Rescaled times are in seconds at the machine speed where reference_s()
# takes this long, its typical time on the 2-core Xeon the benchmark was
# defined on.  Only ratios between commits matter.
REFERENCE_S = 0.12


def reference_s() -> float:
    """Time of a fixed mix of interpreter and memory-bound numpy work.

    The speed of a shared host drifts by up to half over minutes, and it
    moves set-up and workload times together.  Timed right before and
    right after each child, this kernel gives the current speed, by which
    the child's times are rescaled.  It runs here, not in the child, so
    that the child's peak RSS is the workload's own.
    """
    import numpy as np

    a = np.arange(1 << 20, dtype=float).reshape(1024, 1024)
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(12):
        np.ascontiguousarray(a.T)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ERGOLAB_THREADS", None)  # default BLAS threading
    return env


def run_child(workload: str, seed: int, trace_file: Path | None) -> dict:
    """One workload run in a fresh process, timed between two reference
    measurements; a dict with ``ok`` False on failure."""
    before = reference_s()
    result = _spawn(workload, seed, trace_file)
    result["reference_s"] = [before, reference_s()]
    return result


def _spawn(workload: str, seed: int, trace_file: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"child exceeded {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-6:]
        return {"ok": False, "problems": [f"child exited {proc.returncode}"] + tail}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "problems": ["child printed no result"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Repeat runs for about ``seconds``; traced runs alternate with untraced."""
    untraced, traced = [], []
    trace_file = OUT / f"spans-{workload}-{seed}.json" if trace else None
    start = time.perf_counter()
    while True:
        untraced.append(run_child(workload, seed, None))
        if trace:
            traced.append(run_child(workload, seed, trace_file))
        elapsed = time.perf_counter() - start
        rounds = len(untraced)
        enough = rounds >= (1 if trace else MIN_RUNS)
        if (enough and elapsed + 0.5 * elapsed / rounds >= seconds) or elapsed >= LAST_START_S:
            return untraced, traced


def median_of(runs: list, key: str) -> float | None:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else None


def speed(runs: list) -> float:
    """Factor that rescales this invocation's times to reference speed."""
    return REFERENCE_S / statistics.median(t for r in runs for t in r["reference_s"])


def end_to_end(untraced: list) -> dict:
    wall, setup = median_of(untraced, "wall_s"), median_of(untraced, "setup_s")
    return {
        "wall_s": (None if wall is None else wall * speed(untraced), "s"),
        "setup_s": (None if setup is None else setup * speed(untraced), "s"),
        "peak_rss_mb": (median_of(untraced, "peak_rss_mb"), "MB"),
    }


def per_layer(names: list[tuple[str, str]], untraced: list, traced: list) -> dict:
    """Lower median over traced runs of each per-layer metric (absent means 0).

    Counts depend only on the inputs; a count that differs between traced
    runs is reported on a comment line.
    """
    done = [r for r in traced if "layers" in r]
    out = {}
    for name, unit in names:
        if name == "trace_overhead_s":
            t, u = median_of(done, "wall_s"), median_of(untraced, "wall_s")
            out[name] = (None if t is None or u is None else (t - u) * speed(untraced + traced), unit)
            continue
        values = [r["layers"].get(name, 0) for r in done]
        if unit != "s" and len(set(values)) > 1:
            print(f"# count {name} differs between traced runs: {values}")
        out[name] = (statistics.median_low(values) if values else None, unit)
    return out


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "machine": platform.machine(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ERGOLAB_THREADS")
        },
        "child_unsets": ["ERGOLAB_THREADS"],
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    runs = untraced + traced
    failed = sum(1 for r in runs if not r.get("ok"))
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer(names, untraced, traced)
    else:
        metrics = end_to_end(untraced)
    complete = all(value is not None for value, _ in metrics.values())

    meta = metadata()
    meta["runtime"] = next((r["env"] for r in runs if "env" in r), None)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)} ({len(traced)} traced)")
    print(f"# machine {json.dumps(meta, sort_keys=True)}")
    for r in runs:
        for problem in r.get("problems", []):
            print(f"# FAILED run: {problem}")
    walls = [r["wall_s"] for r in untraced if "wall_s" in r]
    if len(walls) > 1:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"# before rescaling: wall_s median {statistics.median(walls):.4f} s (q1 {q1:.4f}, "
              f"q3 {q3:.4f}) over {len(walls)} untraced runs, setup_s median "
              f"{median_of(untraced, 'setup_s'):.4f} s; rescaled by {speed(runs):.4f}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            if value is not None:
                print(f"{name:<16}{value:>12.4f} {unit:<3} median of {len(walls)} runs")
    print(f"failed_fraction {failed / max(len(runs), 1):>12.4f}     {failed} of {len(runs)} runs failed")
    if args.trace:
        print_layers(traced)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": runs,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    summary = {
        "correct": failed == 0 and complete,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def print_layers(traced: list) -> None:
    """Per-layer table of the traced runs, with each layer's share of the
    traced run time (import spans left out of the share)."""
    done = [r for r in traced if "layers" in r]
    if not done:
        return
    run_wall = statistics.median(r["wall_s"] for r in done)
    print(f"traced run wall   {run_wall:.4f} s   median of {len(done)} traced runs")
    print(f"{'layer':<14}{'calls':>9}{'self_s':>10}{'import_s':>10}{'run share':>11}")
    def med(key: str) -> float:
        return statistics.median(r["layers"].get(key, 0) for r in done)

    for layer in LAYERS:
        own, imp = med(f"{layer}.self_s"), med(f"{layer}.import.self_s")
        print(f"{layer:<14}{med(f'{layer}.calls'):>9.0f}{own:>10.4f}{imp:>10.4f}"
              f"{(own - imp) / run_wall:>10.1%}")
    functions = sorted(
        {k[: -len(".self_s")] for r in done for k in r["layers"] if k.endswith(".self_s")}
        - set(LAYERS)
    )
    for name in functions:
        if name.endswith(".import"):
            continue
        print(f"  {name:<44}{med(name + '.calls'):>9.0f}{med(name + '.self_s'):>10.4f} s")


if __name__ == "__main__":
    sys.exit(main())
