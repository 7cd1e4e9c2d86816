"""The benchmark's workloads: seeded inputs for ``ergolab.cli.run`` and the
key results each run is checked on.

A workload is a list of experiment configs.  The benchmark seed picks one
of ``POOL`` input seeds (``seed % POOL``); ``oracle.json`` holds the
results recorded for every pool seed, so any benchmark seed can be checked.
Why each workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import math

POOL = 32

# Sizes are chosen so that one run takes a few seconds on two cores:
# a timed invocation then holds several runs, and its median is steady.
GROWTH_SIZES = [6, 8, 10]
GROWTH_BUDGET = 150
QUENCH_SITES = 9
RATES_SAMPLES = 100
DENSE_SITES = 11
# stability needs a gate across the half cut, which a depth-1 brickwork
# layer puts there at 6 sites (and at 10) but not at 8
DENSE_STABILITY_SITES = 6
DENSE_OVERLAP_SITES = 8


def input_seed(seed: int) -> int:
    return seed % POOL


def configs(workload: str, seed: int) -> list[dict]:
    """The generated inputs of one run: configs for ``ergolab.cli.run``."""
    s = input_seed(seed)
    if workload == "growth":
        return [
            {
                "experiment": "theorem1",
                "sizes": list(GROWTH_SIZES),
                "recipe": "neel",
                "mode": "random-sample",
                "budget": GROWTH_BUDGET,
                "policy_seed": s,
                "seed": s,
            }
        ]
    if workload == "quench":
        return [
            {
                "experiment": "equilibrate",
                "sites": QUENCH_SITES,
                "recipe": "random-product",
                "seed": s,
            }
        ]
    if workload == "rates":
        return [{"experiment": "rates", "samples": RATES_SAMPLES, "seed": s}]
    if workload == "dense":
        return [
            {
                "experiment": "spectrum",
                "sites": DENSE_SITES,
                "model": "xxz-disordered",
                "seed": s,
            },
            {"experiment": "stability", "sites": DENSE_STABILITY_SITES, "seed": s},
            {"experiment": "overlap", "sites": DENSE_OVERLAP_SITES, "seed": s},
            {"experiment": "mps", "seed": s},
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("growth", "quench", "rates", "dense")


# Key results: name -> (extractor over the list of reports, abs tol, rel tol).
# A value passes when |got - want| <= abs + rel * |want|.  Integers and
# booleans use tolerance 0.  Tolerances follow ergolab.tolerances
# (structural 1e-10) for quantities computed by exact linear algebra, and
# the check's printed precision for fitted or optimised ones.
EXACT = (0.0, 0.0)
LINALG = (1e-10, 1e-8)


def _r(report: dict, *path):
    value = report["result"]
    for key in path:
        value = value[key]
    return value


KEYS: dict[str, dict[str, tuple]] = {
    "growth": {
        "passed": (lambda r: [x["passed"] for x in r], EXACT),
        "s_inf": (lambda r: _r(r[0], "s_inf"), LINALG),
        "slope": (lambda r: _r(r[0], "slope"), LINALG),
        "bulk_violations": (lambda r: [b["violations"] for b in _r(r[0], "bulk")], EXACT),
        "g_at_e": (lambda r: _r(r[0], "g_at_e"), LINALG),
    },
    "quench": {
        "passed": (lambda r: [x["passed"] for x in r], EXACT),
        "variance": (lambda r: _r(r[0], "variance_bounds", "variance"), LINALG),
        "sampled_value": (lambda r: _r(r[0], "variance_sampled", "value"), LINALG),
        "mean_subsystem_distance": (lambda r: _r(r[0], "subsystem", "mean_distance"), LINALG),
        "subsystem_bound": (lambda r: _r(r[0], "subsystem", "bound"), LINALG),
    },
    "rates": {
        "passed": (lambda r: [x["passed"] for x in r], EXACT),
        "bound_violations": (lambda r: _r(r[0], "bound_violations"), EXACT),
        "max_bound_ratio": (lambda r: _r(r[0], "max_bound_ratio"), LINALG),
        # a finite-difference error near 1e-10: compared at the check's 1e-6 scale
        "max_fd_relative_error": (lambda r: _r(r[0], "max_fd_relative_error"), (1e-7, 0.0)),
        "integrated_max_excess": (lambda r: _r(r[0], "integrated", "max_excess"), LINALG),
    },
    "dense": {
        "passed": (lambda r: [x["passed"] for x in r], EXACT),
        "e_max": (lambda r: _r(r[0], "e_max"), LINALG),
        "spectral_norm": (lambda r: _r(r[0], "spectral_norm"), LINALG),
        "stability_max_shift": (lambda r: _r(r[1], "max_shift"), LINALG),
        "stability_bound": (lambda r: _r(r[1], "bound"), LINALG),
        "overlap_violations": (lambda r: _r(r[2], "violations"), EXACT),
        "overlap_max_sq": (lambda r: _r(r[2], "max_overlap_sq"), (1e-8, 1e-6)),
        # Nelder-Mead polish of the fit: the report's 4-digit precision
        "mps_kappa": (lambda r: _r(r[3], "decay", "kappa"), (0.0, 1e-4)),
    },
}


def key_results(workload: str, reports: list[dict]) -> dict:
    return {name: fn(reports) for name, (fn, _) in KEYS[workload].items()}


def _close(got, want, atol: float, rtol: float) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, atol, rtol) for g, w in zip(got, want))
        )
    if isinstance(want, bool) or want is None or isinstance(got, bool):
        return got == want
    if isinstance(want, int) and isinstance(got, int):
        return got == want
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    return abs(got - want) <= atol + rtol * abs(want)


def compare(workload: str, got: dict, want: dict) -> list[str]:
    """Names and values of the key results that differ from the oracle."""
    problems = []
    for name, (_, (atol, rtol)) in KEYS[workload].items():
        if name not in want:
            problems.append(f"{name}: no oracle value")
        elif not _close(got.get(name), want[name], atol, rtol):
            problems.append(f"{name}: got {got.get(name)!r}, oracle {want[name]!r}")
    return problems
