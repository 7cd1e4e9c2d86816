"""Experiment runner: reproducible reports over the library's checks.

Thread caps must be exported before the first BLAS load, which is why
this module configures the environment before importing anything
numeric, and why the package root imports nothing numeric itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path


def _configure_threads() -> None:
    value = os.environ.get("ERGOLAB_THREADS")
    if value:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, value)


_configure_threads()

import numpy as np  # noqa: E402

from . import CATALOG_VERSION, __version__  # noqa: E402
from .circuits import brickwork, haar_unitary, layer_generator  # noqa: E402
from .ensembles import (  # noqa: E402
    DiagonalEnsemble,
    check_variance_bounds,
    expectation_trajectory,
    site_observable,
    subsystem_equilibration,
    variance_sampled,
)
from .ergodicity import (  # noqa: E402
    STATE_RECIPES,
    SearchPolicy,
    build_profile,
    diagonal_entropy_growth,
    growth_sizes,
    initial_state,
)
from .hamiltonians import (  # noqa: E402
    MODEL_NAMES,
    ResourceGuardError,
    build_model,
    check_gibbs_identities,
    diagonalize,
    gap_report,
    inverse_temperature,
    trace_energy_density,
)
from .mps import (  # noqa: E402
    MPSSpec,
    ghz_spec,
    mps_overlap_decay,
    mps_to_dense,
    product_overlap_transfer,
    random_injective_spec,
)
from .operators import pauli, random_density, random_hermitian  # noqa: E402
from .overlaps import (  # noqa: E402
    family_epsilon,
    family_sizes,
    overlap_bound_check,
    product_state_from_factors,
    verify_epsilon_family,
)
from .rates import (  # noqa: E402
    QuasiLocalUnitary,
    boundary_rate,
    check_rate_bound,
    entangling_rate_fd,
    integrated_bound_check,
    stability_experiment,
)
from .states import LatticeSpec, SiteSet  # noqa: E402
from .tolerances import TOL  # noqa: E402

SCOPE_NOTE = (
    "asymptotic statements are exercised as finite-size trends at desk scale; "
    "quantitative tolerances are stated per check"
)

EXPERIMENTS = (
    "spectrum",
    "scan",
    "equilibrate",
    "theorem1",
    "prop1",
    "overlap",
    "rates",
    "stability",
    "mps",
    "gibbs",
)


class ConfigError(ValueError):
    pass


DEFAULTS: dict[str, dict] = {
    "spectrum": {
        "model": "mixed-field-ising",
        "sites": 8,
        "seed": 0,
        "geometry": "chain-open",
        "gap_tolerance": None,
    },
    "scan": {
        "model": "mixed-field-ising",
        "sites": 8,
        "seed": 0,
        "geometry": "chain-open",
        "mode": "random-sample",
        "budget": 500,
        "max_fraction": 0.5,
        "policy_seed": 0,
        "bins": 20,
    },
    "equilibrate": {
        "model": "mixed-field-ising",
        "sites": 8,
        "seed": 0,
        "geometry": "chain-open",
        "recipe": "random-product",
        "site": None,
        "axis": "Z",
        "samples": 2000,
        "horizon": None,
        "subsystem_samples": 200,
    },
    "theorem1": {
        "model": "mixed-field-ising",
        "sizes": [6, 8, 10, 12],
        "recipe": "neel",
        "seed": 0,
        "geometry": "chain-open",
        "mode": "random-sample",
        "budget": 500,
        "max_fraction": 0.5,
        "policy_seed": 0,
        "bins": 20,
    },
    "prop1": {
        "epsilon": 0.3,
        "sizes": [6, 8, 10, 12],
        "local_dim": 2,
        "seed": 0,
    },
    "overlap": {
        "model": "mixed-field-ising",
        "sites": 8,
        "seed": 0,
        "geometry": "chain-open",
        "state_index": None,
        "region": None,
        "samples": 200,
        "alphas": [2.0, 3.0, "inf"],
    },
    "rates": {
        "samples": 2000,
        "seed": 0,
        "model": "mixed-field-ising",
        "sites": 8,
        "geometry": "chain-open",
        "recipe": "random-product",
        "t_max": 5.0,
        "t_points": 11,
    },
    "stability": {
        "model": "mixed-field-ising",
        "sites": 10,
        "seed": 0,
        "geometry": "chain-open",
        "generator": "layer",
        "time": None,
    },
    "mps": {
        "spec_json": None,
        "ghz": False,
        "seed": 0,
        "sizes": list(range(8, 65, 4)),
        "refine": True,
    },
    "gibbs": {
        "model": "mixed-field-ising",
        "sites": 8,
        "seed": 0,
        "geometry": "chain-open",
        "betas": [0.2, 1.0, 5.0],
    },
}


def _clean(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _clean(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _policy_from(config: dict) -> SearchPolicy:
    return SearchPolicy(
        mode=config["mode"],
        max_fraction=float(config["max_fraction"]),
        budget=int(config["budget"]),
        seed=int(config["policy_seed"]),
    )


def _alphas_from(values) -> tuple[float, ...]:
    out = []
    for v in values:
        if isinstance(v, str) and v.lower() in ("inf", "infinity"):
            out.append(float("inf"))
        else:
            out.append(float(v))
    return tuple(out)


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _run_spectrum(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    ham = build_model(config["model"], lat, seed=config["seed"])
    spec = diagonalize(ham)
    gaps = gap_report(spec, tolerance=config["gap_tolerance"])
    result = {
        "dim": spec.dim,
        "e_max": spec.e_max,
        "spectral_norm": spec.norm,
        "ground_shift": ham.ground_shift,
        "norm_rescale": ham.norm_rescale,
        "trace_energy_density": trace_energy_density(ham),
        "gap_report": _clean(gaps),
        "params": _clean(ham.params),
    }
    csv = _csv_text(
        ["index", "energy", "density"],
        ((i, float(e), float(e) / lat.num_sites) for i, e in enumerate(spec.energies)),
    )
    return result, True, {"spectrum.csv": csv}


def _run_scan(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    spec = diagonalize(build_model(config["model"], lat, seed=config["seed"]))
    prof = build_profile(spec, _policy_from(config), num_bins=config["bins"])
    result = {
        "model": prof.model,
        "num_states": spec.dim,
        "knots_e": _clean(prof.knots_e),
        "knots_g": _clean(prof.knots_g),
        "lipschitz_k": prof.lipschitz_k,
        "ergodic_interior": prof.ergodic_interior,
        "policy": _clean(prof.policy),
    }
    return result, True, {"profile.csv": prof.csv_text()}


def _run_equilibrate(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    spec = diagonalize(build_model(config["model"], lat, seed=config["seed"]))
    psi = initial_state(config["recipe"], lat, config["seed"])
    ens = DiagonalEnsemble(spec, psi)
    target = config["site"] if config["site"] is not None else lat.num_sites // 2
    obs = site_observable(lat, int(target), config["axis"])
    bounds = check_variance_bounds(ens, obs)
    sampled = variance_sampled(
        spec,
        psi,
        obs,
        horizon=config["horizon"],
        samples=int(config["samples"]),
        seed=config["seed"],
    )
    gap_ok = abs(bounds.variance - sampled.value) <= max(
        0.05 * bounds.variance, 3.0 * sampled.stderr
    )
    sub = subsystem_equilibration(
        spec,
        psi,
        (int(target),),
        samples=int(config["subsystem_samples"]),
        seed=config["seed"],
    )
    t_grid = np.linspace(0.0, 10.0 * spec.dim / max(spec.norm, 1e-12), 201)
    traj = expectation_trajectory(spec, psi, obs, t_grid)
    csv = _csv_text(
        ["t", "expectation"], ((float(t), float(a)) for t, a in zip(t_grid, traj))
    )
    passed = bool(bounds.passed and gap_ok and sub.passed)
    result = {
        "variance_bounds": _clean(bounds),
        "variance_sampled": _clean(sampled),
        "sampled_agreement": gap_ok,
        "subsystem": _clean(sub),
    }
    return result, passed, {"trajectory.csv": csv}


def _run_theorem1(config: dict):
    materials: list = []
    report = diagonal_entropy_growth(
        sizes=tuple(config["sizes"]),
        model=config["model"],
        recipe=config["recipe"],
        policy=_policy_from(config),
        num_bins=config["bins"],
        seed=config["seed"],
        geometry=config["geometry"],
        _materials=materials,
    )
    csv = _csv_text(
        ["N", "s_inf", "e_center"],
        (
            (n, s, e)
            for n, s, e in zip(report.sizes, report.s_inf, report.e_centers)
        ),
    )
    files = {"trend.csv": csv}
    if materials:
        files["profile.csv"] = materials[-1][3].csv_text()
    return _clean(report), report.passed, files


def _run_prop1(config: dict):
    report = verify_epsilon_family(
        epsilon=float(config["epsilon"]),
        sizes=tuple(config["sizes"]),
        local_dim=int(config["local_dim"]),
        seed=config["seed"],
    )
    csv = _csv_text(
        ["N", "s1", "overlap_sq"],
        ((n, s, o) for n, s, o in zip(report.sizes, report.s1, report.overlap_sq)),
    )
    return _clean(report), report.passed, {"family.csv": csv}


def _run_overlap(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    spec = diagonalize(build_model(config["model"], lat, seed=config["seed"]))
    idx = config["state_index"]
    idx = spec.dim // 2 if idx is None else int(idx)
    if not 0 <= idx < spec.dim:
        raise ConfigError(f"state index {idx} outside spectrum")
    from .states import PureState

    state = PureState(lat, spec.eigenvectors[:, idx].astype(complex))
    region = config["region"] or tuple(range(lat.num_sites // 2))
    report = overlap_bound_check(
        state,
        tuple(int(s) for s in region),
        alphas=_alphas_from(config["alphas"]),
        samples=int(config["samples"]),
        seed=config["seed"],
    )
    return _clean(report), report.passed, {}


def _run_rates(config: dict):
    rng = np.random.default_rng(config["seed"])
    dims = (4, 4)
    worst_ratio = 0.0
    worst_rel = 0.0
    violations = 0
    for _ in range(int(config["samples"])):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng, norm=1.0)
        rep = check_rate_bound(rho, dims, v)
        if not rep.passed:
            violations += 1
        worst_ratio = max(worst_ratio, rep.ratio)
        fd = entangling_rate_fd(rho, dims, v)
        rel = abs(rep.rate - fd) / max(abs(rep.rate), 1e-3)
        worst_rel = max(worst_rel, rel)
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    ham = build_model(config["model"], lat, seed=config["seed"])
    psi = initial_state(config["recipe"], lat, config["seed"])
    region = tuple(range(lat.num_sites // 2))
    t_grid = np.linspace(0.0, float(config["t_max"]), int(config["t_points"]))
    integ = integrated_bound_check(psi, ham, region, t_grid)
    lat6 = LatticeSpec(6, 2, config["geometry"])
    ham6 = build_model(config["model"], lat6, seed=config["seed"])
    psi6 = initial_state(config["recipe"], lat6, config["seed"])
    bnd = boundary_rate(psi6, (0, 1, 2), ham6)
    passed = bool(
        violations == 0 and worst_rel <= 1e-6 and integ.passed and bnd.passed
    )
    result = {
        "samples": int(config["samples"]),
        "bound_violations": violations,
        "max_bound_ratio": worst_ratio,
        "max_fd_relative_error": worst_rel,
        "integrated": _clean(integ),
        "boundary": _clean(bnd),
    }
    csv = _csv_text(
        ["t", "s2", "bound"],
        (
            (t, s, b)
            for t, s, b in zip(integ.times, integ.s2_values, integ.bounds)
        ),
    )
    return result, passed, {"rates.csv": csv}


def _run_stability(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    ham = build_model(config["model"], lat, seed=config["seed"])
    gen = config["generator"]
    if gen == "layer":
        rng = np.random.default_rng(config["seed"] + 1)
        layer = brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0]
        qlu = layer_generator(layer)
        if config["time"] is not None:
            qlu = QuasiLocalUnitary(qlu.generator, float(config["time"]))
    elif gen in MODEL_NAMES:
        t = 1.0 if config["time"] is None else float(config["time"])
        qlu = QuasiLocalUnitary(build_model(gen, lat, seed=config["seed"] + 1), t)
    else:
        raise ConfigError(f"generator must be 'layer' or one of {MODEL_NAMES}")
    report = stability_experiment(ham, qlu)
    return _clean(report), report.passed, {}


def _run_mps(config: dict):
    if config["ghz"]:
        spec = ghz_spec()
    elif config["spec_json"]:
        spec = MPSSpec.from_json(Path(config["spec_json"]).read_text())
    else:
        spec = random_injective_spec(seed=config["seed"])
    sizes = tuple(int(n) for n in config["sizes"])
    decay = mps_overlap_decay(spec, sizes, refine=bool(config["refine"]))
    agreement = None
    small = [n for n in sizes if spec.local_dim**n <= 4096]
    if small:
        n0 = small[-1]
        dense = mps_to_dense(spec, n0)
        rng = np.random.default_rng(config["seed"])
        worst = 0.0
        for _ in range(5):
            f = rng.normal(size=spec.local_dim) + 1j * rng.normal(size=spec.local_dim)
            f = f / np.linalg.norm(f)
            via_transfer = product_overlap_transfer(spec, f, n0)
            prod = product_state_from_factors(dense.lattice, [f] * n0)
            via_dense = abs(np.vdot(prod.amplitudes, dense.amplitudes))
            worst = max(worst, abs(via_transfer - via_dense))
        agreement = worst
    passed = bool(decay.passed and (agreement is None or agreement <= 1e-9))
    result = {
        "decay": _clean(decay),
        "dense_transfer_agreement": agreement,
        "spec": json.loads(spec.to_json()),
    }
    csv = _csv_text(["N", "max_overlap", "log_overlap"], decay.csv_rows())
    return result, passed, {"decay.csv": csv}


def _run_gibbs(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    spec = diagonalize(build_model(config["model"], lat, seed=config["seed"]))
    reports = [
        check_gibbs_identities(spec, float(b)) for b in config["betas"]
    ]
    passed = all(r.passed for r in reports)
    return {"identities": [_clean(r) for r in reports]}, passed, {}


RUNNERS = {
    "spectrum": _run_spectrum,
    "scan": _run_scan,
    "equilibrate": _run_equilibrate,
    "theorem1": _run_theorem1,
    "prop1": _run_prop1,
    "overlap": _run_overlap,
    "rates": _run_rates,
    "stability": _run_stability,
    "mps": _run_mps,
    "gibbs": _run_gibbs,
}


def build_config(experiment: str, overrides: dict) -> dict:
    if experiment not in DEFAULTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    config = dict(DEFAULTS[experiment])
    unknown = set(overrides) - set(config)
    if unknown:
        raise ConfigError(
            f"unknown keys for {experiment}: {sorted(unknown)}; "
            f"allowed: {sorted(config)}"
        )
    config.update({k: v for k, v in overrides.items() if v is not None})
    _validate(experiment, config)
    config["experiment"] = experiment
    return config


def _validate(experiment: str, config: dict) -> None:
    """Reject values the runners cannot use, before any of them starts.

    Each value goes through the library check that would reject it at run
    time: lattices, search policies, size grids, state recipes, observable
    axes and sites, the family weight and inverse temperatures.  The
    sample count of `rates` is checked here, since its loop is the runner's
    own.  A lattice beyond the index range still raises ResourceGuardError.
    """
    try:
        if experiment == "theorem1":
            sizes = growth_sizes(config["sizes"])
        elif experiment == "prop1":
            sizes = family_sizes(config["sizes"])
        elif "sites" in config:
            sizes = (int(config["sites"]),)
        else:
            sizes = ()
        lattices = [
            LatticeSpec(n, int(config.get("local_dim", 2)), config.get("geometry", "chain-open"))
            for n in sizes
        ]
        if "model" in config and config["model"] not in MODEL_NAMES:
            raise ConfigError(f"unknown model {config['model']!r}; catalog: {MODEL_NAMES}")
        if "mode" in config:
            policy = _policy_from(config)
            for n in sizes:
                policy.max_size(n)
        if "recipe" in config and config["recipe"] not in STATE_RECIPES:
            raise ConfigError(
                f"unknown state recipe {config['recipe']!r}; one of {STATE_RECIPES}"
            )
        if "axis" in config:
            pauli(config["axis"])
        if config.get("site") is not None:
            SiteSet(lattices[0], (int(config["site"]),))
        if "epsilon" in config:
            family_epsilon(config["epsilon"])
        for beta in config.get("betas", ()):
            inverse_temperature(beta)
        if experiment == "rates" and int(config["samples"]) < 1:
            raise ConfigError("rates needs at least one sample")
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def run(config: dict) -> tuple[int, dict]:
    """Execute one experiment; deterministic under (config, seed)."""
    config = dict(config)
    experiment = config.pop("experiment", None)
    if experiment not in RUNNERS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    config = build_config(experiment, config)
    experiment_name = config.pop("experiment")
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    result, passed, files = RUNNERS[experiment_name](config)
    result = _clean(result)
    report = {
        "experiment": experiment_name,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "catalog_version": CATALOG_VERSION,
        "package_version": __version__,
        "tolerances": TOL.as_dict(),
        "scope": SCOPE_NOTE,
        "result": result,
        "passed": bool(passed),
    }
    report["_files"] = files
    return (0 if passed else 1), report


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Equilibration and entanglement checks for finite spin chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="ergolab-out", help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("spectrum", help="diagonalize a catalog model")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--gap-tolerance", dest="gap_tolerance", type=float, default=None)

    p = sub.add_parser("scan", help="per-eigenstate entanglement scan")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-fraction", dest="max_fraction", type=float, default=None)
    p.add_argument("--policy-seed", dest="policy_seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)

    p = sub.add_parser("equilibrate", help="variance and subsystem bounds")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--recipe", default=None)
    p.add_argument("--site", type=int, default=None)
    p.add_argument("--axis", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument(
        "--subsystem-samples", dest="subsystem_samples", type=int, default=None
    )

    p = sub.add_parser("theorem1", help="min-entropy growth trend")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sizes", dest="sizes", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--N-grid", dest="sizes", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--recipe", default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--max-fraction", dest="max_fraction", type=float, default=None)
    p.add_argument("--policy-seed", dest="policy_seed", type=int, default=None)
    p.add_argument("--bins", type=int, default=None)

    p = sub.add_parser("prop1", help="interpolation family profile")
    common(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sizes", dest="sizes", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--N-grid", dest="sizes", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--local-dim", dest="local_dim", type=int, default=None)

    p = sub.add_parser("overlap", help="product-overlap bound check")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--state-index", dest="state_index", type=int, default=None)
    p.add_argument("--region", type=_int_list, default=None, metavar="s1,s2,...")
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("rates", help="entangling-rate bounds")
    common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--recipe", default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--t-points", dest="t_points", type=int, default=None)

    p = sub.add_parser("stability", help="scan stability under conjugation")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--generator", default=None)
    p.add_argument("--time", type=float, default=None)

    p = sub.add_parser("mps", help="product-overlap decay of a TI MPS")
    common(p)
    p.add_argument("--spec-json", dest="spec_json", type=str, default=None)
    p.add_argument("--ghz", action="store_const", const=True, default=None)
    p.add_argument("--sizes", dest="sizes", type=_int_list, default=None, metavar="N1,N2,...")
    p.add_argument("--no-refine", dest="refine", action="store_const", const=False, default=None)

    p = sub.add_parser("gibbs", help="thermal identities")
    common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default=None)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--geometry", default=None)
    p.add_argument("--betas", type=_float_list, default=None, metavar="b1,b2,...")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("experiment", "config", "out") and v is not None
    }
    try:
        base: dict = {}
        if args.config:
            base = json.loads(Path(args.config).read_text())
            if not isinstance(base, dict):
                raise ConfigError("config file must hold a JSON object")
        base.pop("experiment", None)
        base.update(overrides)
        config = build_config(args.experiment, base)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(config)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    files = report.pop("_files", {})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    for name, content in files.items():
        (out_dir / name).write_text(content)
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.experiment}: {status} (report: {out_dir / 'report.json'})")
    return code


if __name__ == "__main__":
    sys.exit(main())
