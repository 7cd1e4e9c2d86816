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
from collections.abc import Callable, Mapping
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
    check_sampling,
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
    envelope_bins,
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
    gap_tolerance,
    inverse_temperature,
    trace_energy_density,
)
from .mps import (  # noqa: E402
    MPSSpec,
    decay_sizes,
    ghz_spec,
    mps_overlap_decay,
    mps_to_dense,
    product_overlap_transfer,
    random_injective_spec,
)
from .operators import pauli, random_density, random_hermitian  # noqa: E402
from .overlaps import (  # noqa: E402
    constant_entropy_bound,
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
from .states import LatticeSpec, PureState, SiteSet, site_set  # noqa: E402
from .tolerances import TOL  # noqa: E402

SCOPE_NOTE = (
    "asymptotic statements are exercised as finite-size trends at desk scale; "
    "quantitative tolerances are stated per check"
)


class ConfigError(ValueError):
    pass


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
        horizon=config["horizon"],
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
        ["N", "s_inf", "e_center"], zip(report.sizes, report.s_inf, report.e_centers)
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
        ["N", "s1", "overlap_sq"], zip(report.sizes, report.s1, report.overlap_sq)
    )
    return _clean(report), report.passed, {"family.csv": csv}


def _run_overlap(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    spec = diagonalize(build_model(config["model"], lat, seed=config["seed"]))
    idx = config["state_index"]
    idx = spec.dim // 2 if idx is None else int(idx)
    state = PureState(lat, spec.eigenvectors[:, idx].astype(complex))
    region = config["region"] or tuple(range(lat.num_sites // 2))
    report = overlap_bound_check(
        state,
        tuple(int(s) for s in region),
        alphas=tuple(float(a) for a in config["alphas"]),
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
    csv = _csv_text(["t", "s2", "bound"], zip(integ.times, integ.s2_values, integ.bounds))
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
    else:
        t = 1.0 if config["time"] is None else float(config["time"])
        qlu = QuasiLocalUnitary(build_model(gen, lat, seed=config["seed"] + 1), t)
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
    reports = [check_gibbs_identities(spec, float(b)) for b in config["betas"]]
    passed = all(r.passed for r in reports)
    return {"identities": [_clean(r) for r in reports]}, passed, {}


def _mps_rings(config: dict) -> tuple[int, ...]:
    # ring sizes of the decay fit, in the spec's local dimension: no lattice
    decay_sizes(config["sizes"])
    return ()


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One subcommand: its help line, runner and default config.

    `chains` checks the size grid and returns the chain sizes the runner
    builds lattices for; `aliases` adds flag spellings for a config key.
    """

    help: str
    runner: Callable[[dict], tuple[dict, bool, dict]]
    defaults: dict
    chains: Callable[[dict], tuple[int, ...]] = lambda config: (int(config["sites"]),)
    aliases: Mapping[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)


_MODEL = {"model": "mixed-field-ising", "seed": 0, "geometry": "chain-open"}
_LATTICE = {**_MODEL, "sites": 8}
_POLICY = {
    "mode": "random-sample", "budget": 500, "max_fraction": 0.5, "policy_seed": 0, "bins": 20
}
_N_GRID = {"sizes": ("--N-grid",)}

EXPERIMENT_TABLE: dict[str, Experiment] = {
    "spectrum": Experiment(
        "diagonalize a catalog model", _run_spectrum, {**_LATTICE, "gap_tolerance": None}
    ),
    "scan": Experiment("per-eigenstate entanglement scan", _run_scan, {**_LATTICE, **_POLICY}),
    "equilibrate": Experiment(
        "variance and subsystem bounds",
        _run_equilibrate,
        {**_LATTICE, "recipe": "random-product", "site": None, "axis": "Z", "samples": 2000,
         "horizon": None, "subsystem_samples": 200},
    ),
    "theorem1": Experiment(
        "min-entropy growth trend",
        _run_theorem1,
        {**_MODEL, "sizes": [6, 8, 10, 12], "recipe": "neel", **_POLICY},
        chains=lambda config: growth_sizes(config["sizes"]),
        aliases=_N_GRID,
    ),
    "prop1": Experiment(
        "interpolation family profile",
        _run_prop1,
        {"epsilon": 0.3, "sizes": [6, 8, 10, 12], "local_dim": 2, "seed": 0},
        chains=lambda config: family_sizes(config["sizes"]),
        aliases=_N_GRID,
    ),
    "overlap": Experiment(
        "product-overlap bound check",
        _run_overlap,
        {**_LATTICE, "state_index": None, "region": None, "samples": 200,
         "alphas": [2.0, 3.0, "inf"]},
    ),
    "rates": Experiment(
        "entangling-rate bounds",
        _run_rates,
        {**_LATTICE, "samples": 2000, "recipe": "random-product", "t_max": 5.0, "t_points": 11},
    ),
    "stability": Experiment(
        "scan stability under conjugation",
        _run_stability,
        {**_LATTICE, "sites": 10, "generator": "layer", "time": None},
    ),
    "mps": Experiment(
        "product-overlap decay of a TI MPS",
        _run_mps,
        {"spec_json": None, "ghz": False, "seed": 0, "sizes": list(range(8, 65, 4)),
         "refine": True},
        chains=_mps_rings,
    ),
    "gibbs": Experiment(
        "thermal identities", _run_gibbs, {**_LATTICE, "betas": [0.2, 1.0, 5.0]}
    ),
}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


# Flag of each config key, spelled --key-with-dashes unless "flag" says
# otherwise; a key missing here (alphas) is set from a config file only.
FLAGS: dict[str, dict] = {
    **dict.fromkeys(
        ("sites", "seed", "budget", "policy_seed", "bins", "site", "samples",
         "subsystem_samples", "local_dim", "state_index", "t_points"),
        {"type": int},
    ),
    **dict.fromkeys(
        ("gap_tolerance", "max_fraction", "horizon", "epsilon", "t_max", "time"),
        {"type": float},
    ),
    **dict.fromkeys(
        ("geometry", "mode", "recipe", "axis", "generator", "spec_json"), {"type": str}
    ),
    "model": {"type": str, "choices": MODEL_NAMES},
    "sizes": {"type": _int_list, "metavar": "N1,N2,..."},
    "region": {"type": _int_list, "metavar": "s1,s2,..."},
    "betas": {"type": _float_list, "metavar": "b1,b2,..."},
    "ghz": {"action": "store_const", "const": True},
    "refine": {"flag": "--no-refine", "action": "store_const", "const": False},
}


def build_config(experiment: str, overrides: dict) -> dict:
    if experiment not in EXPERIMENT_TABLE:
        raise ConfigError(f"unknown experiment {experiment!r}")
    config = dict(EXPERIMENT_TABLE[experiment].defaults)
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
    time; the sample loop and time grid of `rates` and the conjugation of
    `stability` are the runners' own, so they are checked here.  A lattice
    beyond the index range still raises ResourceGuardError.
    """
    try:
        sizes = EXPERIMENT_TABLE[experiment].chains(config)
        lattices = [
            LatticeSpec(n, int(config.get("local_dim", 2)), config.get("geometry", "chain-open"))
            for n in sizes
        ]
        if int(config["seed"]) < 0:
            raise ConfigError("seed must be non-negative")
        if "model" in config and config["model"] not in MODEL_NAMES:
            raise ConfigError(f"unknown model {config['model']!r}; catalog: {MODEL_NAMES}")
        if "mode" in config:
            policy = _policy_from(config)
            for n in sizes:
                policy.max_size(n)
        if "bins" in config:
            envelope_bins(config["bins"])
        if "recipe" in config and config["recipe"] not in STATE_RECIPES:
            raise ConfigError(
                f"unknown state recipe {config['recipe']!r}; one of {STATE_RECIPES}"
            )
        if "axis" in config:
            pauli(config["axis"])
        if config.get("site") is not None:
            SiteSet(lattices[0], (int(config["site"]),))
        if "horizon" in config:  # equilibrate: both time averages use it
            check_sampling(config["samples"], config["horizon"], 2)
            check_sampling(config["subsystem_samples"], config["horizon"], 1)
        if config.get("region"):
            SiteSet(lattices[0], tuple(int(s) for s in config["region"]))
        elif experiment in ("overlap", "rates", "stability"):  # the default half-chain region
            site_set(lattices[0], range(lattices[0].num_sites // 2))
        if config.get("state_index") is not None:
            idx = int(config["state_index"])
            if not 0 <= idx < lattices[0].dim:
                raise ConfigError(f"state index {idx} outside spectrum")
        if any(float(a) <= 1 for a in config.get("alphas", ())):
            raise ConfigError("the overlap bound holds for alpha > 1 only")
        if "alphas" in config and int(config["samples"]) < 0:  # overlap
            raise ConfigError("overlap needs a non-negative sample count")
        if "epsilon" in config:
            constant_entropy_bound(config["epsilon"], float("inf"))
        for beta in config.get("betas", ()):
            inverse_temperature(beta)
        if "gap_tolerance" in config:
            gap_tolerance(config["gap_tolerance"])
        if "t_points" in config:  # rates
            if min(int(config["samples"]), int(config["t_points"])) < 1:
                raise ConfigError("rates needs at least one sample and one time point")
            if not np.isfinite(float(config["t_max"])):
                raise ConfigError("rates needs a finite t_max")
        if "generator" in config:  # stability
            if config["generator"] not in ("layer", *MODEL_NAMES):
                raise ConfigError(f"generator must be 'layer' or one of {MODEL_NAMES}")
            if config["time"] is not None and not np.isfinite(float(config["time"])):
                raise ConfigError("conjugation time must be finite")
        if config.get("spec_json") and not config.get("ghz"):
            MPSSpec.from_json(Path(config["spec_json"]).read_text())
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from None


def run(config: dict) -> tuple[int, dict]:
    """Execute one experiment; deterministic under (config, seed)."""
    config = dict(config)
    experiment = config.pop("experiment", None)
    if experiment not in EXPERIMENT_TABLE:
        raise ConfigError(f"experiment must be one of {tuple(EXPERIMENT_TABLE)}")
    config = build_config(experiment, config)
    del config["experiment"]
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    result, passed, files = EXPERIMENT_TABLE[experiment].runner(config)
    report = {
        "experiment": experiment,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "catalog_version": CATALOG_VERSION,
        "package_version": __version__,
        "tolerances": TOL.as_dict(),
        "scope": SCOPE_NOTE,
        "result": _clean(result),
        "passed": bool(passed),
        "_files": files,
    }
    return (0 if passed else 1), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="Equilibration and entanglement checks for finite spin chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, entry in EXPERIMENT_TABLE.items():
        p = sub.add_parser(name, help=entry.help)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="ergolab-out", help="output directory")
        for key in (k for k in entry.defaults if k in FLAGS):
            kwargs = dict(FLAGS[key])
            flag = kwargs.pop("flag", "--" + key.replace("_", "-"))
            p.add_argument(flag, *entry.aliases.get(key, ()), dest=key, default=None, **kwargs)
    return parser


def _config_file(path: str | None) -> dict:
    """The JSON object held in a config file; empty without a file."""
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("experiment", "config", "out") and v is not None
    }
    try:
        code, report = run(
            {**_config_file(args.config), **overrides, "experiment": args.experiment}
        )
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
