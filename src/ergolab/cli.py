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
import math
import os
import sys
from collections.abc import Callable, Mapping
from pathlib import Path


def _configure_threads() -> None:
    # BLAS runs one thread: the threads come from ergolab.deal, one per CPU,
    # whose deal does not change any product's rounding
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


_configure_threads()

import numpy as np  # noqa: E402
import numpy.random  # noqa: E402,F401  every experiment draws seeded numbers

from . import CATALOG_VERSION, __version__  # noqa: E402
from .circuits import brickwork, haar_unitary, layer_generator  # noqa: E402
from .ensembles import (  # noqa: E402
    DiagonalEnsemble,
    check_sampling,
    check_variance_bounds,
    evolve,
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
from .states import LatticeSpec, PureState, SiteSet, shown, site_set  # noqa: E402
from .tolerances import TOL  # noqa: E402

SCOPE_NOTE = (
    "asymptotic statements are exercised as finite-size trends at desk scale; "
    "quantitative tolerances are stated per check"
)


class ConfigError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _clean(obj):
    """`obj` as plain JSON values; a non-finite float becomes the string
    "inf", "-inf" or "nan", which strict JSON parsers accept."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _clean(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [_clean(obj.real), _clean(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _policy_from(config: dict) -> SearchPolicy:
    return SearchPolicy(
        mode=config["mode"],
        max_fraction=config["max_fraction"],
        budget=config["budget"],
        seed=config["policy_seed"],
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


def _model(config: dict):
    lat = LatticeSpec(config["sites"], 2, config["geometry"])
    return build_model(config["model"], lat, seed=config["seed"])


def _profile_csv(prof) -> str:
    """One row per eigenstate: index, density, S_2/N and the best subsystem
    as a hex site bitmask."""
    masks = (hex(sum(1 << site for site in sub)) for sub in prof.best_subsets)
    rows = enumerate(zip(prof.densities, prof.s2_over_n, masks))
    return _csv_text(["i", "e_i", "S2_over_N", "subsystem"], ((i, *row) for i, row in rows))


def _run_spectrum(config: dict):
    spec = diagonalize(_model(config), vectors=False)
    ham = spec.hamiltonian
    result = {
        "dim": spec.dim,
        "e_max": spec.e_max,
        "spectral_norm": spec.norm,
        "ground_shift": spec.ground_shift,
        "norm_rescale": ham.norm_rescale,
        "trace_energy_density": trace_energy_density(ham),
        "gap_report": gap_report(spec, tolerance=config["gap_tolerance"]),
        "params": ham.params,
    }
    csv = _csv_text(
        ["index", "energy", "density"],
        ((i, float(e), float(e) / spec.lattice.num_sites) for i, e in enumerate(spec.energies)),
    )
    return result, True, {"spectrum.csv": csv}


def _run_scan(config: dict):
    spec = diagonalize(_model(config))
    prof = build_profile(spec, _policy_from(config), num_bins=config["bins"])
    result = {
        "model": prof.model,
        "num_states": spec.dim,
        "knots_e": prof.knots_e,
        "knots_g": prof.knots_g,
        "lipschitz_k": prof.lipschitz_k,
        "ergodic_interior": prof.ergodic_interior,
        "policy": prof.policy,
    }
    return result, True, {"profile.csv": _profile_csv(prof)}


def _run_equilibrate(config: dict):
    spec = diagonalize(_model(config))
    lat = spec.lattice
    ens = DiagonalEnsemble(spec, initial_state(config["recipe"], lat, config["seed"]))
    target = config["site"] if config["site"] is not None else lat.num_sites // 2
    obs = site_observable(lat, target, config["axis"])
    bounds = check_variance_bounds(ens, obs)
    sampled = variance_sampled(
        ens, obs, horizon=config["horizon"], samples=config["samples"], seed=config["seed"]
    )
    gap_ok = abs(bounds.variance - sampled.value) <= max(
        0.05 * bounds.variance, 3.0 * sampled.stderr
    )
    sub = subsystem_equilibration(
        ens, (target,), samples=config["subsystem_samples"],
        horizon=config["horizon"], seed=config["seed"],
    )
    t_grid = np.linspace(0.0, 10.0 * spec.dim / max(spec.norm, 1e-12), 201)
    traj = expectation_trajectory(ens, obs, t_grid)
    csv = _csv_text(
        ["t", "expectation"], ((float(t), float(a)) for t, a in zip(t_grid, traj))
    )
    passed = bool(bounds.passed and gap_ok and sub.passed)
    result = {
        "variance_bounds": bounds,
        "variance_sampled": sampled,
        "sampled_agreement": gap_ok,
        "subsystem": sub,
    }
    return result, passed, {"trajectory.csv": csv}


def _run_theorem1(config: dict):
    report, runs = diagonal_entropy_growth(
        sizes=tuple(config["sizes"]),
        model=config["model"],
        recipe=config["recipe"],
        policy=_policy_from(config),
        num_bins=config["bins"],
        seed=config["seed"],
        geometry=config["geometry"],
    )
    csv = _csv_text(
        ["N", "s_inf", "e_center"], zip(report.sizes, report.s_inf, report.e_centers)
    )
    return report, report.passed, {"trend.csv": csv, "profile.csv": _profile_csv(runs[-1][3])}


def _run_prop1(config: dict):
    report = verify_epsilon_family(
        epsilon=config["epsilon"],
        sizes=tuple(config["sizes"]),
        local_dim=config["local_dim"],
        seed=config["seed"],
    )
    csv = _csv_text(
        ["N", "s1", "overlap_sq"], zip(report.sizes, report.s1, report.overlap_sq)
    )
    return report, report.passed, {"family.csv": csv}


def _run_overlap(config: dict):
    spec = diagonalize(_model(config))
    lat = spec.lattice
    idx = config["state_index"]
    idx = spec.dim // 2 if idx is None else idx
    state = PureState(lat, spec.eigenvectors[:, idx].astype(complex))
    region = config["region"] or tuple(range(lat.num_sites // 2))
    report = overlap_bound_check(
        state,
        tuple(region),
        alphas=tuple(float(a) for a in config["alphas"]),
        samples=config["samples"],
        seed=config["seed"],
    )
    return report, report.passed, {}


def _run_rates(config: dict):
    rng = np.random.default_rng(config["seed"])
    dims = (4, 4)
    worst_ratio = 0.0
    worst_rel = 0.0
    violations = 0
    for _ in range(config["samples"]):
        rho = random_density(16, rng)
        v = random_hermitian(16, rng, norm=1.0)
        rep = check_rate_bound(rho, dims, v)
        if not rep.passed:
            violations += 1
        worst_ratio = max(worst_ratio, rep.ratio)
        fd = entangling_rate_fd(rho, dims, v)
        rel = abs(rep.rate - fd) / max(abs(rep.rate), 1e-3)
        worst_rel = max(worst_rel, rel)
    ham = _model(config)
    lat = ham.lattice
    psi = initial_state(config["recipe"], lat, config["seed"])
    region = tuple(range(lat.num_sites // 2))
    t_grid = np.linspace(0.0, config["t_max"], config["t_points"])
    spectral = diagonalize(ham)
    integ = integrated_bound_check(psi, spectral, region, t_grid)
    # at t = 0 a product state's S_2 sits at its minimum, where every rate is 0
    bnd = boundary_rate(evolve(spectral, psi, config["t_max"]), region, ham)
    passed = bool(
        violations == 0 and worst_rel <= 1e-6 and integ.passed and bnd.passed
    )
    result = {
        "samples": config["samples"],
        "bound_violations": violations,
        "max_bound_ratio": worst_ratio,
        "max_fd_relative_error": worst_rel,
        "integrated": integ,
        "boundary": bnd,
    }
    csv = _csv_text(["t", "s2", "bound"], zip(integ.times, integ.s2_values, integ.bounds))
    return result, passed, {"rates.csv": csv}


def _run_stability(config: dict):
    ham = _model(config)
    lat = ham.lattice
    gen = config["generator"]
    if gen == "layer":
        rng = np.random.default_rng(config["seed"] + 1)
        layer = brickwork(lat, 1, lambda i: haar_unitary(4, rng))[0]
        qlu = layer_generator(layer)
        if config["time"] is not None:
            qlu = QuasiLocalUnitary(qlu.generator, config["time"])
    else:
        t = 1.0 if config["time"] is None else config["time"]
        qlu = QuasiLocalUnitary(build_model(gen, lat, seed=config["seed"] + 1), t)
    report = stability_experiment(ham, qlu)
    return report, report.passed, {}


def _run_mps(config: dict):
    if config["ghz"]:
        spec = ghz_spec()
    elif config["spec_json"]:
        spec = MPSSpec.from_json(Path(config["spec_json"]).read_text())
    else:
        spec = random_injective_spec(seed=config["seed"])
    sizes = tuple(config["sizes"])
    decay = mps_overlap_decay(spec, sizes, refine=config["refine"])
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
        "decay": decay,
        "dense_transfer_agreement": agreement,
        "spec": json.loads(spec.to_json()),
    }
    logs = (math.log(v) if v > 0 else -math.inf for v in decay.max_overlaps)
    rows = zip(decay.sizes, decay.max_overlaps, logs)
    csv = _csv_text(["N", "max_overlap", "log_overlap"], rows)
    return result, passed, {"decay.csv": csv}


def _run_gibbs(config: dict):
    spec = diagonalize(_model(config))
    reports = [check_gibbs_identities(spec, b) for b in config["betas"]]
    passed = all(r.passed for r in reports)
    return {"identities": reports}, passed, {}


def _phases(time: float | None, config: dict, lat: LatticeSpec) -> None:
    """exp(-iEt) needs a finite t E; catalog terms have norm <= 1, so
    E - E_0 <= 2 x (number of terms).  None picks a finite default."""
    if time is not None:
        e_bound = 2 * len(build_model(config["model"], lat, seed=config["seed"]).terms)
        _require(math.isfinite(time * e_bound),
                 f"time {shown(time)} times the energy bound {e_bound} is not finite")


def _check_policy(config: dict, lattices) -> None:
    policy = _policy_from(config)
    for lat in lattices:
        policy.max_size(lat.num_sites)


def _check_equilibrate(config: dict, lattices) -> None:
    # both time averages run over the one horizon
    check_sampling(config["samples"], config["horizon"], 2)
    check_sampling(config["subsystem_samples"], config["horizon"], 1)
    _phases(config["horizon"], config, lattices[0])


def _check_rates(config: dict, lattices) -> None:
    CHECKS["region"](None, lattices[0])  # the runner's half-chain region
    _require(min(config["samples"], config["t_points"]) >= 1,
             "rates needs at least one sample and one time point")
    _phases(config["t_max"], config, lattices[0])


def _check_stability(config: dict, lattices) -> None:
    CHECKS["region"](None, lattices[0])  # the half chain whose S_2 shift is bounded
    _phases(config["time"], config, lattices[0])


def _check_mps(config: dict) -> None:
    decay_sizes(config["sizes"])  # ring sizes in the spec's local dimension
    if config["spec_json"] and not config["ghz"]:
        spec = MPSSpec.from_json(Path(config["spec_json"]).read_text())
        # mps_overlap_decay optimises qubit factors through 2x2 bond matrices
        _require(spec.local_dim == 2, f"mps needs a spec with local_dim 2, not {spec.local_dim}")
        _require(spec.bond_dim <= 2, f"mps needs a spec with bond_dim 1 or 2, not {spec.bond_dim}")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One subcommand: its help line, runner and default config.

    `chains` checks the size grid and returns the lattices the runner
    builds; `check` raises on values that are invalid only in combination
    with other keys; `aliases` adds flag spellings for a config key.
    """

    help: str
    runner: Callable[[dict], tuple[object, bool, dict]]
    defaults: dict
    chains: Callable[[dict], tuple] = lambda c: (LatticeSpec(c["sites"], 2, c["geometry"]),)
    check: Callable[[dict, tuple], None] = lambda config, lattices: None
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
    "scan": Experiment(
        "per-eigenstate entanglement scan", _run_scan, {**_LATTICE, **_POLICY}, check=_check_policy
    ),
    "equilibrate": Experiment(
        "variance and subsystem bounds",
        _run_equilibrate,
        {**_LATTICE, "recipe": "random-product", "site": None, "axis": "Z", "samples": 2000,
         "horizon": None, "subsystem_samples": 200},
        check=_check_equilibrate,
    ),
    "theorem1": Experiment(
        "min-entropy growth trend",
        _run_theorem1,
        {**_MODEL, "sizes": [6, 8, 10, 12], "recipe": "neel", **_POLICY},
        chains=lambda c: tuple(LatticeSpec(n, 2, c["geometry"]) for n in growth_sizes(c["sizes"])),
        check=_check_policy,
        aliases=_N_GRID,
    ),
    "prop1": Experiment(
        "interpolation family profile",
        _run_prop1,
        {"epsilon": 0.3, "sizes": [6, 8, 10, 12], "local_dim": 2, "seed": 0},
        chains=lambda c: tuple(LatticeSpec(n, c["local_dim"]) for n in family_sizes(c["sizes"])),
        aliases=_N_GRID,
    ),
    "overlap": Experiment(
        "product-overlap bound check",
        _run_overlap,
        {**_LATTICE, "state_index": None, "region": None, "samples": 200,
         "alphas": [2.0, 3.0, "inf"]},
        check=lambda c, _: _require(c["samples"] >= 0, "overlap needs a non-negative sample count"),
    ),
    "rates": Experiment(
        "entangling-rate bounds",
        _run_rates,
        {**_LATTICE, "samples": 2000, "recipe": "random-product", "t_max": 5.0, "t_points": 11},
        check=_check_rates,
    ),
    "stability": Experiment(
        "scan stability under conjugation",
        _run_stability,
        {**_LATTICE, "sites": 10, "generator": "layer", "time": None},
        check=_check_stability,
    ),
    "mps": Experiment(
        "product-overlap decay of a TI MPS",
        _run_mps,
        {"spec_json": None, "ghz": False, "seed": 0, "sizes": list(range(8, 65, 4)),
         "refine": True},
        chains=lambda config: (),
        check=lambda c, _: _check_mps(c),
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


def _betas(betas: list) -> None:
    _require(len(betas) > 0, "gibbs needs at least one inverse temperature")
    for beta in betas:
        inverse_temperature(beta)


# Check of each config key's own value on the experiment's first lattice
# (None for mps): the library check that would refuse it at run time, if any.
CHECKS: dict[str, Callable[[object, LatticeSpec | None], object]] = {
    "seed": lambda v, _: _require(v >= 0, "seed must be non-negative"),
    "model": lambda v, _: _require(v in MODEL_NAMES, f"unknown model {shown(v)}; catalog: {MODEL_NAMES}"),
    "bins": lambda v, _: envelope_bins(v),
    "recipe": lambda v, _: _require(
        v in STATE_RECIPES, f"unknown state recipe {shown(v)}; one of {STATE_RECIPES}"
    ),
    "axis": lambda v, _: pauli(v),
    "site": lambda v, lat: v is None or SiteSet(lat, (v,)),
    "region": lambda v, lat: site_set(lat, v or range(lat.num_sites // 2)),
    "state_index": lambda v, lat: v is None or _require(
        0 <= v < lat.dim, f"state index {shown(v)} outside spectrum"
    ),
    "epsilon": lambda v, _: constant_entropy_bound(v, math.inf),
    "betas": lambda v, _: _betas(v),
    "gap_tolerance": lambda v, _: gap_tolerance(v),
    "generator": lambda v, _: _require(
        v in ("layer", *MODEL_NAMES), f"generator must be 'layer' or one of {MODEL_NAMES}"
    ),
}


# The one spelling stored of a value that several spellings run alike
# (`alphas` is spelt once by _alpha): pauli reads either case, SiteSet
# sorts and deduplicates, and an empty region is the half chain, as None.
SPELLINGS: dict[str, Callable] = {
    "axis": str.upper,
    "region": lambda v: sorted(set(v or ())) or None,
}


def build_config(experiment: str, overrides: dict) -> dict:
    _require(experiment in EXPERIMENT_TABLE, f"unknown experiment {shown(experiment)}")
    config = dict(EXPERIMENT_TABLE[experiment].defaults)
    unknown = set(overrides) - set(config)
    _require(not unknown,
             f"unknown keys for {experiment}: {sorted(unknown)}; allowed: {sorted(config)}")
    try:
        config.update({k: _typed(k, v, config[k]) for k, v in overrides.items()})
    except OverflowError as exc:  # a JSON integer beyond the float range for a number key
        raise ConfigError(str(exc)) from None
    _validate(experiment, config)
    config.update({k: SPELLINGS[k](config[k]) for k in SPELLINGS if k in config})
    return config


_ELEMENT_TYPE = {_int_list: int, _float_list: float}
# the JSON types each flag type takes: an integer is no bool and no float
_ACCEPTS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}
_TYPE_NAME = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _typed(key: str, value, default):
    """`value` as the type its flag parses to, so a config file and a flag
    give the same config; ConfigError if it is not of that type.

    None stands for a default of None; `alphas`, which has no flag, takes a
    list of orders typed by _alpha.
    """
    if key == "alphas":
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"alphas must be a non-empty list, got {shown(value)}")
        return [_alpha(a) for a in value]
    if value is None and default is None or key not in FLAGS:
        return value
    kind = FLAGS[key].get("type", bool)  # the store_const switches set booleans
    element = _ELEMENT_TYPE.get(kind)
    if element is None:
        return _typed_scalar(key, value, kind)
    _require(isinstance(value, (list, tuple)), f"{key} must be a list, got {shown(value)}")
    return [_typed_scalar(key, v, element) for v in value]


def _alpha(value) -> float | str:
    """A Rényi order: a number or a numeric string above 1, stored as a
    float, or as "inf" (the spelling of the default) when infinite."""
    try:
        alpha = float(value) if type(value) in (int, float, str) else np.nan
    except ValueError:
        alpha = np.nan
    _require(alpha > 1, f"the overlap bound holds for alpha > 1 only, got {shown(value)}")
    return "inf" if alpha == np.inf else alpha


def _typed_scalar(key: str, value, kind: type):
    _require(type(value) in _ACCEPTS[kind], f"{key} must be {_TYPE_NAME[kind]}, got {shown(value)}")
    return float(value) if kind is float else value


def _validate(experiment: str, config: dict) -> None:
    """Reject values the runners cannot use, before any of them starts: the
    experiment's `chains`, each key's entry of CHECKS in table order, then
    the experiment's `check`.  A lattice beyond the index range raises
    ResourceGuardError."""
    entry = EXPERIMENT_TABLE[experiment]
    try:
        lattices = entry.chains(config)
        first = next(iter(lattices), None)
        for key in filter(config.__contains__, CHECKS):
            CHECKS[key](config[key], first)
        entry.check(config, lattices)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from None


def run(config: dict) -> tuple[int, dict]:
    """Execute one experiment; deterministic under (config, seed)."""
    config = dict(config)
    experiment = config.pop("experiment", None)
    _require(experiment in EXPERIMENT_TABLE, f"experiment must be one of {tuple(EXPERIMENT_TABLE)}")
    config = build_config(experiment, config)
    resolved = _clean(config)  # the report's config, hashed as written
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    result, passed, files = EXPERIMENT_TABLE[experiment].runner(config)
    report = {
        "experiment": experiment,
        "config": resolved,
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
    _require(isinstance(config, dict), "config file must hold a JSON object")
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
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    for name, content in files.items():
        (out_dir / name).write_text(content)
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.experiment}: {status} (report: {out_dir / 'report.json'})")
    return code


if __name__ == "__main__":
    sys.exit(main())
