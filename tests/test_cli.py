"""CLI plumbing: determinism, exit codes, report structure."""

import argparse
import ast
import dataclasses
import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab
from ergolab import CATALOG_VERSION
from ergolab import cli
from ergolab.cli import ConfigError, build_config, build_parser, main, run
from ergolab.ergodicity import SearchPolicy, build_profile
from ergolab.hamiltonians import ResourceGuardError, build_model, diagonalize
from ergolab.mps import random_injective_spec
from ergolab.states import LatticeSpec


def invoke(args, cwd):
    # The child runs in cwd, where a relative PYTHONPATH entry such as
    # "src" no longer resolves; put the directory holding the imported
    # package first so the child runs the same ergolab as this process.
    env = os.environ.copy()
    pkg_root = str(Path(ergolab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=600,
    )


def test_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        r = invoke(["spectrum", "--sites", "6", "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


def test_report_structure(tmp_path):
    out = tmp_path / "out"
    r = invoke(["gibbs", "--sites", "6", "--betas", "0.5,2.0", "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    for key in ("experiment", "config", "config_sha256", "catalog_version", "tolerances", "scope", "result", "passed"):
        assert key in rep
    assert rep["catalog_version"] == CATALOG_VERSION
    assert rep["experiment"] == "gibbs"
    assert rep["config"]["betas"] == [0.5, 2.0]
    assert rep["passed"] is True
    assert "timestamp" not in json.dumps(rep).lower()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 6, "betas": [9.0]}))
    out = tmp_path / "out"
    r = invoke(
        ["gibbs", "--config", str(cfg), "--betas", "1.0", "--out", str(out)],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["betas"] == [1.0]
    assert rep["config"]["sites"] == 6


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 6, "volume": 3}))
    r = invoke(["gibbs", "--config", str(cfg)], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "volume" in r.stderr


def test_resource_guard_exits_3(tmp_path):
    r = invoke(["spectrum", "--sites", "20", "--out", str(tmp_path / "o")], tmp_path)
    assert r.returncode == 3, r.stderr
    assert "guard" in r.stderr.lower()


def test_prop1_dense_guard_exits_3(tmp_path):
    # 17^8 amplitudes would not fit; the guard trips before the first size
    r = invoke(["prop1", "--local-dim", "17", "--sizes", "4,6,8", "--out", str(tmp_path / "o")], tmp_path)
    assert r.returncode == 3, r.stderr
    assert "guard" in r.stderr.lower()
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("local_dim", [10**15, 10**30])  # 10**30 is beyond int64
def test_huge_local_dim_in_config_file_exits_3(local_dim, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"local_dim": local_dim}))
    out = tmp_path / "out"
    assert main(["prop1", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("resource guard: "), err
    assert not out.exists()


def test_failed_assertion_exits_1(tmp_path):
    out = tmp_path / "out"
    r = invoke(
        ["prop1", "--sizes", "6,8,10", "--out", str(out)],
        tmp_path,
    )
    assert r.returncode == 1, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is False
    assert rep["result"]["slope_ok"] is False


def test_spectrum_csv_rows(tmp_path):
    out = tmp_path / "out"
    r = invoke(["spectrum", "--sites", "6", "--out", str(out)], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,energy,density"
    assert len(lines) == 65


@pytest.mark.parametrize("sign", [1, -1])
def test_integers_beyond_the_repr_limit_keep_the_exit_contract(sign):
    # Python refuses the repr of an integer of more than 4300 digits; the
    # messages show such a value by its size
    huge = sign * 10**5000
    with pytest.raises(ConfigError, match="recipe must be a string, got a.* integer of 16610 bits"):
        build_config("rates", {"recipe": huge})
    with pytest.raises(ConfigError if sign < 0 else ResourceGuardError):
        build_config("rates", {"sites": huge})
    with pytest.raises(ConfigError, match="integer of 16610 bits"):
        build_config("overlap", {"region": [huge]})


def test_run_api_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        run({"experiment": "warp"})
    with pytest.raises(ConfigError):
        build_config("gibbs", {"volume": 1})
    with pytest.raises(ConfigError):
        run({"experiment": "gibbs", "sites": 0})
    with pytest.raises(ConfigError):  # alphas has no flag, only a config key
        build_config("overlap", {"alphas": [1.0, "inf"]})


@pytest.mark.parametrize(
    "args, code",
    [
        (["spectrum", "--sites", "0"], 2),  # lattice size
        (["spectrum", "--geometry", "ring"], 2),  # lattice geometry
        (["scan", "--mode", "bogus"], 2),  # search policy
        (["theorem1", "--sizes", "8,6"], 2),  # growth grid order
        (["prop1", "--sizes", "7,9,11"], 2),  # family grid parity
        (["spectrum", "--sites", "70"], 3),  # lattice beyond the index range
        (["prop1", "--epsilon", "2"], 2),  # family weight
        (["equilibrate", "--recipe", "bogus"], 2),  # state recipe
        (["equilibrate", "--axis", "Q"], 2),  # observable axis
        (["equilibrate", "--site", "99"], 2),  # observable site
        (["gibbs", "--betas", "-1"], 2),  # inverse temperature
        (["rates", "--samples", "0"], 2),  # sample count
        (["prop1", "--epsilon", "1"], 2),  # family weight with a divergent bound
        (["equilibrate", "--samples", "1"], 2),  # sampled variance needs a stderr
        (["equilibrate", "--subsystem-samples", "0"], 2),  # subsystem sample count
        (["equilibrate", "--horizon", "-1"], 2),  # time horizon
        (["overlap", "--region", "99"], 2),  # overlap region
        (["rates", "--t-points", "0"], 2),  # time grid
        (["rates", "--t-max", "nan"], 2),  # time grid end
        (["scan", "--bins", "0"], 2),  # envelope bins
        (["mps", "--sizes", "8"], 2),  # decay fit over one size
        (["prop1", "--sizes", "6,6,6"], 2),  # family grid of one distinct size
        (["overlap", "--state-index", "999"], 2),  # eigenstate index
        (["stability", "--generator", "bogus"], 2),  # conjugation generator
        (["stability", "--time", "nan"], 2),  # conjugation time
        (["mps", "--spec-json", str(Path(__file__).with_name("no-such-spec.json"))], 2),  # missing spec
        (["mps", "--spec-json", __file__], 2),  # spec file that is not JSON
        (["gibbs", "--betas", "nan"], 2),  # inverse temperature
        (["gibbs", "--betas", "inf"], 2),  # inverse temperature
        (["spectrum", "--gap-tolerance", "nan"], 2),  # gap tolerance
        (["spectrum", "--gap-tolerance", "-1"], 2),  # gap tolerance
        (["mps", "--seed", "-1"], 2),  # seed of the random spec
        (["scan", "--sites", "6", "--policy-seed", "-1"], 2),  # candidate pool seed
        (["spectrum", "--sites", "4", "--model", "xxz-disordered", "--seed", "-1"], 2),  # field seed
        (["spectrum", "--sites", "4", "--seed", "-1"], 2),  # seed a model draws nothing from
        (["overlap", "--samples", "-1"], 2),  # random product-state count
        (["overlap", "--sites", "1"], 2),  # empty default half-chain region
        (["rates", "--sites", "1"], 2),  # empty default half-chain region
        (["stability", "--sites", "1"], 2),  # empty default half-chain region
        (["mps", "--sizes", "0,8"], 2),  # ring of no sites
        (["gibbs", "--betas", ""], 2),  # no inverse temperature to check
        (["equilibrate", "--horizon", "5e307"], 2),  # t E overflows the phases
        (["rates", "--t-max", "1e308"], 2),  # t E overflows the phases
        (["stability", "--time", "1e308"], 2),  # t E overflows the phases
        (["stability", "--sites", "4", "--time", "1e308"], 2),  # t E overflows the phases
        (["stability", "--generator", "mixed-field-ising", "--sites", "6", "--time", "1e308"], 2),
        (["scan", "--max-fraction", "0"], 2),  # admits no subsystem
        (["scan", "--max-fraction", "0.6"], 2),  # beyond half the chain
        (["scan", "--budget", "0"], 2),  # candidate budget
        (["scan", "--sites", "1"], 2),  # no subsystem to scan
        (["theorem1", "--sizes", "6"], 2),  # growth grid of one size
        (["theorem1", "--recipe", "bogus"], 2),  # state recipe
        (["rates", "--recipe", "bogus"], 2),  # state recipe
        (["prop1", "--local-dim", "1"], 2),  # family local dimension
        (["theorem1", "--geometry", "ring"], 2),  # lattice geometry of every size
        (["spectrum", "--sites", str(10**400)], 3),  # a lattice size with no float
    ],
)
def test_invalid_value_rejected_before_run(args, code, tmp_path, capsys, monkeypatch):
    def runner_started(config):
        raise AssertionError("a runner started on an invalid config")

    table = {
        name: dataclasses.replace(entry, runner=runner_started)
        for name, entry in cli.EXPERIMENT_TABLE.items()
    }
    monkeypatch.setattr(cli, "EXPERIMENT_TABLE", table)
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, values",
    [
        ("spectrum", {"seed": 1.5, "model": "xxz-disordered"}),  # float seed
        ("spectrum", {"sites": 6.5}),  # float size
        ("spectrum", {"sites": True}),  # a bool is not an integer
        ("spectrum", {"sites": None}),  # null where the default is a number
        ("equilibrate", {"axis": 3}),  # number for a string
        ("scan", {"budget": 2.5}),  # float budget, no truncation
        ("mps", {"ghz": "no"}),  # string for a switch
        ("mps", {"sizes": [-4, 8]}),  # ring of negative size
        ("mps", {"sizes": [8.5, 12]}),  # float in an integer list
        ("overlap", {"region": "0,1"}),  # string for a list
        ("gibbs", {"betas": [1.0, "2"]}),  # string in a number list
        ("overlap", {"alphas": [2, "x"]}),  # string that is no number
        ("overlap", {"alphas": [2, "nan"]}),  # order that is not above 1
        ("overlap", {"alphas": "2"}),  # string for a list
        ("overlap", {"alphas": []}),  # no order to check
        ("gibbs", {"betas": []}),  # no inverse temperature to check
        ("equilibrate", {"horizon": 5e307}),  # t E overflows the phases
        ("rates", {"t_max": 1e308}),  # t E overflows the phases
        ("stability", {"time": 1e308}),  # t E overflows the phases
        ("spectrum", {"model": "bogus"}),  # argparse choices catch the flag, not the file
        ("rates", {"t_max": 10**400}),  # an integer with no float
    ],
)
def test_invalid_config_file_value_rejected_before_run(
    experiment, values, tmp_path, capsys, monkeypatch
):
    # values read from --config skip the flags' argparse types
    def runner_started(config):
        raise AssertionError("a runner started on an invalid config")

    monkeypatch.setitem(
        cli.EXPERIMENT_TABLE, experiment,
        dataclasses.replace(cli.EXPERIMENT_TABLE[experiment], runner=runner_started),
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not out.exists()


_SCALARS = st.one_of(
    st.integers(),
    st.integers(-(10**400), 10**400),  # beyond the float range, as JSON can spell them
    st.floats(),  # nan, +-inf and subnormals included
    st.sampled_from([1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
)
_KEYS = [
    (name, key)
    for name, entry in cli.EXPERIMENT_TABLE.items()
    for key in (*entry.defaults, "unknown_key")
]


def _runner_started(config):
    raise AssertionError("a runner started on a config under validation")


_NO_RUNNERS = {
    name: dataclasses.replace(entry, runner=_runner_started)
    for name, entry in cli.EXPERIMENT_TABLE.items()
}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_KEYS), st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)))
def test_any_single_override_is_accepted_or_exits_2_or_3(case, value):
    # the exit-code contract for invalid values: every refusal is a
    # ConfigError (exit 2) or a ResourceGuardError (exit 3)
    experiment, key = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "EXPERIMENT_TABLE", _NO_RUNNERS)
        try:
            build_config(experiment, {key: value})
        except (ConfigError, ResourceGuardError):
            pass


def test_config_file_and_flag_write_the_same_report(tmp_path):
    # an integer t_max from a file is stored as the float the flag parses to
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 5}))
    base = ["rates", "--sites", "4", "--samples", "3", "--t-points", "3"]
    assert main([*base, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert main([*base, "--t-max", "5", "--out", str(tmp_path / "flag")]) == 0
    report = (tmp_path / "file" / "report.json").read_bytes()
    assert report == (tmp_path / "flag" / "report.json").read_bytes()
    assert json.loads(report)["config"]["t_max"] == 5.0


def test_alphas_spellings_write_one_config(tmp_path):
    # a JSON Infinity token, "Infinity", "inf", 2 and "2" name the same orders
    reports = []
    for i, alphas in enumerate((["2", "inf"], [2.0, "inf"], [2, "Infinity"], [2, float("inf")])):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"alphas": alphas}))
        out = tmp_path / f"out{i}"
        assert main(["overlap", "--sites", "4", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
    assert reports[0]["config"]["alphas"] == [2.0, "inf"]
    for rep in reports[1:]:
        assert rep["config"] == reports[0]["config"]
        assert rep["config_sha256"] == reports[0]["config_sha256"]


@pytest.mark.parametrize(
    "experiment, spelling, canonical",
    [
        ("equilibrate", {"axis": "x"}, {"axis": "X"}),
        ("overlap", {"region": [3, 2]}, {"region": [2, 3]}),
        ("overlap", {"region": [1, 1]}, {"region": [1]}),
        ("overlap", {"region": []}, {"region": None}),
    ],
)
def test_spellings_of_one_check_write_one_config(experiment, spelling, canonical):
    # pauli reads either case, SiteSet sorts and deduplicates, and an empty
    # region is the half chain: the config stores the spelling the check runs
    want = run({"experiment": experiment, "sites": 4, **canonical})
    got = run({"experiment": experiment, "sites": 4, **spelling})
    assert got[1]["config_sha256"] == want[1]["config_sha256"]
    assert got == want


def _refuse_constant(token):
    raise ValueError(f"bare {token} in a report")


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--sites", "4", "--gap-tolerance", "inf"],
        ["scan", "--sites", "6"],
        ["equilibrate", "--sites", "4"],
        ["theorem1", "--sizes", "4,6"],
        ["prop1", "--sizes", "4,6,8"],
        ["overlap", "--sites", "4"],
        ["rates", "--sites", "4", "--samples", "3", "--t-points", "3"],
        ["stability", "--sites", "4"],
        ["mps", "--sizes", "8,12"],
        ["gibbs", "--sites", "4"],
    ],
    ids=lambda args: args[0],
)
def test_reports_are_strict_json(args, tmp_path):
    # overlap's alpha = inf and prop1's S_inf bound once came out as Infinity;
    # the hash is that of the config as the report writes it
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) in (0, 1)
    rep = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    canonical = json.dumps(rep["config"], sort_keys=True, separators=(",", ":"))
    assert rep["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()


def test_mps_spec_of_other_local_dim_rejected_before_run(tmp_path, capsys, monkeypatch):
    # the overlap optimiser handles qubit factors only; a qutrit spec used
    # to reach it and exit 1 with a NotImplementedError traceback
    def runner_started(config):
        raise AssertionError("a runner started on a qutrit spec")

    monkeypatch.setitem(
        cli.EXPERIMENT_TABLE, "mps",
        dataclasses.replace(cli.EXPERIMENT_TABLE["mps"], runner=runner_started),
    )
    spec = tmp_path / "spec3.json"
    spec.write_text(random_injective_spec(bond_dim=2, local_dim=3, seed=1).to_json())
    out = tmp_path / "out"
    assert main(["mps", "--spec-json", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: mps needs a spec with local_dim 2, not 3"]
    assert not out.exists()


@pytest.mark.parametrize("bond_dim", [3, 4])
def test_mps_spec_of_other_bond_dim_rejected_before_run(bond_dim, tmp_path, capsys, monkeypatch):
    # the overlap optimiser's closed-form eigenvalues are those of 2x2
    # matrices; a bond-3 spec used to exit 0 as a product state
    def runner_started(config):
        raise AssertionError("a runner started on a spec of bond dimension above 2")

    monkeypatch.setitem(
        cli.EXPERIMENT_TABLE, "mps",
        dataclasses.replace(cli.EXPERIMENT_TABLE["mps"], runner=runner_started),
    )
    spec = tmp_path / "spec.json"
    spec.write_text(random_injective_spec(bond_dim=bond_dim, seed=2).to_json())
    out = tmp_path / "out"
    assert main(["mps", "--spec-json", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"config error: mps needs a spec with bond_dim 1 or 2, not {bond_dim}"]
    assert not out.exists()


def test_cli_imports_and_runs_without_scipy(tmp_path):
    # scipy's import cost more than most runs; no experiment may load it
    code = (
        "import sys\n"
        "from ergolab import cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(loaded())\n"
        "cli.run({'experiment': 'stability', 'sites': 6})\n"
        "code, report = cli.run({'experiment': 'mps', 'sizes': [8, 12, 16]})\n"
        "assert report['result']['decay']['refined'], report['result']['decay']\n"
        "print(loaded())\n"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(ergolab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_fits_and_decay_runs_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 11 ms per process; no line fit needs it
    code = (
        "import sys\n"
        "from ergolab import cli\n"
        "cli.run({'experiment': 'theorem1', 'sizes': [4, 6]})\n"
        "cli.run({'experiment': 'mps', 'sizes': [8, 12, 16]})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = str(Path(ergolab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


def test_worker_count_is_the_affinity_count(cpus, monkeypatch):
    assert ergolab.worker_count() == len(os.sched_getaffinity(0))
    cpus(3)
    assert ergolab.worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ergolab.worker_count() == (os.cpu_count() or 1)


# one small run of every experiment; theorem1, stability and gibbs wrote
# other bytes on two workers while BLAS took its threads from their count
EVERY_EXPERIMENT = [
    ["spectrum"], ["scan"], ["equilibrate"], ["theorem1", "--sizes", "6,8,10"], ["prop1"],
    ["overlap"], ["rates", "--samples", "200"], ["stability", "--sites", "10"], ["mps"],
    ["gibbs", "--sites", "8"],
]


def test_reports_do_not_depend_on_the_thread_count(tmp_path):
    assert sorted(args[0] for args in EVERY_EXPERIMENT) == sorted(cli.EXPERIMENT_TABLE)
    # each child shows itself 1 or 2 CPUs before ergolab loads, so the
    # deals take 1 or 2 workers on any host
    code = (
        "import json, os, sys\n"
        "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))\n"
        "from ergolab import cli\n"
        "runs = json.loads(sys.argv[1])\n"
        "print(json.dumps([cli.main([*args, '--out', args[0]]) for args in runs]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(ergolab.__file__).resolve().parents[1])
    procs = {}
    for threads in ("1", "2"):  # side by side: the bytes may not depend on the load either
        (tmp_path / threads).mkdir()
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(EVERY_EXPERIMENT), threads],
            cwd=tmp_path / threads, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    codes = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        codes[threads] = json.loads(out.splitlines()[-1])
    assert codes["1"] == codes["2"]
    for args in EVERY_EXPERIMENT:
        one, two = (tmp_path / threads / args[0] for threads in ("1", "2"))
        names = sorted(p.name for p in one.iterdir())
        assert "report.json" in names and names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert filecmp.cmp(one / name, two / name, shallow=False), (args, name)


_COMMON = {"--config": "config", "--out": "out", "--seed": "seed"}
# Every subcommand's flags and their config keys, copied from the parser
# as it was written by hand before it was generated from the table.
CLI_SURFACE = {
    "spectrum": {
        **_COMMON, "--gap-tolerance": "gap_tolerance", "--geometry": "geometry",
        "--model": "model", "--sites": "sites",
    },
    "scan": {
        **_COMMON, "--bins": "bins", "--budget": "budget", "--geometry": "geometry",
        "--max-fraction": "max_fraction", "--mode": "mode", "--model": "model",
        "--policy-seed": "policy_seed", "--sites": "sites",
    },
    "equilibrate": {
        **_COMMON, "--axis": "axis", "--geometry": "geometry", "--horizon": "horizon",
        "--model": "model", "--recipe": "recipe", "--samples": "samples", "--site": "site",
        "--sites": "sites", "--subsystem-samples": "subsystem_samples",
    },
    "theorem1": {
        **_COMMON, "--N-grid": "sizes", "--bins": "bins", "--budget": "budget",
        "--geometry": "geometry", "--max-fraction": "max_fraction", "--mode": "mode",
        "--model": "model", "--policy-seed": "policy_seed", "--recipe": "recipe",
        "--sizes": "sizes",
    },
    "prop1": {
        **_COMMON, "--N-grid": "sizes", "--epsilon": "epsilon", "--local-dim": "local_dim",
        "--sizes": "sizes",
    },
    "overlap": {
        **_COMMON, "--geometry": "geometry", "--model": "model", "--region": "region",
        "--samples": "samples", "--sites": "sites", "--state-index": "state_index",
    },
    "rates": {
        **_COMMON, "--geometry": "geometry", "--model": "model", "--recipe": "recipe",
        "--samples": "samples", "--sites": "sites", "--t-max": "t_max",
        "--t-points": "t_points",
    },
    "stability": {
        **_COMMON, "--generator": "generator", "--geometry": "geometry", "--model": "model",
        "--sites": "sites", "--time": "time",
    },
    "mps": {
        **_COMMON, "--ghz": "ghz", "--no-refine": "refine", "--sizes": "sizes",
        "--spec-json": "spec_json",
    },
    "gibbs": {
        **_COMMON, "--betas": "betas", "--geometry": "geometry", "--model": "model",
        "--sites": "sites",
    },
}
# config_sha256 of each experiment's default config
CONFIG_SHA256 = {
    "spectrum": "831f71edf57a07da699e2ea240eef69e2b6e756cc8ec08e317cc65194e9396f9",
    "scan": "3e0da45aed857038bdaaf49c368bae3b7645ae2cd0d818fac27445946f406a44",
    "equilibrate": "b34292adc5795bd0649e8f201289f35351f6ce00630bdc3dbad80a72a5095684",
    "theorem1": "d2c853accf94a20a0d41ad26686882421001eb69122a47a15c62e71b58979c33",
    "prop1": "e5b899d5c9d62dada0e8c3354b1a7e707dbe37c193e1bce4adfcc8aeb8128339",
    "overlap": "a5059592dbae5d0331bc9aa5fc119864fbd8d08b80aef03d1464211ec936063c",
    "rates": "bc137cec0d1f985fc81acf34fae8bfa906debff07a2499fbcd1557e0293536e6",
    "stability": "da100574766c5d2c3c1040068f0853e04950c265d14742f42332303301df0245",
    "mps": "cc072dc12a6d3588e4dabda34f889489212db3db904a5b4035425d0f6d0bcc1b",
    "gibbs": "67dfe174f8bd40311b5e364633c076a4edf9105aafa78b4dae2e701421815a32",
}


def test_cli_surface_and_defaults_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(CLI_SURFACE) == set(CONFIG_SHA256)
    for name, p in sub.choices.items():
        flags = {s: a.dest for a in p._actions if a.dest != "help" for s in a.option_strings}
        assert flags == CLI_SURFACE[name], name
        config = build_config(name, {})
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == CONFIG_SHA256[name], name


def test_each_run_validated_once(tmp_path, monkeypatch):
    calls = []
    validate = cli._validate

    def counting(experiment, config):
        calls.append(experiment)
        validate(experiment, config)

    monkeypatch.setattr(cli, "_validate", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 4}))
    args = ["gibbs", "--config", str(cfg), "--betas", "1.0", "--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert calls == ["gibbs"]


def test_runner_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def runner_fails(config):
        raise ValueError("raised inside the runner")

    table = dict(cli.EXPERIMENT_TABLE)
    table["gibbs"] = dataclasses.replace(table["gibbs"], runner=runner_fails)
    monkeypatch.setattr(cli, "EXPERIMENT_TABLE", table)
    # main lets it through, so the command prints a traceback and exits 1
    with pytest.raises(ValueError, match="inside the runner"):
        main(["gibbs", "--sites", "4", "--out", str(tmp_path / "out")])


def test_long_horizon_below_the_phase_bound_runs():
    # 4 sites: 7 terms of norm <= 1, so t E stays below 1.4e307
    code, rep = run({"experiment": "equilibrate", "sites": 4, "horizon": 1e306})
    assert code == 0
    assert rep["result"]["variance_sampled"]["horizon"] == 1e306


def test_horizon_reaches_both_time_averages():
    _, rep = run({"experiment": "equilibrate", "sites": 6, "horizon": 5.0})
    result = rep["result"]
    assert result["subsystem"]["horizon"] == result["variance_sampled"]["horizon"] == 5.0


def test_equilibrate_builds_one_ensemble(monkeypatch):
    from ergolab import ensembles
    from ergolab.ensembles import DiagonalEnsemble
    from ergolab.hamiltonians import SpectralData

    calls = {"__init__": 0, "coefficients": 0, "reduced": 0, "_eigenbasis_matrix": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(DiagonalEnsemble, "__init__")
    counted(DiagonalEnsemble, "reduced")
    counted(SpectralData, "coefficients")
    counted(ensembles, "_eigenbasis_matrix")
    code, _ = run({"experiment": "equilibrate", "sites": 9, "recipe": "random-product"})
    assert code == 0
    assert calls["__init__"] == 1
    assert calls["coefficients"] == 1
    assert calls["reduced"] == 1  # the dephased state of the subsystem check
    # one V^dag A V serves the exact variance, the sampled one and the trajectory
    assert calls["_eigenbasis_matrix"] == 1


def test_theorem1_diagonalizes_once_per_size(monkeypatch):
    import ergolab.cli
    import ergolab.ergodicity
    import ergolab.hamiltonians

    original = ergolab.hamiltonians.diagonalize
    sizes = []

    def counted(ham, *args, **kwargs):
        sizes.append(ham.lattice.num_sites)
        return original(ham, *args, **kwargs)

    for module in (ergolab.hamiltonians, ergolab.ergodicity, ergolab.cli):
        monkeypatch.setattr(module, "diagonalize", counted)
    code, rep = run({"experiment": "theorem1", "sizes": [6, 8], "budget": 50})
    assert code == 0
    assert rep["result"]["variance_trend"]["included"] == [6, 8]
    assert sizes == [6, 8]


def test_spectrum_forms_no_eigenvectors(monkeypatch):
    import tracemalloc

    import numpy as np

    eigh, calls = np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    # tracemalloc peak of one run at 10 sites, in units of dim^2 doubles:
    # the assembled H and one gathered block of the one-sector model, and
    # the gap scan of the sector model, which builds no dense H
    for model, limit in (("mixed-field-ising", 2.0), ("xxz-disordered", 1.5)):
        tracemalloc.start()
        try:
            code, _ = run({"experiment": "spectrum", "sites": 10, "model": model})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < limit * 1024**2 * 8, (model, peak / (1024**2 * 8))
    assert calls == []


def test_spectrum_of_a_sector_model_builds_no_dense_matrix():
    import tracemalloc

    # tracemalloc peak of one run at 10 sites, in units of dim^2 doubles:
    # the sector blocks are scattered from the entries, so the gap scan's
    # band buffers set the peak, about 0.44; an assembled H would bring it
    # to 1.13
    tracemalloc.start()
    try:
        code, _ = run({"experiment": "spectrum", "sites": 10, "model": "xxz-disordered"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.75 * 1024**2 * 8, peak / (1024**2 * 8)


def test_run_api_in_process():
    code, rep = run({"experiment": "gibbs", "sites": 6, "betas": [1.0]})
    assert code == 0
    assert rep["passed"] is True
    assert rep["result"]["identities"][0]["beta"] == 1.0


def test_scan_profile_csv(tmp_path):
    out = tmp_path / "out"
    r = invoke(
        ["scan", "--sites", "6", "--mode", "exhaustive", "--out", str(out)],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    raw = (out / "profile.csv").read_bytes()
    assert b"\r" not in raw  # rows end in "\n", as in every CSV the CLI writes
    lines = raw.decode().strip().splitlines()
    assert len(lines) == 65
    assert lines[0] == "i,e_i,S2_over_N,subsystem"
    # the best subsystem as a hex bitmask, bit s for site s: 1 to 3 of 6 sites
    masks = [int(line.split(",")[3], 16) for line in lines[1:]]
    assert all(0 < m < 1 << 6 and bin(m).count("1") <= 3 for m in masks)
    spec = diagonalize(build_model("mixed-field-ising", LatticeSpec(6, 2)))
    prof = build_profile(spec, SearchPolicy(mode="exhaustive"))
    assert [{s for s in range(6) if m >> s & 1} for m in masks] == [
        set(sub) for sub in prof.best_subsets
    ]


def test_stability_conjugates_by_a_catalog_model(tmp_path):
    out = tmp_path / "out"
    args = ["stability", "--sites", "6", "--generator", "xxz-disordered", "--out", str(out)]
    assert main(args) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["passed"] is True
    assert rep["result"]["boundary_terms"] > 0


@pytest.mark.parametrize(
    "args",
    [
        ["--sites", "8", "--time", "1e8"],
        ["--sites", "4", "--time", "1e300"],
    ],
)
def test_stability_at_long_times_without_a_gate_across_the_cut(args, tmp_path):
    # at 4 and 8 sites no gate of the layer crosses the half cut, so the
    # exact shift and the bound are 0; each gate's exponential stays
    # unitary at any time
    out = tmp_path / "out"
    assert main(["stability", *args, "--out", str(out)]) == 0
    result = json.loads((out / "report.json").read_text())["result"]
    assert result["boundary_terms"] == 0 and result["bound"] == 0.0
    assert result["max_shift"] <= 1e-12


def test_stability_time_below_the_phase_rule_runs(tmp_path):
    # 1e306 x 2 x (19 model terms at 10 sites) is still finite
    assert main(["stability", "--time", "1e306", "--out", str(tmp_path / "out")]) == 0


def test_rates_boundary_check_runs_on_the_configured_chain(tmp_path):
    # the state is evolved to t_max before the check: at t = 0 the product
    # state's S_2 sits at its minimum, where every rate is 0
    out = tmp_path / "out"
    assert main(["rates", "--sites", "6", "--samples", "3", "--t-points", "3", "--out", str(out)]) == 0
    boundary = json.loads((out / "report.json").read_text())["result"]["boundary"]
    assert boundary["region"] == [0, 1, 2]
    assert abs(boundary["direct_rate"]) > 1e-6
    assert boundary["difference"] <= 1e-8


def test_rates_diagonalizes_once(tmp_path, monkeypatch):
    # the integrated check and the boundary state share one spectrum
    calls = []

    def counting(h):
        calls.append(h)
        return diagonalize(h)

    monkeypatch.setattr(cli, "diagonalize", counting)
    monkeypatch.setattr(ergolab.rates, "diagonalize", counting)
    out = tmp_path / "out"
    assert main(["rates", "--sites", "6", "--samples", "3", "--t-points", "3", "--out", str(out)]) == 0
    assert len(calls) == 1


def test_only_the_cli_imports_csv_or_io():
    # file layout is decided in one module: the library returns values,
    # the CLI writes them
    offenders = []
    for path in sorted(Path(ergolab.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] in ("csv", "io")]
    assert not offenders


def test_mps_decay_csv_one_row_per_size():
    code, rep = run({"experiment": "mps", "sizes": [8, 12, 16]})
    assert code == 0
    lines = rep["_files"]["decay.csv"].splitlines()
    assert lines[0] == "N,max_overlap,log_overlap"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [8, 12, 16]
    assert all(r[2] == pytest.approx(math.log(r[1]), rel=1e-10) for r in rows)
