"""CLI plumbing: determinism, exit codes, report structure."""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab import CATALOG_VERSION
from ergolab import cli
from ergolab.cli import ConfigError, build_config, build_parser, main, run


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
        del config["experiment"]
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


def test_horizon_reaches_both_time_averages():
    _, rep = run({"experiment": "equilibrate", "sites": 6, "horizon": 5.0})
    result = rep["result"]
    assert result["subsystem"]["horizon"] == result["variance_sampled"]["horizon"] == 5.0


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
    lines = (out / "profile.csv").read_text().strip().splitlines()
    assert len(lines) == 65
    assert lines[0].startswith("i,")
