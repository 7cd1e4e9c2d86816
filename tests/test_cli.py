"""CLI plumbing: determinism, exit codes, report structure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab import CATALOG_VERSION
from ergolab import cli
from ergolab.cli import ConfigError, build_config, main, run


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
    ],
)
def test_invalid_value_rejected_before_run(args, code, tmp_path, capsys, monkeypatch):
    def runner_started(config):
        raise AssertionError("a runner started on an invalid config")

    monkeypatch.setattr(cli, "RUNNERS", dict.fromkeys(cli.RUNNERS, runner_started))
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


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
