"""Self-tests of the benchmark code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_wrapped_function_returns_identical_result():
    tracer = spans.Tracer()
    marker = object()
    wrapped = tracer.wrap(lambda x, y=1: (x, y, marker), "states.probe")
    result = wrapped(3, y=4)
    assert result == (3, 4, marker) and result[2] is marker
    assert tracer.spans[0][0] == "states.probe"


def test_installed_tracer_keeps_reports_and_uninstalls():
    from ergolab import cli, hamiltonians

    config = {"experiment": "spectrum", "sites": 6, "seed": 3}
    original = hamiltonians.diagonalize
    _, plain = cli.run(config)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hamiltonians.diagonalize is not original
        assert cli.diagonalize is hamiltonians.diagonalize  # re-bound name is wrapped too
        _, traced = cli.run(config)
    finally:
        tracer.uninstall()
    assert hamiltonians.diagonalize is original and cli.diagonalize is original
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "hamiltonians.diagonalize", "hamiltonians.assemble"} <= names
    assert tracer.counts["hamiltonians.eigh_dim3"] == 64**3


def test_nested_same_layer_calls_are_not_double_counted():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.03), "ensembles.inner")

    def body():
        time.sleep(0.03)
        inner()

    outer = tracer.wrap(body, "ensembles.outer")
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    m = tracer.metrics()
    outer_span = tracer.spans[0]
    assert m["ensembles.calls"] == 2
    assert m["ensembles.self_s"] == pytest.approx(outer_span[2] - outer_span[1], abs=1e-9)
    assert m["ensembles.self_s"] <= wall
    assert m["ensembles.outer.self_s"] + m["ensembles.inner.self_s"] == pytest.approx(
        m["ensembles.self_s"], abs=1e-9
    )
    assert m["ensembles.inner.self_s"] >= 0.03


def test_errors_are_counted_and_reraised():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap(fail, "rates.fail")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.metrics()["rates.errors"] == 1 and tracer.stack == []


def test_self_times_add_up_to_no_more_than_traced_wall(tmp_path):
    spans_file = tmp_path / "spans.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", "quench", "--seed", "0",
        "--trace", str(spans_file), "--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["ok"], out["problems"]
    layers = out["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < total <= out["traced_wall_s"]
    dump = json.loads(spans_file.read_text())
    assert len(dump["spans"]) == sum(layers[f"{layer}.calls"] for layer in spans.LAYERS)
    assert all(layers[f"{layer}.self_s"] > 0 for layer in spans.LAYERS)  # import spans


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.01 + 1e-3
    return [_perturb(value[0])] + value[1:]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_rejects_a_perturbed_result(workload):
    oracle = json.loads((HERE / "oracle.json").read_text())[workload]
    assert len(oracle) == workloads.POOL
    want = oracle["0"]
    assert workloads.compare(workload, copy.deepcopy(want), want) == []
    for key in workloads.KEYS[workload]:
        got = copy.deepcopy(want)
        got[key] = _perturb(got[key])
        problems = workloads.compare(workload, got, want)
        assert [p.split(":")[0] for p in problems] == [key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_generated_inputs(workload):
    assert workloads.configs(workload, 0) != workloads.configs(workload, 1)
    assert workloads.configs(workload, 7) == workloads.configs(workload, 7)
