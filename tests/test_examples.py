"""Smoke tests: the shipped examples must keep running against the public
API (guards against API drift).  Sizes are reduced via REPRO_EXAMPLE_M."""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _small_examples(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_EXAMPLE_M", "8")
    monkeypatch.delenv("REPRO_SWEEP_CSV", raising=False)
    # custom_scenario.py registers a scenario; don't leak it into the
    # global registry of the rest of the test session.
    from repro.workloads.scenario import _REGISTRY

    snapshot = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(snapshot)


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "scenario_sweep.py",
        "custom_scenario.py",
        "solver_shootout.py",
        "live_rebalancing.py",
        "workload_tracking.py",
        "byzantine_robustness.py",
        "sharded_sweep_coordinator.py",
        "cdn_replica_placement.py",
        "cloud_federation_selfish.py",
        "dynamic_tracking.py",
        "gossip_peak_offload.py",
        "streaming_datacenter.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example narrates what it did


def test_quickstart_reaches_optimum(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "cooperative optimum" in out
    assert "DES validation" in out


def test_scenario_sweep_reports_every_cell(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "scenario_sweep.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "= 24 runs" in out  # 6 presets × 2 sizes × 2 seeds
    assert "per-scenario means" in out
