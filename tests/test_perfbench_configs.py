"""The benchmark's `linwave evolve` workloads write their configs from
templates in perfbench/workloads.py; a config rule that refuses one of them
would make that workload fail only when the benchmark runs.  This test loads
the templates without running any workload and parses each at both sizes."""

import importlib.util
from pathlib import Path

import pytest

from linwave.config import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports the tracer's rk4_steps
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["kasner-wide", "minkowski-exact"])
@pytest.mark.parametrize("size", ["full", "small"])
def test_benchmark_evolve_configs_parse(monkeypatch, name, size):
    workload = load_workloads(monkeypatch).WORKLOADS[name]
    text = workload.config.format(nmax=workload.nmax[size], seed=101)
    cfg = parse_config(text, f"{name}[{size}]")
    assert cfg.get("lattice.nmax") == workload.nmax[size]
