"""The names the benchmark (perfbench/) reaches into powcert by.

A deletion or rename that would break a benchmark run fails here.  The
benchmark's files are only read: its modules are loaded from their paths.
"""

import importlib.util
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from powcert import certify, cli, errors, galerkin, interval, ivarray, psa, quad

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")

# the modules as workloads.import_powcert gives them to the benchmark
PC = SimpleNamespace(
    certify=certify, cli=cli, errors=errors, galerkin=galerkin,
    interval=interval, ivarray=ivarray, psa=psa, quad=quad,
)


@pytest.mark.parametrize("owner, attr", tracing.TARGETS)
def test_trace_target_resolves(owner, attr):
    # as Tracer.install looks each one up
    if owner == "PowerSeries2D":
        target = psa.PowerSeries2D.__dict__[attr]
    else:
        target = getattr(getattr(PC, owner), attr)
    assert callable(target)


def test_workload_entry_points(tmp_path):
    for module, name in (
        (quad, "integral_power"),
        (quad, "QuadConfig"),
        (cli, "RunConfig"),
        (cli, "run_verify"),
        (certify, "ProofCertificate"),
        (galerkin, "FourierApproximation"),
        (errors, "PowcertError"),
    ):
        assert callable(getattr(module, name)), name
    # the workloads' configurations are accepted as the benchmark builds them
    for default in (False, True):
        cfg = workloads.run_config(cli, 1, str(tmp_path), default=default)
        assert isinstance(cfg, cli.RunConfig)
    assert isinstance(workloads.quad_config(quad), quad.QuadConfig)
    assert len(workloads.quad_inputs(1, galerkin.FourierApproximation)) == workloads.N_ETAS


def test_traced_sweeps_complete():
    # the tracer's cost hooks read 2-D operands: stacked products must not
    # reach the names it wraps
    u = galerkin.FourierApproximation(3, np.array([[5.0, 0.1], [0.2, 0.05]]))
    cfg = quad.QuadConfig(degree=6, grid_m=2)
    tracer = tracing.Tracer()
    tracer.install(PC)
    try:
        quad.integral_power(u, u, Fraction(1, 2), cfg)
        _res, _gram, _ranges, stats = quad.pipeline_sweep(u, Fraction(3, 2), [(1, 1), (1, 3)], cfg, res_width=10.0)
    finally:
        tracer.uninstall()
    assert stats["rects"] > 16  # the budget bisects
    assert tracer.counters["ivarray.flops"] > 0
