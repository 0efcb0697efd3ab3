"""The names the benchmark (perfbench/) reaches into powcert by.

A deletion or rename that would break a benchmark run fails here.  The
benchmark's files are only read: its modules are loaded from their paths.
"""

import importlib.util
import os
from types import SimpleNamespace

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
