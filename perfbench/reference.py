"""Reference figures for scale: one traced certificate of the default
``RunConfig()`` (N_u = 60, N = 14, M = 16, degree 10).  Not a workload; it
takes several minutes.

    python3 perfbench/reference.py

Prints the wall time, the process rusage and the per-layer metrics of the
traced run, in the units of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import run


def main():
    bench = run.Bench(SimpleNamespace(workload="reference", seed=0, trace=1), deadline=3600.0)
    op = run.certify_op(bench, 0, traced=True, default=True)
    if op.doc is None:
        print(f"no certificate; see {bench.out}", file=sys.stderr)
        return 1
    with open(op.path("trace.json")) as fh:
        layer = run.layer_metrics([json.load(fh)], 1)
    layer.update(run.derived_quad(layer, 4 * 16**2))
    layer.update(op.child.proc)
    unit = run.units()
    print(f"status {op.doc['certificate']['status']} wall {op.child.wall:.1f} s "
          f"cpu {op.child.cpu:.1f} s peak rss {op.child.rss_mb:.1f} MB")
    for name, value in layer.items():
        print(f"{name:32s} {value:14.6g} {unit[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
