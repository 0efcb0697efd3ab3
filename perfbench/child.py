"""One benchmark process: set up, make one certificate, or run the
quadrature loop.  ``run.py`` starts it and reads what it writes into
``--dir``; powcert comes from the checkout's ``src``.

    child.py setup   --workload W --seed S
    child.py certify --workers N --dir D [--trace] [--default]
    child.py quad    --seed S --seconds T --dir D [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads


def rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "user_s": r.ru_utime,
        "sys_s": r.ru_stime,
        "minflt": r.ru_minflt,
        "nivcsw": r.ru_nivcsw,
    }


def delta(after, before):
    return {k: after[k] - before[k] for k in after}


def cmd_setup(args):
    pc = workloads.import_powcert()
    if args.workload == "quad-oracle":
        workloads.quad_inputs(args.seed, pc.galerkin.FourierApproximation)
    else:
        workloads.run_config(pc.cli, 1, args.dir)


def cmd_certify(args):
    pc = workloads.import_powcert()
    cfg = workloads.run_config(pc.cli, args.workers, args.dir, default=args.default)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(pc)
    code, _cert = pc.cli.run_verify(cfg)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.dir, "trace.json"))
    return code


def cmd_quad(args):
    """Closed loop of rounds; a round integrates eta^(1/2) and eta^(1/2) eta
    for one seeded eta.  In a traced run each round is made twice on the
    same eta, untraced and then traced, so the pair measures the tracing
    overhead."""
    pc = workloads.import_powcert()
    quad = pc.quad
    etas = workloads.quad_inputs(args.seed, pc.galerkin.FourierApproximation)
    cfg = workloads.quad_config(quad)
    tracer = None
    passes = [(False, quad.integral_power)]
    if args.trace:
        from tracing import INTEGRAL_SPAN, Tracer

        tracer = Tracer()
        passes.append((True, tracer.wrap(INTEGRAL_SPAN, quad.integral_power)))
    results = []
    start = time.perf_counter()
    rounds = 0
    while rounds < len(etas) and (rounds < workloads.MIN_ROUNDS or time.perf_counter() - start < args.seconds):
        eta = etas[rounds][0]
        for traced, integral in passes:
            if traced:
                tracer.install(pc)
            try:
                for with_xi in (False, True):
                    before = rusage()
                    t0 = time.perf_counter()
                    try:
                        val = integral(eta, eta if with_xi else None, workloads.Q, cfg)
                        ok, lo, hi = True, val.lo, val.hi
                    except pc.errors.PowcertError as exc:
                        ok, lo, hi = False, None, None
                        print(f"integral failed: {exc!r}", file=sys.stderr)
                    wall = time.perf_counter() - t0
                    results.append({
                        "round": rounds, "with_xi": with_xi, "traced": traced, "ok": ok,
                        "lo": lo, "hi": hi, "wall_s": wall, "rusage": delta(rusage(), before),
                    })
            finally:
                if traced:
                    tracer.uninstall()
        rounds += 1
    doc = {"results": results, "terms": [terms for _eta, terms in etas[:rounds]]}
    with open(os.path.join(args.dir, "quad.json"), "w") as fh:
        json.dump(doc, fh)
    if tracer is not None:
        tracer.dump(os.path.join(args.dir, "trace.json"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "certify", "quad"))
    ap.add_argument("--workload", default="certify")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--dir", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--default", action="store_true", help="certify RunConfig() (reference.py)")
    args = ap.parse_args(argv)
    return {"setup": cmd_setup, "certify": cmd_certify, "quad": cmd_quad}[args.mode](args) or 0


if __name__ == "__main__":
    raise SystemExit(main())
