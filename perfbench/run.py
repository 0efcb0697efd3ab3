"""powcert benchmark: run one workload, check its outputs against
computations made apart from the program, and print the metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Each operation runs in a fresh process (``child.py``), as ``powcert
verify`` does.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Outputs, logs and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import micro
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("certify", "certify-2w", "quad-oracle")
SETUP_REPEATS = 7
# every child must end before the run's own 180 s limit
DEADLINE_S = 170.0


class Child:
    """A finished child process: wall seconds, exit code and its rusage."""

    def __init__(self, wall, code, ru):
        self.wall = wall
        self.code = code
        self.cpu = ru.ru_utime + ru.ru_stime
        self.proc = {
            "proc.user_s": ru.ru_utime,
            "proc.sys_s": ru.ru_stime,
            "proc.minflt": ru.ru_minflt,
            "proc.nivcsw": ru.ru_nivcsw,
        }
        self.rss_mb = ru.ru_maxrss / 1024.0


class Bench:
    def __init__(self, args, deadline=DEADLINE_S):
        self.args = args
        self.deadline = deadline
        self.start = time.perf_counter()
        self.out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.spawned = 0
        self.attempted = 0

    def spawn(self, argv):
        """Run child.py to completion; wall time from start to reaped exit."""
        self.spawned += 1
        log_path = os.path.join(self.out, f"child{self.spawned}.log")
        limit = self.deadline - (time.perf_counter() - self.start)
        if limit <= 0:
            raise RuntimeError("run deadline passed")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, CHILD, *argv], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _pid, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise RuntimeError(f"child {argv[0]} killed; see {log_path}")
        return Child(wall, proc.returncode, ru)

    def setup_s(self):
        """Interpreter start, ``import powcert`` and input generation, in
        fresh processes; the median of SETUP_REPEATS."""
        times = []
        for _ in range(SETUP_REPEATS):
            child = self.spawn(["setup", "--workload", self.args.workload, "--seed", str(self.args.seed), "--dir", self.out])
            if child.code != 0:
                raise RuntimeError("setup failed")
            times.append(child.wall)
        return statistics.median(times)

    def elapsed(self):
        return time.perf_counter() - self.start


def body_bytes(doc):
    return json.dumps(doc["certificate"], indent=2, sort_keys=True).encode()


# ----------------------------------------------------------------------
# certify, certify-2w
# ----------------------------------------------------------------------

class CertOp:
    def __init__(self, child, op_dir, traced):
        self.child = child
        self.dir = op_dir
        self.traced = traced
        self.doc = None
        path = os.path.join(op_dir, "certificate.json")
        if os.path.exists(path):
            with open(path) as fh:
                self.doc = json.load(fh)

    @property
    def ok(self):
        return self.child.code == 0 and self.doc is not None and self.doc["certificate"]["status"] == "valid"

    def path(self, name):
        return os.path.join(self.dir, name)


def certify_op(bench, workers, traced, default=False):
    bench.attempted += 1
    # numbered like the child's log file
    op_dir = os.path.join(bench.out, f"op{bench.spawned + 1}")
    os.makedirs(op_dir)
    argv = ["certify", "--workers", str(workers), "--dir", op_dir]
    if traced:
        argv.append("--trace")
    if default:
        argv.append("--default")
    return CertOp(bench.spawn(argv), op_dir, traced)


def check_certificates(ops, proof_certificate, log):
    """Independent checks of every valid certificate; returns the sha256 of
    the common body.  Raises CheckFailed on any mismatch."""
    refs = {}
    digests = set()
    for op in ops:
        if not op.ok:
            continue
        with open(op.path("certificate.json")) as fh:
            cert = proof_certificate.from_json(fh.read())
        checks.require(cert.recheck(), "recheck() failed")
        key = tuple(hashlib.sha256(open(op.path(n), "rb").read()).hexdigest() for n in ("coeffs.json", "pencil.json"))
        if key not in refs:
            refs[key] = checks.check_certificate(op.doc["certificate"], op.path("coeffs.json"), op.path("pencil.json"))
            log(f"float references {refs[key]} lie inside the certificate's enclosures")
        digests.add(hashlib.sha256(body_bytes(op.doc)).hexdigest())
    checks.require(len(digests) <= 1, f"certificate bodies differ across runs: {sorted(digests)}")
    return digests.pop() if digests else None


def run_certify(bench, log):
    args = bench.args
    workers = workloads.CERTIFY_WORKERS[args.workload]
    passes = (False, True) if args.trace else (False,)
    min_groups = 1 if args.trace else workloads.MIN_OPS
    ops = []
    t_loop = time.perf_counter()
    while len(ops) < min_groups * len(passes) or time.perf_counter() - t_loop < args.seconds:
        for traced in passes:
            ops.append(certify_op(bench, workers, traced))
    reference = None
    if workers != 1 and args.trace:
        # byte-identical bodies across worker counts, after the timed ops;
        # only in the traced run, which has time to spare for it
        reference = certify_op(bench, 1, False)
        bench.attempted -= 1

    pc = workloads.import_powcert()
    digest = check_certificates(ops + ([reference] if reference else []), pc.certify.ProofCertificate, log)
    if reference is not None:
        checks.require(reference.ok, "workers=1 reference certificate is not valid")
        log(f"workers=1 reference body matches the workers={workers} bodies")
    checks.require(digest is not None, "no valid certificate")
    body = next(op.doc["certificate"] for op in ops if op.ok)
    for op in ops:
        log(f"op traced={int(op.traced)} wall {op.child.wall:.3f} s cpu {op.child.cpu:.3f} s "
            f"rss {op.child.rss_mb:.1f} MB status {op.doc['certificate']['status'] if op.doc else 'missing'}")
    res = body["residual_norm"]
    log(f"certificate sha256 {digest} r1 {body['r1']} r2 [{body['r2']['lo']}, {body['r2']['hi']}] "
        f"residual [{res['lo']}, {res['hi']}] amplitude [{body['amplitude']['lo']}, {body['amplitude']['hi']}]")

    failed = sum(not op.ok for op in ops)
    plain = [op for op in ops if not op.traced and op.ok]
    tight = tightness(body)
    if not args.trace:
        metrics = {
            "op_s": statistics.median(op.child.wall for op in plain),
            "op_cpu_s": statistics.median(op.child.cpu for op in plain),
            "peak_rss_mb": statistics.median(op.child.rss_mb for op in plain),
            "enclosure_rel_width": tight["rel_width"],
        }
        return len(ops), failed, metrics

    traced = [op for op in ops if op.traced and op.ok]
    docs = []
    for op in traced:
        with open(op.path("trace.json")) as fh:
            docs.append(json.load(fh))
    layer = layer_metrics(docs, len(traced))
    layer.update(derived_quad(layer, 4 * workloads.CERTIFY["grid_m"] ** 2))
    layer.update(mean_dict([op.child.proc for op in plain]))
    layer["trace.op_s"] = statistics.mean(op.child.wall for op in traced)
    layer["trace.overhead_s"] = layer["trace.op_s"] - statistics.mean(op.child.wall for op in plain)
    layer["certify.r1"] = tight["r1"]
    layer["certify.r2_hi"] = tight["r2_hi"]
    layer["quad.residual_width"] = tight["residual_width"]
    layer.update(micro.run(pc))
    return len(ops), failed, layer


def tightness(body):
    """``rel_width`` is the amplitude enclosure's width over its midpoint: it
    holds the L-infinity radius r2 twice, so it widens with a looser residual,
    gram or eigenvalue enclosure alike."""
    amp_lo, amp_hi = float(body["amplitude"]["lo"]), float(body["amplitude"]["hi"])
    lo, hi = float(body["residual_norm"]["lo"]), float(body["residual_norm"]["hi"])
    return {
        "rel_width": (amp_hi - amp_lo) / (0.5 * (amp_hi + amp_lo)),
        "r1": float(body["r1"]),
        "r2_hi": float(body["r2"]["hi"]),
        "residual_width": hi - lo,
    }


# ----------------------------------------------------------------------
# quad-oracle
# ----------------------------------------------------------------------

def run_quad(bench, log):
    args = bench.args
    argv = ["quad", "--seed", str(args.seed), "--seconds", str(args.seconds), "--dir", bench.out]
    if args.trace:
        argv.append("--trace")
    child = bench.spawn(argv)
    checks.require(child.code == 0, f"quad child exited with {child.code}")
    with open(os.path.join(bench.out, "quad.json")) as fh:
        doc = json.load(fh)
    results = doc["results"]
    bench.attempted = len(results)
    oracles = {}
    by_round = {}
    for r in results:
        if not r["ok"]:
            continue
        key = (r["round"], r["with_xi"])
        if key not in oracles:
            oracles[key] = checks.sqrt_oracle(doc["terms"][r["round"]], r["with_xi"])
        o = oracles[key]
        checks.require(r["lo"] <= o <= r["hi"], f"oracle {o!r} outside [{r['lo']!r}, {r['hi']!r}] (round {r['round']})")
        r["rel_width"] = (r["hi"] - r["lo"]) / abs(o)
        if not r["traced"]:
            by_round.setdefault(r["round"], []).append(r)
    failed = sum(not r["ok"] for r in results)
    log(f"{len(results) - failed} integrals inside their mpmath oracle values, {len(oracles)} oracles")

    rounds = [rs for rs in by_round.values() if len(rs) == 2]
    checks.require(rounds, "no round without a failed integral")
    cpu = [statistics.mean(x["rusage"]["user_s"] + x["rusage"]["sys_s"] for x in rs) for rs in rounds]
    wall = [statistics.mean(x["wall_s"] for x in rs) for rs in rounds]
    rel = [statistics.mean(x["rel_width"] for x in rs) for rs in rounds]
    for k, rs in enumerate(rounds):
        log(f"round {rs[0]['round']}: wall {wall[k]:.3f} s cpu {cpu[k]:.3f} s rel width {rel[k]:.4g}")
    if not args.trace:
        metrics = {
            "op_s": statistics.median(wall),
            "op_cpu_s": statistics.median(cpu),
            "peak_rss_mb": child.rss_mb,
            "enclosure_rel_width": statistics.median(rel),
        }
        return len(results), failed, metrics

    traced = [r for r in results if r["traced"] and r["ok"]]
    plain = [r for r in results if not r["traced"] and r["ok"]]
    with open(os.path.join(bench.out, "trace.json")) as fh:
        layer = layer_metrics([json.load(fh)], len(traced))
    layer.update(derived_quad(layer, None))
    layer.update(mean_dict([{f"proc.{k}": v for k, v in r["rusage"].items()} for r in plain]))
    layer["trace.op_s"] = statistics.mean(r["wall_s"] for r in traced)
    layer["trace.overhead_s"] = layer["trace.op_s"] - statistics.mean(r["wall_s"] for r in plain)
    layer["certify.r1"] = layer["certify.r2_hi"] = layer["quad.residual_width"] = 0.0
    layer.update(micro.run(workloads.import_powcert()))
    return len(results), failed, layer


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

def mean_dict(rows):
    return {k: statistics.mean(r[k] for r in rows) for k in rows[0]} if rows else {}


def layer_metrics(docs, n_ops):
    """Per-operation means of span self times, call counts and counters."""
    totals = {}
    counters = {}
    for doc in docs:
        for name, row in tracing.summarize(doc["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
    n = max(n_ops, 1)

    def get(names, field):
        return sum(totals.get(s, {}).get(field, 0.0) for s in names) / n

    out = {f"calls.{name}": totals[name]["calls"] / n for name in tracing.SPAN_NAMES}
    out["galerkin.solve_s"] = get(["cli.newton_solve"], "incl_s")
    out["spectral.k_s"] = get(["cli.spectral_K_from_gram"], "incl_s")
    out["certify.finish_s"] = get(tracing.CERTIFY_STAGE, "incl_s")
    out["quad.sweep_s"] = get(["cli.pipeline_sweep"], "incl_s")
    out["quad.integral_s"] = get([tracing.INTEGRAL_SPAN], "incl_s")
    groups = {
        "psa.compose": ["quad.ps_compose"],
        "psa.mul": ["PowerSeries2D.__mul__"],
        "psa.range": ["PowerSeries2D.range"],
        "ivarray.matmul": ["quad.iv_matmul"],
        "ivarray.corr2d": ["quad.iv_corr2d"],
        "ivarray.conv2d": ["quad.iv_conv2d_full", "psa.iv_conv2d_full"],
        "interval.trig": ["quad.iv_sin", "quad.iv_cos", "psa.iv_sin", "psa.iv_cos"],
        "interval.pow": ["quad.iv_pow", "psa.iv_pow"],
    }
    for metric, names in groups.items():
        out[f"{metric}_calls"] = get(names, "calls")
        out[f"{metric}_s"] = get(names, "self_s")
    for k in ("quad.sweep_cpu_s", "quad.leaf_rects", "quad.over_budget", "ivarray.flops", "ivarray.window_bytes"):
        out[k] = counters.get(k, 0.0) / n
    return out


def derived_quad(layer, base_rects):
    leaves = layer["quad.leaf_rects"]
    if not leaves:
        return {"quad.rect_evals": 0.0, "quad.useful_ratio": 0.0, "quad.ms_per_leaf": 0.0}
    evals = 2 * leaves - base_rects + layer["quad.over_budget"]
    return {
        "quad.rect_evals": evals,
        "quad.useful_ratio": leaves / evals,
        "quad.ms_per_leaf": 1000.0 * layer["quad.sweep_s"] / leaves,
    }


# ----------------------------------------------------------------------

def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "powcert", "__init__.py")):
        print(f"no powcert sources under {workloads.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    bench = Bench(args)

    def log(msg):
        print(msg, flush=True)

    setup = bench.setup_s()
    try:
        if args.workload == "quad-oracle":
            attempted, failed, metrics = run_quad(bench, log)
        else:
            attempted, failed, metrics = run_certify(bench, log)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1), "failed": 0, "metrics": {}}))
        return 1
    if not args.trace:
        metrics["setup_s"] = setup
    unit = units()
    out = {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}
    log(f"run took {bench.elapsed():.1f} s")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
