"""qmobius benchmark: three timed workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py                      # every workload, one table
    python3 perfbench/run.py --workload maps --seed 3 --seconds 10 --trace 0

With --workload all (the default) each workload runs in its own fresh
process and the command prints every end-to-end metric of every workload
with its unit.  With one workload it runs that workload in this process
and prints, as its last line, one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1).  A line before it records the provenance,
with the hard-slice misses: the library's known defects, counted apart
from failed ops (see spans.Tally).

Each run is a closed loop with one client: an item starts when the
previous one has finished.  Items run in chunks; only the items are
timed, and each chunk's outputs are checked against refs.py after it,
outside the timed region.  The run lasts --seconds of wall time and at
least 100 items.  It exits nonzero only when a workload cannot run or
cannot be checked, never because an op failed: failed ops are counted.
cli_cold is no timed workload: it runs in the traced run only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

import refs
import workloads
from spans import Tally, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ITEMS = 100
WINDOW = 128  # items; at least 12 lie beyond p90
SETUP_PROBES = 11
CLI_PROBES = 11
QUAT_REPEATS = 15
QUAT_ITEMS = 32
TRACE_CHUNK = 32

END_TO_END = [
    ("throughput_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

SCALAR_LAYERS = ["mat2h.matmul", "mat2h.det_h", "mat2h.inverse", "mat2h.classify",
                 "flt.FLT", "flt.apply", "hypgeo.distance_disc",
                 "hypgeo.distance_halfspace", "hypgeo.cayley", "hypgeo.geodesic_disc",
                 "crossratio.cross_ratio", "crossratio.is_concyclic"]
ROUTE_LAYERS = ["hypgeo.geodesic_halfspace", "hypgeo.cross_ratio_route"]
KERNELS = ["mat2h.mat_mul_many", "mat2h.det_h_many", "hypgeo.geodesic_sample_rows",
           "hypgeo.integrated_length_disc"]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = [(f"quat.{op}.ns_per_call", "ns", "lower") for op in ("mul", "inverse", "abs")]
    for layer in SCALAR_LAYERS:
        spec += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.hard_missed", "count", "lower")]
    spec.append(("flt.apply.pole_ratio", "ratio", "lower"))
    for layer in ROUTE_LAYERS:
        spec += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.self_s", "s", "lower")]
    for layer in KERNELS:
        spec += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.elems_per_s", "1/s", "higher"),
                 (f"{layer}.bytes_computed", "bytes", "lower"),
                 (f"{layer}.flops_computed", "flops", "lower")]
    spec += [("kernels.max_rel_err_vs_scalar", "ratio", "lower"),
             ("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower"),
             ("cli.command_s", "s", "lower"), ("cli.contract_violations", "count", "lower"),
             ("bench.trace_overhead_ratio", "ratio", "higher")]
    return spec


# -- the measured loop --------------------------------------------------------


def measure(wl, lib, seconds, tally, start, tracer=None, min_items=MIN_ITEMS, chunk=None):
    """Run items of wl from index start, a chunk at a time, for at most
    `seconds` of wall time and at least min_items; no chunk starts that
    the previous chunk's wall time says would end past the deadline.
    Returns (item latencies in ns, next index)."""
    chunk = chunk or wl.chunk
    lat = []
    i = start
    t_chunk = 0.0
    deadline = perf_counter() + seconds
    while len(lat) < min_items or perf_counter() + t_chunk <= deadline:
        t_start = perf_counter()
        items = wl.generate(i, chunk)
        outs = []
        for it in items:
            t0 = perf_counter_ns()
            out = wl.run(lib, it)
            lat.append(perf_counter_ns() - t0)
            outs.append(out)
        if tracer is not None:
            tracer.fold()
        for it, out in zip(items, outs):
            wl.verify(it, out, tally)
        i += len(items)
        t_chunk = perf_counter() - t_start
    return lat, i


def warm_up(wl, lib):
    """Run the first wl.warmup items untimed; returns the next index."""
    for it in wl.generate(0, wl.warmup):
        wl.run(lib, it)
    return wl.warmup


def setup_probe(name, seed):
    """Body of one fresh set-up process: import the library modules, then
    run the warm-up items.  Generating the inputs is not counted."""
    t0 = perf_counter()
    m = workloads.load()
    t1 = perf_counter()
    wl = workloads.WORKLOADS[name](m, seed)
    lib = workloads.make_lib(m)
    items = wl.generate(0, wl.warmup)
    t2 = perf_counter()
    for it in items:
        wl.run(lib, it)
    t3 = perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def _child(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=workloads.child_env(), cwd=ROOT, check=True).stdout


def setup_seconds(name, seed):
    values = []
    for _ in range(SETUP_PROBES):
        out = _child([os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                      "--setup-probe"])
        values.append(json.loads(out.splitlines()[-1])["setup_s"])
    return statistics.median(values)


def window_stats(lat):
    """throughput_per_s, latency_p50_ms and latency_p90_ms as medians over
    windows of WINDOW consecutive items (the last window takes the rest),
    so that a burst of load from outside the benchmark moves them less."""
    n = max(1, len(lat) // WINDOW)
    windows = [lat[k * WINDOW:(k + 1) * WINDOW] for k in range(n - 1)] + [lat[(n - 1) * WINDOW:]]
    med = statistics.median
    return (med(len(w) / (sum(w) / 1e9) for w in windows),
            med(med(w) for w in windows) / 1e6,
            med(statistics.quantiles(w, n=10, method="inclusive")[8] for w in windows) / 1e6)


def end_to_end(name, seed, seconds):
    m = workloads.load()
    wl = workloads.WORKLOADS[name](m, seed)
    lib = workloads.make_lib(m)
    setup = setup_seconds(name, seed)
    start = warm_up(wl, lib)
    gc.collect()
    gc.freeze()
    tally = Tally()
    lat, _ = measure(wl, lib, seconds, tally, start)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    throughput, p50, p90 = window_stats(lat)
    values = {
        "throughput_per_s": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": setup,
        "peak_rss_mib": rss_kib / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return m, tally, len(lat), metrics


# -- the traced run -----------------------------------------------------------


def _timed_child(args):
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], env=workloads.child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - t0


def quat_ns_per_call(qs):
    """ns per call of Quaternion *, inverse and abs in a loop over qs."""
    qs = [q for q in qs if q.norm_sq() > 0.0][:512]
    pairs = list(zip(qs, qs[1:] + qs[:1]))
    loops = {
        "mul": lambda: [p * q for p, q in pairs],
        "inverse": lambda: [q.inverse() for q in qs],
        "abs": lambda: [abs(q) for q in qs],
    }
    out = {}
    for op, loop in loops.items():
        times = []
        for _ in range(QUAT_REPEATS):
            t0 = perf_counter_ns()
            loop()
            times.append((perf_counter_ns() - t0) / len(qs))
        out[op] = statistics.median(times)
    return out


def traced(name, seed, seconds):
    """Per-layer metrics.  The selected workload runs a quarter of
    --seconds untraced and a quarter traced, which gives the tracing
    overhead; then every other workload, cli_cold included, runs traced
    for a sixth, so that each layer's spans are measured in the workload
    that loads it."""
    m = workloads.load()
    tracer = Tracer()
    plain, tlib = workloads.make_lib(m), workloads.make_lib(m, tracer)
    tally = Tally()
    wl = workloads.WORKLOADS[name](m, seed)
    start = warm_up(wl, plain)
    gc.collect()
    gc.freeze()
    short = min(wl.chunk, TRACE_CHUNK)
    lat_u, start = measure(wl, plain, seconds / 4, Tally(), start, min_items=short, chunk=short)
    lat_t, _ = measure(wl, tlib, seconds / 4, tally, start, tracer, min_items=short,
                       chunk=short)
    overhead = (len(lat_t) / sum(lat_t)) / (len(lat_u) / sum(lat_u))
    quat = quat_ns_per_call(wl.quats(wl.generate(0, QUAT_ITEMS)))
    cli_lat = None
    for other, cls in workloads.TRACED.items():
        if other == name:
            continue
        o = cls(m, seed)
        o_start = warm_up(o, plain)
        short = min(o.chunk, TRACE_CHUNK)
        lat, _ = measure(o, tlib, seconds / 6, tally, o_start, tracer, min_items=short,
                         chunk=short)
        if other == "cli_cold":
            cli_lat = lat
    # interleaved, so that load from outside the benchmark shifts both alike
    probes = [(_timed_child(["-c", "pass"]), _timed_child(["-c", "import qmobius.cli"]))
              for _ in range(CLI_PROBES)]
    t_pass = statistics.median(p for p, _ in probes)
    t_import = statistics.median(i for _, i in probes)
    t_cmd = statistics.median(cli_lat) / 1e9

    values = {f"quat.{op}.ns_per_call": v for op, v in quat.items()}
    st = tracer.stats
    for layer in SCALAR_LAYERS:
        values[f"{layer}.calls"] = st[layer].calls
        values[f"{layer}.busy_s"] = st[layer].busy_ns / 1e9
        values[f"{layer}.hard_missed"] = tally.hard_missed[layer]
    values["flt.apply.pole_ratio"] = st["flt.apply"].hits / max(st["flt.apply"].calls, 1)
    for layer in ROUTE_LAYERS:
        values[f"{layer}.calls"] = st[layer].calls
        values[f"{layer}.busy_s"] = st[layer].busy_ns / 1e9
        values[f"{layer}.self_s"] = st[layer].self_ns / 1e9
    for layer in KERNELS:
        s = st[layer]
        calls = max(s.calls, 1)
        values[f"{layer}.calls"] = s.calls
        values[f"{layer}.busy_s"] = s.busy_ns / 1e9
        values[f"{layer}.elems_per_s"] = s.elems / max(s.busy_ns / 1e9, 1e-12)
        values[f"{layer}.bytes_computed"] = s.bytes / calls
        values[f"{layer}.flops_computed"] = s.flops / calls
    values["kernels.max_rel_err_vs_scalar"] = tally.worst.get("kernels.max_rel_err_vs_scalar", 0.0)
    values["cli.interpreter_s"] = t_pass
    values["cli.import_s"] = t_import - t_pass
    values["cli.command_s"] = t_cmd - t_import
    values["cli.contract_violations"] = tally.failed["cli"] + tally.hard_missed["cli"]
    values["bench.trace_overhead_ratio"] = overhead
    metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_spec()}
    return m, tally, len(lat_t), metrics


# -- provenance and output ----------------------------------------------------


def provenance(m, args, items, tally):
    import numpy
    try:
        # the ceiling keeps git from searching directories above the checkout
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
                             ).stdout.split()
        commit = top[1] if os.path.realpath(top[0]) == os.path.realpath(ROOT) else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qmobius")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(f"{base}/{index}/level") as lv, open(f"{base}/{index}/size") as sz:
                size = sz.read().strip()
                caches[int(lv.read())] = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": items, "setup_probes": SETUP_PROBES,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "l2_bytes_per_core": caches.get(2),
        "l3_bytes": caches.get(3), "c_hard": refs.C_HARD,
        "attempted_by_layer": dict(tally.attempted), "failed_by_layer": dict(tally.failed),
        "hard_attempted_by_layer": dict(tally.hard_attempted),
        "hard_missed_by_layer": dict(tally.hard_missed),
        "hard_miss_ratio": tally.hard_miss_ratio,
    }


def run_one(args):
    if args.trace:
        m, tally, items, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        m, tally, items, metrics = end_to_end(args.workload, args.seed, args.seconds)
    for line in tally.examples:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(m, args, items, tally)}))
    print(json.dumps({"correct": tally.total_failed == 0,
                      "attempted": tally.total_attempted, "failed": tally.total_failed,
                      "metrics": metrics}))


def run_all(args):
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: could not run (exit {proc.returncode})", file=sys.stderr)
            status = 1
            continue
        res = results[name] = json.loads(lines[-1])
        prov = json.loads(lines[-2])["provenance"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} hard_miss_ratio={prov['hard_miss_ratio']:.4g}")
        for metric, mv in res["metrics"].items():
            print(f"  {metric:<40} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "qmobius", "__init__.py")):
        print(f"run.py: no qmobius package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    os.environ.update(workloads.SINGLE_THREAD_ENV)  # before numpy is first imported
    sys.dont_write_bytecode = False  # the first import caches src/ bytecode for all processes
    sys.path.insert(0, SRC)
    sys.exit(main())
