#!/usr/bin/env python3
"""One-command benchmark for the scheduling service and the paper's
offline algorithms.

    python3 benchmark/run.py                      # build, self-test, every workload
    python3 benchmark/run.py --trace 1            # per-layer metrics instead
    python3 benchmark/run.py --workload serve_contended --seed 7 --seconds 10 --trace 0
    python3 benchmark/run.py --repeat 5           # spread per workload x metric
    python3 benchmark/run.py --repeat 10 --against ../parent-checkout   # A/B

Every mode builds benchmark/ into build/benchmark and runs the self-tests
once per build. With --workload, one workload runs in a fresh runner
process and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json lists. The exit status is non-zero when
a build, a self-test or any output check fails.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"
RUNNER = BUILD / "benchmark_runner"
SELFTEST = BUILD / "benchmark_selftest"
STAMP = BUILD / "selftest.stamp"
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, len(os.sched_getaffinity(0)))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quiet(cmd, timeout, cwd=ROOT):
    """Runs cmd with its output sent to stderr; fails on error or timeout."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to benchmark/ (looked in {ROOT})")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", ROOT / "benchmark", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD, "--target", "benchmark_runner",
               "benchmark_selftest", "-j", str(BUILD_JOBS)], timeout=850)


def selftest():
    """Runs the drift-guard self-tests unless this build already passed."""
    stamp = " ".join(f"{p.stat().st_mtime_ns}:{p.stat().st_size}"
                     for p in (RUNNER, SELFTEST))
    if STAMP.is_file() and STAMP.read_text() == stamp:
        return
    run_quiet(["ctest", "-R", r"^selftest\.", "--output-on-failure"],
              timeout=RUN_TIMEOUT_S, cwd=BUILD)
    STAMP.write_text(stamp)


def nearest_rank(xs, p):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[int(p * (len(xs) - 1) + 0.5)]


def layer_metrics(trace_path):
    """Per-layer metrics of one traced run, from its span file."""
    lines = trace_path.read_text().splitlines()
    meta = json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    roots = [s["id"] for s in spans if s["parent"] == -1]  # one per input
    wall = sum(dur[r] for r in roots)

    children = collections.Counter()
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += dur[s["id"]]
    self_ns = collections.Counter()
    for s in spans:
        self_ns[s["name"]] += dur[s["id"]] - children[s["id"]]
    c = collections.Counter()
    in_flight = []
    for s in spans:
        for key, value in s["c"].items():
            if key == "in_flight":
                in_flight.append(value)
            else:
                c[key] += value

    # One call = one decision the program makes for its caller: an event
    # (serve), the whole online_dcfsr run (flat), or one solve (offline).
    call_names = {"serve": ("event",), "flat": ("flat.online_dcfsr",),
                  "offline_dcfsr": ("offline.relax", "offline.round"),
                  "offline_mcf": ("offline.route", "offline.mcf")}[meta["kind"]]
    if meta["kind"] in ("serve", "flat"):
        calls = [dur[s["id"]] for s in spans if s["name"] in call_names]
    else:
        per_root = collections.Counter()
        for s in spans:
            if s["name"] in call_names:
                per_root[s["parent"]] += dur[s["id"]]
        calls = list(per_root.values())

    def share(name):
        return self_ns[name] / wall

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    events, arrivals, resolves = c["events"], c["arrivals"], c["resolves"]
    return {
        "trace.overhead_frac": meta["traced_loop_s"] / meta["untraced_loop_s"] - 1,
        "trace.coverage": sum(children[r] for r in roots) / wall,
        "stream.share": share("stream.next"),
        "event.share": share("event"),
        "verify.share": share("verify"),
        "flat.share": share("flat.online_dcfsr"),
        "replay.share": share("replay"),
        "offline.relax_share": share("offline.relax"),
        "offline.round_share": share("offline.round"),
        "offline.route_share": share("offline.route"),
        "offline.mcf_share": share("offline.mcf"),
        "paced.wait_share": share("wait"),
        "call.p50_ms": nearest_rank(calls, 0.50) * 1e-6,
        "call.p99_ms": nearest_rank(calls, 0.99) * 1e-6,
        "decision.p999_ms": meta["decision_p999_ms"],
        "event.count": events,
        "event.arrivals_per_event": per(arrivals, events),
        "event.completions_per_event": per(c["completed"], events),
        "event.in_flight_mean": statistics.fmean(in_flight) if in_flight else 0.0,
        "pool.cpu_util": meta["cpu_util"],
        "pool.speedup_4_over_1": per(meta["event_s_1w"], meta["event_s"]),
        "relax.resolves_per_event": per(resolves, events),
        "relax.fw_iters_per_resolve": per(c["fw_iters"], resolves),
        "relax.gap_checks_per_event": per(c["gap_checks"], events),
        "relax.energy_over_lb": meta["energy_over_lb"],
        "fw.oracle_sweeps_per_event": per(c["fw_sweeps"], events),
        "fw.edges_repriced_per_event": per(c["fw_repriced"], events),
        "fw.ls_evals_per_event": per(c["fw_ls_evals"], events),
        "fw.oracle_cpu_share": per(c["fw_oracle_s"], meta["traced_cpu_s"]),
        "fw.reprice_cpu_share": per(c["fw_reprice_s"], meta["traced_cpu_s"]),
        "fw.ls_cpu_share": per(c["fw_ls_s"], meta["traced_cpu_s"]),
        "round.draws_per_arrival": per(c["draws"], arrivals),
        "round.admits_per_draw": per(c["admitted"], c["draws"]),
        "admit.batch_fallbacks_per_event": per(c["batch_fallbacks"], events),
        "index.peak_live_segments": meta["peak_live_segments"],
        "index.pruned_per_event": per(c["pruned"], events),
        "index.add_ns": meta["add_ns"],
        "index.max_within_ns": meta["max_within_ns"],
        "index.marginal_energy_ns": meta["marginal_ns"],
        "mem.rss_growth_b_per_arrival": meta["rss_growth_b_per_arrival"],
        "paced.window_wait_share": per(meta["window_wait_mean_ms"],
                                       meta["sojourn_mean_ms"]),
        "paced.queue_wait_share": per(meta["queue_wait_mean_ms"],
                                      meta["sojourn_mean_ms"]),
        "paced.backlog_max": meta["backlog_max"],
        "mcf.iterations": c["mcf_iterations"],
    }


def run_workload(spec, name, seed, seconds, trace):
    """Runs one workload in a fresh runner process; returns the result object."""
    cmd = [RUNNER, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    trace_path = BUILD / "trace" / f"{name}.jsonl"
    if trace:
        trace_path.parent.mkdir(exist_ok=True)
        cmd += ["--trace-out", trace_path]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: runner timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{name}: runner exited {done.returncode}")
    raw = json.loads(lines[-1])
    if not raw["correct"]:
        print(f"run.py: {name}: check failed: {raw['problem']}", file=sys.stderr)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = raw["metrics"]
    if trace and raw["correct"]:
        values = layer_metrics(trace_path)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif raw["correct"]:
            fail(f"{name}: the runner did not report {m['name']}")
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def quartile_spread(values):
    """(median, IQR / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def run_other(root, name, seed, seconds):
    """One untraced run of another checkout's benchmark."""
    cmd = [sys.executable, Path(root) / "benchmark" / "run.py", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=900)
    if done.returncode != 0:
        fail(f"{root}: {name} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(spec, names, args):
    """Alternating repeat runs; prints median and spread per workload x metric.

    Run i uses seed + i on every side. With --against, the other checkout
    runs the same seed right before or after (alternating which goes
    first), and each metric is judged on the per-seed paired change against
    the bound BENCHMARK.json fixes for it.
    """
    sides = {"this": collections.defaultdict(list)}
    if args.against:
        sides["other"] = collections.defaultdict(list)
    ok = True
    for i in range(args.repeat):
        for name in names:
            order = ["this", "other"] if i % 2 == 0 else ["other", "this"]
            for side in (s for s in order if s in sides):
                if side == "this":
                    result = run_workload(spec, name, args.seed + i, args.seconds, False)
                else:
                    result = run_other(args.against, name, args.seed + i, args.seconds)
                ok &= result["correct"]
                for metric, v in result["metrics"].items():
                    sides[side][(name, metric)].append(v["value"])
            print(f"run {i + 1}/{args.repeat} {name} done", file=sys.stderr)

    print(f"{'workload':16} {'metric':22} {'median':>12} {'iqr/med':>8} {'bound':>6}"
          + (f" {'other':>12} {'worse by':>9} {'wins':>6} verdict" if args.against
             else " flag"))
    for name in names:
        for m in spec["end_to_end"]:
            mine = sides["this"][(name, m["name"])]
            med, spread = quartile_spread(mine)
            line = f"{name:16} {m['name']:22} {med:12.6g} {spread:8.2%} {m['bound']:6.1%}"
            if not args.against:
                print(line + (" SPREAD>BOUND" if spread > m["bound"] else " ok"))
                continue
            theirs = sides["other"][(name, m["name"])]
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (a - b) / b for a, b in zip(mine, theirs)]
            change = statistics.median(worse)
            wins = sum(w < 0 for w in worse)
            _, paired_spread = quartile_spread([1 + w for w in worse])
            verdict = "ok"
            if change > m["bound"]:
                verdict, ok = "REGRESSED", False
            elif paired_spread > m["bound"]:
                verdict = "unresolved"
            print(line + f" {statistics.median(theirs):12.6g} {change:+9.2%} "
                  f"{wins:>2}/{len(worse):<3} {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="alternating runs per workload; prints median and spread")
    parser.add_argument("--against", help="another checkout's root to A/B against")
    args = parser.parse_args()

    started = time.monotonic()
    build()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; known: {' '.join(names)}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    selftest()
    print(f"run.py: build and self-tests {time.monotonic() - started:.1f} s",
          file=sys.stderr)

    selected = [args.workload] if args.workload else names
    if args.repeat:
        return 0 if repeat(spec, selected, args) else 1

    ok = True
    for name in selected:
        result = run_workload(spec, name, args.seed, args.seconds, args.trace)
        ok &= result["correct"]
        for metric, v in result["metrics"].items():
            print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
        if args.workload:
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
