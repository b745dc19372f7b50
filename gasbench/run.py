#!/usr/bin/env python3
"""End-to-end benchmark of gasnub: one workload per run.

    python3 gasbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `gasnub` binary and the
`gasbench` helper with cargo (into $CARGO_TARGET_DIR, default
.bench_build), runs the workload through the same entry points users use
(`gasnub sweep`, `gasnub serve`), checks the outputs, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
declares; with --trace 1 they are its per-layer metrics, from a separate
traced run. Any failed check prints the faults on stderr and exits 1.
"""

import argparse
import json
import os
import random
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("first-touch", "tier-auto", "serve-mixed")
# Repeated set-ups per run: one round of 34 set-ups is a few hundred
# milliseconds, too short to time once within its bound.
SETUP_ROUNDS = 3
# The serve session a traced sweep-workload run adds for the serve layer.
TRACE_SERVE_SECONDS = 3.0


class Failed(Exception):
    """A check failed or a step could not run."""


def log(message):
    print(f"gasbench: {message}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "gasnub"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failed(f"build failed: {' '.join(args)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "gasnub"), os.path.join(release, "gasbench")


def timed(args, out_path):
    """Runs one process to its end: (seconds, peak RSS in MB, exit code, stdout)."""
    with open(out_path, "w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out.read()


def helper(gasbench, *args):
    done = subprocess.run([gasbench, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if done.returncode != 0:
        raise Failed(f"gasbench {args[0]} exited {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    for e in report.get("errors", []):
        log(e)
    if report.get("errors"):
        raise Failed(f"gasbench {args[0]}: {len(report['errors'])} failed checks")
    return report


def surfaces():
    rows = []
    with open(os.path.join(HERE, "reference", "surfaces.tsv")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                rows.append(tuple(line.split()))
    return rows


def median(xs):
    xs = sorted(xs)
    return xs[(len(xs) - 1) // 2]


def sweep_workload(gasnub, gasbench, tier, seed, seconds, work):
    """One `gasnub sweep` process per surface, in a seeded order, in whole
    passes: as many as fit in `seconds` of measured sweeping, at least one."""
    order = surfaces()
    random.Random(seed).shuffle(order)
    log_path = os.path.join(work, "sweep.out")
    ck = os.path.join(work, "setup.json")

    # Set-up: what a user waits for before the first cell (process start,
    # registry discovery, spec resolution, engine spawn, model derivation).
    rounds = []
    for _ in range(SETUP_ROUNDS):
        total = 0.0
        for machine, op in order:
            if os.path.exists(ck):
                os.remove(ck)
            s, _, rc, out = timed([gasnub, "sweep", machine, op, "--checkpoint", ck,
                                   "--max-cells", "0", "--tier", tier], log_path)
            if rc != 0 or "0 measured" not in out:
                raise Failed(f"set-up of {machine} {op} failed: {out[-300:]}")
            total += s
        rounds.append(total)

    # Latency is per machine: the wall time per cell of one machine's sweep
    # processes in a pass. Single surfaces are too short to time against
    # the host's phases; the seeded order spreads each machine's surfaces
    # over the whole pass, so a slow phase weighs on every machine alike.
    latencies, rss, measured, passes, surfaces_run = [], 0.0, 0.0, 0, 0
    while passes == 0 or measured / passes * (passes + 1) <= seconds:
        per_machine = {}
        for machine, op in order:
            path = os.path.join(work, f"{machine}-{op}.json")
            if os.path.exists(path):
                os.remove(path)
            s, peak, rc, out = timed([gasnub, "sweep", machine, op, "--checkpoint", path,
                                      "--tier", tier], log_path)
            if rc != 0 or "cells: 25 measured, 0 resumed from checkpoint, 0 failed, 0 pending" not in out:
                raise Failed(f"sweep {machine} {op} at {tier} failed: {out[-300:]}")
            per_machine.setdefault(machine, []).append(s * 1e3 / 25)
            rss = max(rss, peak)
            measured += s
            surfaces_run += 1
        latencies.extend(sum(t) / len(t) for t in per_machine.values())
        passes += 1

    checks = helper(gasbench, "check-sweeps", "--tier", tier, "--dir", work, "--seed", str(seed),
                    "--latencies-ms", ",".join(repr(x) for x in latencies))
    log(f"checked {checks['checked_cells']} cells; {checks['sampled_analytic']} analytic "
        "answers against simulation")
    cells = 25 * surfaces_run
    metrics = {
        "cells_per_s": cells / measured,
        "req_per_s": surfaces_run / measured,
        "p50_ms": checks["p50_ms"],
        "p99_ms": checks["p99_ms"],
        "setup_s": median(rounds),
        "peak_rss_mb": rss,
        "paper_dev_pct": checks["paper_dev_pct"],
    }
    return cells, 0, metrics


def post(addr, path):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n"
                  "Connection: close\r\n\r\n".encode())
        while s.recv(4096):
            pass


def serve_session(gasnub, gasbench, seed, seconds, work):
    """One `gasnub serve` process from start to shutdown, driven by the
    gasbench client. Returns (client report, set-up seconds, peak RSS MB)."""
    state = os.path.join(work, "state")
    start = time.perf_counter()
    proc = subprocess.Popen([gasnub, "serve", "--addr", "127.0.0.1:0", "--state-dir", state],
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        line = proc.stdout.readline()
        bound = time.perf_counter() - start
        if "serving on http://" not in line:
            raise Failed(f"gasnub serve did not start: {line!r}")
        addr = line.split("http://", 1)[1].strip()
        report = helper(gasbench, "serve-load", "--addr", addr, "--seed", str(seed),
                        "--seconds", str(seconds), "--work", os.path.join(work, "client"))
        post(addr, "/v1/shutdown")
        deadline = time.monotonic() + 30
        pid = 0
        while pid == 0 and time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            time.sleep(0.01)
        if pid == 0:
            raise Failed("gasnub serve did not stop after POST /v1/shutdown")
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise Failed(f"gasnub serve exited {proc.returncode}")
        return report, bound + report["warmup_s"], usage.ru_maxrss / 1024.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def serve_workload(gasnub, gasbench, seed, seconds, work):
    report, setup_s, rss = serve_session(gasnub, gasbench, seed, seconds, work)
    if not isinstance(report["p99_ms"], (int, float)):
        raise Failed(f"{report['attempted']} requests completed: too few for a p99")
    elapsed = report["elapsed_s"]
    metrics = {
        "cells_per_s": report["cells"] / elapsed,
        "req_per_s": report["attempted"] / elapsed,
        "p50_ms": report["p50_ms"],
        "p99_ms": report["p99_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "paper_dev_pct": report["paper_dev_pct"],
    }
    return report["attempted"], report["failed"], metrics


def traced(gasnub, gasbench, workload, seed, seconds, work):
    layers = helper(gasbench, "layers", "--workload", workload, "--work",
                    os.path.join(work, "layers"))
    session = seconds if workload == "serve-mixed" else TRACE_SERVE_SECONDS
    report, _, _ = serve_session(gasnub, gasbench, seed, session, work)
    classes = report["class_p50_ms"]
    server = report["server_metrics"]
    metrics = dict(layers)
    metrics.update({
        "serve.probe_p50_ms": classes["probe_sim"],
        "serve.probe_auto_p50_ms": classes["probe_auto"],
        "serve.sweep_memory_p50_ms": classes["sweep_memory"],
        "serve.sweep_computed_p50_ms": classes["sweep_computed"],
        "serve.keepalive_p50_ms": report["keepalive_p50_ms"],
        "serve.new_conn_p50_ms": report["new_conn_p50_ms"],
        "serve.sweeps_computed": server["serve.sweeps_computed"],
        "serve.sweep_cache_hits_memory": server["serve.sweep_cache_hits_memory"],
        "serve.connections": server["serve.connections"],
    })
    if workload == "serve-mixed":
        # The serving process's own memo, not the in-process replay's.
        hits, misses = server["memo.hits"], server["memo.misses"]
        metrics["machines.sim_probes"] = misses
        metrics["machines.memo_hit_ratio"] = hits / max(1, hits + misses)
    return report["attempted"], report["failed"], metrics


def result(attempted, failed, metrics, units):
    """The result line: exactly the declared metrics, each with its unit."""
    if set(metrics) != set(units):
        raise Failed(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            raise Failed(f"metric {name} is not a number: {value!r}")
    if "p50_ms" in metrics and not metrics["p50_ms"] <= metrics["p99_ms"]:
        raise Failed(f"p50 {metrics['p50_ms']} ms exceeds p99 {metrics['p99_ms']} ms")
    if attempted < 1 or failed:
        raise Failed(f"{failed} of {attempted} operations failed their checks")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units = declared(args.trace)
    work = os.path.join(target_dir(), "gasbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        gasnub, gasbench = build()
        if args.trace:
            attempted, failed, metrics = traced(gasnub, gasbench, args.workload, args.seed,
                                                args.seconds, work)
        elif args.workload == "serve-mixed":
            attempted, failed, metrics = serve_workload(gasnub, gasbench, args.seed,
                                                        args.seconds, work)
        else:
            tier = "sim" if args.workload == "first-touch" else "auto"
            attempted, failed, metrics = sweep_workload(gasnub, gasbench, tier, args.seed,
                                                        args.seconds, work)
        line = result(attempted, failed, metrics, units)
    except Failed as e:
        log(str(e))
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))


if __name__ == "__main__":
    main()
