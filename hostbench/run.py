#!/usr/bin/env python3
"""Build and run the host-time benchmark.

One measurement (the form BENCHMARK.json's command takes):

    python3 hostbench/run.py --workload serve-steady --seed 1 --seconds 25 --trace 0

prints the run document and, as its last line, the one-line JSON
result. Three more modes:

    python3 hostbench/run.py all [--seed 1] [--seconds 25]

runs every workload once untraced and once traced, checks each, and
prints every end-to-end and per-layer metric by name and unit.

    python3 hostbench/run.py steady --workload kernel-apps --runs 10 [--trace 0]

runs one workload N times, each with another seed, and prints every
metric's median, quartiles and quartile spread against its bound.

    python3 hostbench/run.py record [--seeds 0-31,7919]

re-records hostbench/expected.json, the simulated outputs the
correctness gate compares, after checking each against the JIT-off
reference.

The benchmark is built from source with cargo (offline, release). Set
CARGO_TARGET_DIR to choose where; the default is hostbench/target.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["serve-steady", "serve-recover", "kernel-apps"]


def build():
    """Build the benchmark binary; return its path. Cargo's own output
    goes to stderr so stdout carries only the benchmark's."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py: cargo build failed (exit {proc.returncode})")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "hostbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("run.py: cargo built no hostbench executable")
    return exe


def result_of(stdout):
    """The one-line result: the last line of the benchmark's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def measure(args):
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


def bounds():
    """Metric name -> bound, from BENCHMARK.json beside this directory."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    exe = build()
    values = {}
    units = {}
    bad = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [exe, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"run.py: seed {seed}: benchmark exited {proc.returncode}")
        res = result_of(proc.stdout)
        if not res["correct"] or res["failed"]:
            bad += 1
        line = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} "
              + " ".join(line), flush=True)
    lim = bounds()
    print(f"\n{args.workload}: {args.runs} runs, {bad} incorrect")
    print(f"{'metric':40s} {'unit':8s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        med = statistics.median(xs)
        spread = (q3 - q1) / med if med else 0.0
        bound = lim.get(name)
        mark = ""
        if bound is not None:
            mark = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
        print(f"{name:40s} {units[name]:8s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6} {mark}")
    return 1 if bad else 0


def run_all(args):
    exe = build()
    ok = True
    for trace in (0, 1):
        rows = {}
        for w in WORKLOADS:
            cmd = [exe, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"run.py: {w}: benchmark exited {proc.returncode}")
            res = result_of(proc.stdout)
            ok = ok and res["correct"] and not res["failed"]
            print(f"{w} --trace {trace}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
            rows[w] = res["metrics"]
        kind = "per-layer (traced run)" if trace else "end-to-end"
        print(f"\n{kind} metrics, seed {args.seed}")
        print(f"{'metric':40s} {'unit':8s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
        for name, m in rows[WORKLOADS[0]].items():
            vals = " ".join(f"{rows[w][name]['value']:14.6g}" for w in WORKLOADS)
            print(f"{name:40s} {m['unit']:8s} {vals}")
        print()
    return 0 if ok else 1


def record(args):
    exe = build()
    procs = {}
    for w in WORKLOADS:
        cmd = [exe, "record", "--workload", w, "--seeds", args.seeds]
        procs[w] = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    doc = {"workloads": {}}
    failed = False
    for w, p in procs.items():
        out, _ = p.communicate()
        if p.returncode != 0:
            failed = True
            continue
        doc["workloads"][w] = json.loads(out.strip().splitlines()[-1])
    if failed:
        sys.exit("run.py: recording failed; expected.json left as it was")
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"run.py: wrote {HERE / 'expected.json'}")
    return 0


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and argv[0] in ("steady", "record", "all") else "measure"
    if mode != "measure":
        argv = argv[1:]
    p = argparse.ArgumentParser(prog="run.py")
    if mode == "record":
        p.add_argument("--seeds", default="0-31,7919")
        return record(p.parse_args(argv))
    p.add_argument("--seconds", type=int, default=25)
    if mode == "all":
        p.add_argument("--seed", type=int, default=1)
        return run_all(p.parse_args(argv))
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    if mode == "steady":
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        return steady(p.parse_args(argv))
    p.add_argument("--seed", type=int, required=True)
    return measure(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
