"""Seeded benchmark for qbd: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/qbd and tests/helpers.py;
it needs nothing but the standard library. Workloads: q2cnf-branch,
parity-kernel, sign-wide (solved in process) and cli-small (one `qbd solve`
child process per instance). See bench/README.md for what each measures.

This script times cold `qbd solve` runs of the README example (setup_s),
then starts bench/workload.py as a child process, which generates the
instances from the seed, runs the correctness gate, and solves for S
seconds. It prints a readable report and, as the last line of stdout, one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The end-to-end times are CPU times at the reference speed of
speed.calibrate (see bench/speed.py); the report prints the measured wall
times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen  # bench/gen.py and bench/speed.py: standard library only, so safe
import speed  # before the checkout check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Cold starts are timed in two batches, before and after the workload, so
# that a slow spell of the machine does not set the whole median.
SETUP_RUNS = 10
STARTUP_RUNS = 6
# Time the workload process may take beyond --seconds: generation, the
# correctness gate, the warm-up, and the end of the first round over the
# pool, which the timed loop always completes.
GATE_MARGIN_S = 140

README_EXAMPLE = """c class 2cnf
p cnf 5 5
e 1 0
a 2 0
e 3 4 5 0
1 3 0
-1 4 0
3 4 0
2 5 0
c backdoor-begin
-3 -4 -5 0
"""


def metric_units(traced: bool) -> dict:
    """Name -> unit of every metric a run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def cold_runs(argv, runs: int, env: dict, check):
    """Wall times of `runs` fresh interpreters running argv, after one
    untimed run (which fills the bytecode cache, unless the environment
    sets PYTHONDONTWRITEBYTECODE), and each one's CPU time at the
    reference speed. `check(process)` returns '' or what went wrong.
    Returns (wall times, reference times, failures)."""
    times = []
    ref_times = []
    failures = []
    before = speed.calibrate_for(0)
    for i in range(runs + 1):
        c0 = speed.children_cpu_s()
        t0 = perf_counter()
        p = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                           env=env, cwd=ROOT)
        dt = perf_counter() - t0
        cpu = speed.children_cpu_s() - c0
        after = speed.calibrate_for(cpu)
        if i:
            times.append(dt)
            ref_times.append(speed.at_reference(cpu, before + after))
        before = after
        why = check(p)
        if why:
            failures.append(f"cold start {' '.join(argv[2:])}: {why}")
    return times, ref_times, failures


def imported(p) -> str:
    return f"exit {p.returncode} {p.stderr.strip()[-200:]}" if p.returncode or p.stderr.strip() else ""


def report(result: dict, metrics: dict, units: dict, traced: bool) -> None:
    fam = result["family"]
    print(f"gate: {result['gate']}; {result['attempted']} solves checked, {result['failed']} failed")
    print(f"family: TRUE share {fam['true_share']:.2f}, branching share {fam['branching_share']:.2f}, "
          f"algorithms {','.join(fam['algorithms'])}, pool {fam['pool']}")
    print(f"fail_rate {result['failed'] / result['attempted']:.4f} ({result['failed']}/{result['attempted']})")
    print(f"calibration job median {result['calibration_ms']:.3f} ms, reference "
          f"{speed.CALIBRATION_REFERENCE_S * 1e3:g} ms (every job's time in bench/out/raw.jsonl)")
    for why in result["failures"]:
        print(f"FAILED {why}")
    if traced:
        wall = metrics["trace.wall_s"]
        layer_self = result["layer_self_s"]
        total = sum(layer_self.values())
        solves = result["traced_solves"]
        print(f"traced solves {solves}; self time per solve by layer (sum {total / solves * 1e3:.3f} ms, "
              f"traced wall {wall * 1e3:.3f} ms):")
        for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<11} {s / solves * 1e3:10.3f} ms  {s / total:6.1%}")
        own = result["function_self_s"]
        top = sorted(own, key=own.get, reverse=True)[:3]
        print("dominant: " + ", then ".join(f"{name} {own[name] / total:.1%}" for name in top)
              + " of traced self time")
        if result["layers_not_seen"]:
            print(f"layers not seen by any wrapper on this workload: {', '.join(result['layers_not_seen'])}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(gen.POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/qbd/cli.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}; run from a qbd checkout",
              file=sys.stderr)
        return 2
    import workload  # imports qbd, so only once the checkout is known to hold it

    units = metric_units(bool(args.trace))

    def solved_true(p) -> str:
        return workload.check(workload.read_cli(p.returncode, p.stdout, p.stderr), True)

    workload.OUT.mkdir(parents=True, exist_ok=True)
    example = workload.OUT / "readme-example.qdimacs"
    example.write_text(README_EXAMPLE, encoding="utf-8")

    setup_argv = ["-c", workload.CLI_MAIN, "solve", str(example)]
    startup_argv = ["-c", "import qbd.cli"]
    setup_wall, setup, setup_failures = cold_runs(setup_argv, SETUP_RUNS, workload.CLI_ENV,
                                                  solved_true)
    startup = []
    if args.trace:
        _, startup, more = cold_runs(startup_argv, STARTUP_RUNS, workload.CLI_ENV, imported)
        setup_failures += more

    result_path = workload.OUT / f"result-{args.workload}.json"
    if result_path.exists():
        result_path.unlink()
    timeout = args.seconds + GATE_MARGIN_S
    # In a session of its own, so that a timeout also kills the `qbd solve`
    # child it may be waiting for.
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(result_path)],
        stdout=sys.stderr, cwd=ROOT, start_new_session=True,
    ) as child:
        try:
            child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            print(f"bench: workload process killed after {timeout:g} s", file=sys.stderr)
            return 1
    if child.returncode != 0 or not result_path.exists():
        print(f"bench: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    more_wall, more_setup, more = cold_runs(setup_argv, SETUP_RUNS, workload.CLI_ENV, solved_true)
    setup_wall += more_wall
    setup += more_setup
    setup_failures += more
    if args.trace:
        _, more_startup, more = cold_runs(startup_argv, STARTUP_RUNS, workload.CLI_ENV, imported)
        startup += more_startup
        setup_failures += more
    result["attempted"] += 2 * (SETUP_RUNS + 1 + (STARTUP_RUNS + 1 if args.trace else 0))
    result["failed"] += len(setup_failures)
    result["failures"] = setup_failures + result["failures"]

    if args.trace:
        metrics = {"cli.startup_ms": statistics.median(startup) * 1e3, **result["layers"]}
    else:
        per_instance = result["instance_ms"]
        metrics = {
            "solve_p50_ms": statistics.median(per_instance),
            "solve_p90_ms": statistics.quantiles(per_instance, n=10)[8],
            "throughput_ips": 1e3 * len(per_instance) / sum(per_instance),
            "pass_rate": 1 - result["failed"] / result["attempted"],
            "setup_s": statistics.median(setup),
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
        }
        wall = result["times"]
        print(f"timed solves {len(wall)} of {len(per_instance)} instances; measured wall time "
              f"p50 {statistics.median(wall) * 1e3:.3f} ms, p90 "
              f"{statistics.quantiles(wall, n=10)[8] * 1e3:.3f} ms, setup "
              f"{statistics.median(setup_wall):.4f} s")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if metrics.keys() != units.keys():
        print(f"bench: metrics not matching BENCHMARK.json: {sorted(metrics.keys() ^ units.keys())}",
              file=sys.stderr)
        return 1
    report(result, metrics, units, bool(args.trace))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
