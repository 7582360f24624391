"""One run of one benchmark workload, in a process of its own.

run.py starts this file once per run, so that the peak RSS it reports
belongs to the workload alone. The run:

1. generates the seeded pool of instances (gen.py);
2. runs the correctness gate, outside the timed region: the family at
   n <= 14 against tests/helpers.naive_eval; the pool against
   oracle.eval_bruteforce (cli-small), against the oracle on the game over
   the cover variables (parity-kernel, sign-wide), or against the verdicts
   pinned in pins.json (q2cnf-branch); and an untimed warm-up on the
   first few instances. The reference formulas are built from the
   generator's atoms (`reference`), never parsed from the text the program
   reads;
3. solves the pool round-robin, one instance at a time, until the time is
   up and every instance has been solved at least once. A fixed
   pure-Python job (`speed.calibrate`) is timed between every two solves,
   and each solve's CPU time is scaled by the jobs around it to the
   reference speed (`speed.at_reference`). Every recorded verdict is checked after the
   clock stops;
4. with --trace 1, solves each instance untraced and then traced, in
   turn, and reports per-layer figures from the spans;
5. writes its result as JSON to --out, appends its raw per-solve and
   calibration times to bench/out/raw.jsonl and, when traced, writes the
   spans to bench/out/spans-<workload>.json.
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
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import gen  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from helpers import naive_eval  # noqa: E402
from qbd import qdimacs, special  # noqa: E402
from qbd.formula import AffineEquation, Matrix, Prefix, QbfFormula, atom_vars, clause  # noqa: E402
from qbd.oracle import eval_bruteforce  # noqa: E402

CLI_MAIN = "from qbd.cli import main; main()"
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
SMALL_PROBES = 6
WARMUP = 8  # untimed solves of the first pool instances


@dataclass
class Outcome:
    """What one solve reported, or the error that stopped it."""

    value: bool = None
    algorithm: str = None
    leaves: int = 0
    k: int = 0
    branch_nodes: int = 0
    error: str = None

    def verdict(self):
        return {"algorithm": self.algorithm, "leaves": self.leaves, "k": self.k,
                "branch_nodes": self.branch_nodes}


def solve_text(text: str) -> Outcome:
    """parse_qdimacs plus dispatch, looked up at call time so that the
    tracer's wrappers apply."""
    f = qdimacs.parse_qdimacs(text)
    v = special.dispatch(f)
    s = v.stats
    return Outcome(v.value, v.algorithm, s.leaves, s.initial_k, s.branch_nodes)


def solve_in_process(text: str) -> Outcome:
    try:
        return solve_text(text)
    except Exception as exc:  # a crash is a failed instance, not a failed run
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def run_cli(path: Path, spans_out: Path = None):
    """One `qbd solve` child process; returns (start, end, CPU seconds of
    the child, Outcome)."""
    if spans_out is None:
        cmd = [sys.executable, "-c", CLI_MAIN, "solve", str(path)]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_out), "solve", str(path)]
    c0 = speed.children_cpu_s()
    t0 = perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, cwd=ROOT)
    t1 = perf_counter()
    return t0, t1, speed.children_cpu_s() - c0, read_cli(p.returncode, p.stdout, p.stderr)


def read_cli(code: int, stdout: str, stderr: str) -> Outcome:
    """Check a `qbd solve` transcript: exit 10/20 agreeing with the `s`
    line, nothing on stderr, and the stat lines present."""
    lines = stdout.splitlines()
    if stderr.strip():
        return Outcome(error=f"stderr: {stderr.strip().splitlines()[-1]}")
    if not lines or lines[0] not in ("s TRUE", "s FALSE"):
        return Outcome(error=f"bad s line {lines[:1]!r} (exit {code})")
    value = lines[0] == "s TRUE"
    if code != (10 if value else 20):
        return Outcome(error=f"exit code {code} with {lines[0]!r}")
    stats = dict(line[2:].split(" ", 1) for line in lines[1:] if line.startswith("c "))
    try:
        return Outcome(value, stats["algorithm"], int(stats["leaves"]), int(stats["k"]),
                       int(stats["branch-nodes"]))
    except (KeyError, ValueError):
        return Outcome(error=f"stat lines missing from {stdout!r}")


def check(out: Outcome, expected) -> str:
    """The reason an outcome fails, or '' when it passes."""
    if out.error:
        return out.error
    if expected is not None and out.value != expected:
        return f"verdict {out.value} but expected {expected}"
    if out.leaves > 1 << out.k:
        return f"{out.leaves} leaves exceed 2^{out.k}"
    return ""


def reference(inst: gen.Instance) -> QbfFormula:
    """The instance as a formula, built with qbd.formula types from the
    generator's prefix and atoms rather than by parse_qdimacs, so that a
    misread file cannot match a reference misread the same way."""
    prefix = Prefix(tuple(enumerate(inst.quants, start=1)))
    tract = tuple(AffineEquation.from_literals(a[1:], rhs=1) if a[0] == "x" else clause(*a)
                  for a in inst.tract)
    return QbfFormula(prefix, Matrix(tract, tuple(clause(*c) for c in inst.covered)))


def cover_game(f: QbfFormula) -> QbfFormula:
    """The game on the cover variables alone: the prefix restricted to
    them and the atoms that mention nothing else.

    For parity-kernel and sign-wide this has the value of the whole
    instance, by construction (gen.py): every other atom holds an
    existential variable that occurs nowhere else with the opposite sign
    (an innermost row owner, or a sign-uniform anchor), so its owner can
    always satisfy it. At k <= 16 the oracle decides it at once.
    """
    cover = f.matrix.backdoor_variables()
    atoms = tuple(a for a in f.matrix.atoms() if atom_vars(a) <= cover)
    return QbfFormula(f.prefix.restrict(cover), Matrix(atoms, ()))


def pool_digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


def pinned(family: str, seed: int, texts):
    """Expected verdicts from pins.json: (list or None, problem or '')."""
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        entry = json.load(fh).get(family, {}).get(str(seed))
    if entry is None:
        return None, ""
    if entry["sha"] != pool_digest(texts):
        return None, f"pool for seed {seed} differs from the pinned pool {entry['sha']}"
    return [c == "1" for c in entry["verdicts"]], ""


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.cli = workload == "cli-small"
        self.attempted = 0
        self.failures = []
        self.roots = []  # (span index, verdict) per traced solve
        self.samples = []  # (pool index, seconds, Outcome, seconds at reference speed)
        self.traced_samples = []  # (pool index, seconds, Outcome)
        self.calibration = []  # job times before the first solve, then after each
        self.instances = [gen.instance(workload, seed, i) for i in range(gen.POOL[workload])]
        self.texts = [inst.text for inst in self.instances]
        self.paths = []
        if self.cli:
            pool_dir = OUT / "pool"
            pool_dir.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(self.texts):
                path = pool_dir / f"{i}.qdimacs"
                path.write_text(text, encoding="utf-8")
                self.paths.append(path)

    def record(self, where: str, out: Outcome, expected) -> None:
        self.attempted += 1
        why = check(out, expected)
        if why:
            self.failures.append(f"{where}: {why}")

    def gate(self):
        """Everything checked before the clock starts. Leaves in
        self.expected the verdict each timed solve must give, or None
        where there is no reference."""
        for i in range(SMALL_PROBES):
            inst = gen.instance(self.workload, self.seed, i, small=True)
            ref = naive_eval(reference(inst))
            self.record(f"small probe {i}", solve_in_process(inst.text), ref)
        if self.cli:
            expected = [eval_bruteforce(reference(inst), cap=None) for inst in self.instances]
            self.pin_note = "verdicts from oracle.eval_bruteforce"
        elif self.workload in ("parity-kernel", "sign-wide"):
            expected = [eval_bruteforce(cover_game(reference(inst)), cap=None)
                        for inst in self.instances]
            self.pin_note = "verdicts from oracle.eval_bruteforce on the cover game"
        else:
            expected, problem = pinned(self.workload, self.seed, self.texts)
            if problem:
                self.attempted += 1
                self.failures.append(problem)
            self.pin_note = ("verdicts pinned" if expected is not None
                             else f"no pinned verdicts for seed {self.seed}: checked for consistency only")
        self.expected = expected if expected is not None else [None] * len(self.texts)
        for i in range(WARMUP):
            self.record(f"warm-up {i}", self.solve_once(i)[2], self.expected[i])

    def solve_once(self, j: int, tracer=None):
        """(wall seconds, CPU seconds, Outcome) of one solve of pool
        instance j; with a tracer, the solve is traced and its root span
        recorded."""
        if self.cli:
            spans_out = OUT / "child-spans.json" if tracer is not None else None
            t0, t1, cpu, out = run_cli(self.paths[j], spans_out)
            if tracer is not None:
                idx = len(tracer.spans)
                tracer.spans.append(("cli.process", -1, t0, t1, None))
                if out.error is None:
                    with open(spans_out, encoding="utf-8") as fh:
                        tracing.adopt(tracer.spans, json.load(fh), idx)
                self.roots.append((idx, None if out.error else out.verdict()))
            return t1 - t0, cpu, out
        if tracer is None:
            c0 = process_time()
            t0 = perf_counter()
            out = solve_in_process(self.texts[j])
            return perf_counter() - t0, process_time() - c0, out
        idx = len(tracer.spans)
        tracer.install()
        try:
            c0 = process_time()
            t0 = perf_counter()
            out = tracer.root("bench.solve", solve_in_process, self.texts[j])
            t1 = perf_counter()
            cpu = process_time() - c0
        finally:
            tracer.remove()
        self.roots.append((idx, None if out.error else out.verdict()))
        return t1 - t0, cpu, out

    def timed(self):
        """Round-robin over the pool until the time is up and every
        instance has been solved once, with calibration jobs before the
        first solve and after each one. A traced run solves each instance
        twice in a row, untraced and then traced, so that the machine's
        drift cancels out of trace.overhead."""
        self.tracer = tracing.Tracer() if self.traced else None
        # The pool and everything the gate made stay alive for the whole
        # run. Frozen, they are left out of every collection the solves
        # trigger; otherwise the collector's cost differs from seed to seed
        # (up to 15% of sign-wide's p50) with how the pool happens to fill
        # the heap, though the instances take the same time.
        gc.collect()
        gc.freeze()
        before = speed.calibrate_for(0)
        self.calibration.append(before)
        began = perf_counter()
        i = 0
        while i < len(self.texts) or perf_counter() - began < self.seconds:
            j = i % len(self.texts)
            dt, cpu, out = self.solve_once(j)
            after = speed.calibrate_for(cpu)
            self.calibration.append(after)
            self.samples.append((j, dt, out, speed.at_reference(cpu, before + after)))
            before = after
            if self.tracer is not None:
                dt, _, out = self.solve_once(j, self.tracer)
                self.traced_samples.append((j, dt, out))
            i += 1

    def verify_timed(self):
        """Check every timed verdict against the reference, or, where
        there is none, against the instance's first timed verdict."""
        expected = list(self.expected)
        for j, _, out, *_ in self.samples + self.traced_samples:
            if expected[j] is None and out.error is None:
                expected[j] = out.value
            self.record(f"instance {j}", out, expected[j])

    def instance_ms(self) -> list:
        """Per pool instance, the mean of its solve times at the reference
        speed, in ms. Every instance counts once, however often the loop
        reached it."""
        times = [[] for _ in self.texts]
        for j, _, _, ref in self.samples:
            times[j].append(ref)
        return [statistics.fmean(t) * 1e3 for t in times]

    def overhead(self) -> float:
        """Traced over untraced time of the same solves, minus 1."""
        plain = sum(s[1] for s in self.samples[:len(self.traced_samples)])
        return sum(dt for _, dt, _ in self.traced_samples) / plain - 1

    def family(self) -> dict:
        """Shares over the pool, from each instance's first timed solve."""
        first = [out for _, _, out, _ in self.samples[:len(self.texts)]]
        n = len(first)
        return {
            "true_share": sum(bool(w.value) for w in first) / n,
            "branching_share": sum(w.branch_nodes > 0 for w in first) / n,
            "algorithms": sorted({w.algorithm for w in first if w.algorithm}),
            "pool": n,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.gate()
    run.timed()
    run.verify_timed()
    who = resource.RUSAGE_CHILDREN if run.cli else resource.RUSAGE_SELF
    result = {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:50],
        "gate": run.pin_note,
        "family": run.family(),
        "times": [dt for _, dt, _, _ in run.samples],
        "instance_ms": run.instance_ms(),
        "calibration_ms": statistics.median(t for jobs in run.calibration for t in jobs) * 1e3,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
    }
    with open(OUT / "raw.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "untraced": [[j, dt, ref] for j, dt, _, ref in run.samples],
            "traced": [[j, dt] for j, dt, _ in run.traced_samples],
            "calibration": run.calibration,
        }) + "\n")
    if run.traced:
        spans = run.tracer.spans
        with open(OUT / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": ["name", "parent", "start", "end", "info"], "spans": spans}, fh,
                      separators=(",", ":"))
        metrics, layer_self, own = tracing.layer_metrics(spans, run.roots, run.overhead())
        seen = {name.split(".")[0] for name, _, _, _, _ in spans}
        result.update({
            "layers": metrics,
            "layer_self_s": layer_self,
            "function_self_s": own,
            "traced_solves": len(run.roots),
            "layers_not_seen": [layer for layer in tracing.LAYERS if layer not in seen],
        })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
