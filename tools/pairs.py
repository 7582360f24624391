"""Interleaved parent/change pairs of the benchmark, kept in a trajectory file.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] --seed N [N ...] --pairs 10 --label L

PARENT_DIR and CHANGE_DIR are two checkouts of qbd. Each pair runs
`bench/run.py --trace 0` once in each of them for every workload and seed
given, for the `run_seconds` that the BENCHMARK.json of this checkout
sets; pair 0 runs the parent first, and the order alternates from there.
For every end-to-end metric of that BENCHMARK.json it prints each side's
median and quartiles and the pairs the change won (a tie counts for
neither side), and writes the summaries and every run's metrics to
BENCH_<label>.json at the root of this checkout. It refuses to overwrite
such a file: a trajectory file is added, never edited. The file also
records the cold-start conditions of the runs: the Python version, the
value of PYTHONDONTWRITEBYTECODE, and whether each side's
src/qbd/__pycache__ existed before its first run and after its last. A
bytecode cache on one side alone fakes or hides a start-up gain, so a
difference between the sides is printed as a warning. Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a `bench/run.py` report."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    out = json.loads(lines[-1])
    if not isinstance(out, dict) or "metrics" not in out:
        raise ValueError(f"the last line is not a result: {lines[-1][:200]}")
    return out


def source_digest(checkout: Path) -> str:
    """sha256 over the names and contents of the checkout's src/qbd files,
    which names the program a side ran without naming where it sat."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src" / "qbd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def has_bytecode(checkout: Path) -> bool:
    """Whether the checkout holds a bytecode cache of the package, which
    lets a cold `qbd solve` skip compiling it."""
    return (checkout / "src" / "qbd" / "__pycache__").is_dir()


def cold_start(before: dict, after: dict) -> tuple:
    """The cold-start record of a set of runs, from each side's
    has_bytecode before its first run and after its last, and a warning
    line when the sides differ (else None)."""
    caches = {side: {"before": before[side], "after": after[side]} for side in SIDES}
    doc = {"python": sys.version, "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
           "pycache": caches}
    if caches["parent"] == caches["change"]:
        return doc, None
    seen = "; ".join(f"{side} before {c['before']}, after {c['after']}" for side, c in caches.items())
    return doc, (f"pairs: warning: src/qbd/__pycache__ differs between the sides ({seen}); "
                 "a bytecode cache on one side alone fakes or hides a start-up gain")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run, decoded; a run that exits nonzero or
    reports a wrong answer raises RuntimeError."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if p.returncode:
        raise RuntimeError(f"bench/run.py exited {p.returncode} in {checkout}: {p.stderr.strip()[-400:]}")
    out = parse_result(p.stdout)
    if not out.get("correct"):  # bench/run.py exits 0 on a wrong answer
        raise RuntimeError(f"{workload} seed {seed}: {out.get('failed')}/{out.get('attempted')} solves failed")
    return out


def _spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: list, spec: dict) -> dict:
    """Per end-to-end metric of `spec`: each side's median and quartiles
    over the pairs, and the pairs the change won. `pairs` holds one
    {"parent": result, "change": result} per pair, where a result is the
    last line of a `bench/run.py` report, decoded."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        won = sum(c < p if lower else c > p for p, c in zip(values["parent"], values["change"]))
        row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "won": won,
               "pairs": len(pairs)}
        for side in SIDES:
            row[side] = _spread(values[side])
        base = row["parent"]["median"]
        row["change_over_parent"] = row["change"]["median"] / base - 1 if base else None
        out[name] = row
    return out


def report(summary: dict) -> str:
    lines = []
    for name, r in summary.items():
        p, c = r["parent"], r["change"]
        delta = "" if r["change_over_parent"] is None else f" ({r['change_over_parent']:+.1%})"
        lines.append(f"{name} [{r['unit']}, {r['better']} is better]: parent {p['median']:.6g} "
                     f"[{p['q1']:.6g}, {p['q3']:.6g}] -> change {c['median']:.6g} "
                     f"[{c['q1']:.6g}, {c['q3']:.6g}]{delta}, change won {r['won']}/{r['pairs']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seed", type=int, required=True, nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    out_path = ROOT / f"BENCH_{args.label}.json"
    if out_path.exists():
        print(f"pairs: {out_path.name} exists; a trajectory file is never overwritten", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("pairs: --pairs must be at least 1", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sets = [{"workload": w, "seed": n, "runs": []} for w in args.workload for n in args.seed]
    before = {side: has_bytecode(checkouts[side]) for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for s in sets:
            pair = {"first": order[0]}
            for side in order:
                print(f"pairs: pair {i} {s['workload']} seed {s['seed']} {side}", file=sys.stderr, flush=True)
                try:
                    pair[side] = run_once(checkouts[side], s["workload"], s["seed"], seconds)
                except (RuntimeError, ValueError) as exc:
                    print(f"pairs: {side}: {exc}; nothing written", file=sys.stderr)
                    return 1
            s["runs"].append(pair)
    conditions, warning = cold_start(before, {side: has_bytecode(checkouts[side]) for side in SIDES})
    if warning:
        print(warning, file=sys.stderr)
    for s in sets:
        s["summary"] = summarise(s["runs"], spec)
        print(f"workload {s['workload']}  seed {s['seed']}  pairs {args.pairs}  run_seconds {seconds:g}")
        print(report(s["summary"]))
    doc = {
        "label": args.label,
        "run_seconds": seconds,
        "cold_start": conditions,
        "source_sha256": {side: source_digest(checkouts[side]) for side in SIDES},
        "sets": [{k: s[k] for k in ("workload", "seed", "summary", "runs")} for s in sets],
    }
    with open(out_path, "x", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
