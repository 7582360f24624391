"""Command-line front end.

Subcommands: solve, detect, kernelize, classify, generate, transform,
bench. `solve` exits 10 when the formula is true and 20 when it is false
(the usual SAT solver convention); anything that goes wrong exits 1, bad
usage exits 2. Each warning is one `qbd: warning:` line on stderr. The
first stdout line of `solve` is always `s TRUE` or `s FALSE`.
`solve --algorithm` takes auto, brute or one of the engine names in
backdoor.SOLVABLE. `solve --class TAG` declares the class as a `c class TAG`
line does; `detect` and `transform` detect the cover for TAG.

Configuration wins in the order flags > environment > defaults. The
environment knob is QBD_BRUTE_CAP (variable budget for the brute-force
fallback, default backdoor.BRUTE_CAP, also read as oracle.BRUTE_CAP);
`solve` and `bench` read it through special.resolve_brute_cap. The same
cap bounds the truth table behind `solve --emit-strategy`.

Each module that serves one engine or one subcommand loads when it is
first used. `import qbd.cli` loads errors, formula, backdoor, qdimacs and
special. `solve` then loads solver2cnf for the 2-CNF engine (twocnf only
serves solver2cnf.step), affine for the aff engine, oracle for brute force
and for `--emit-strategy`, and nothing more for the sign engines.
`kernelize` loads affine; `classify`, `generate`, `transform` and `bench`
load algebra and reductions. Of the standard library, the import adds
argparse and json to what the interpreter starts with; no command loads
the dataclass module or `inspect` (the records are formula._Record classes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from .backdoor import CLASSES, SOLVABLE, BaseClass, detect_cc_backdoor
from .errors import CapError, ParamError, ParseError, PreconditionError, QbdError
from .formula import Matrix, QbfFormula, _Record
from .qdimacs import parse_qdimacs, parse_relations, write_qdimacs
from .special import dispatch, resolve_brute_cap

EXIT_TRUE = 10
EXIT_FALSE = 20

ALGORITHMS = ("auto", *SOLVABLE, "brute")


class BenchRecord(_Record):
    """One solver run on one instance, as persisted to the bench log."""

    _fields = ("instance", "seed", "algorithm", "value", "k", "n", "branch_nodes", "leaves", "wall_time")


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _emit(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_formula(path: str, class_tag=None) -> QbfFormula:
    formula = parse_qdimacs(_read(path))
    if class_tag is not None:
        formula = detect_cc_backdoor(formula, class_tag).formula
    return formula


def cmd_solve(args) -> int:
    formula = parse_qdimacs(_read(args.file))
    if args.klass is not None:  # declared as a `c class` line would; dispatch's one scan detects
        formula = QbfFormula(formula.prefix, formula.matrix, BaseClass.parse(args.klass))
    algorithm = None if args.algorithm == "auto" else args.algorithm
    brute_cap = resolve_brute_cap(args.brute_cap)
    started = time.perf_counter()
    verdict = dispatch(formula, algorithm=algorithm, brute_cap=brute_cap)
    elapsed = time.perf_counter() - started
    print(f"s {'TRUE' if verdict.value else 'FALSE'}")
    print(f"c algorithm {verdict.algorithm}")
    print(f"c n {len(formula.prefix)}")
    print(f"c k {verdict.stats.initial_k}")
    print(f"c branch-nodes {verdict.stats.branch_nodes}")
    print(f"c leaves {verdict.stats.leaves}")
    print(f"c max-depth {verdict.stats.max_depth}")
    print(f"c wall-time {elapsed:.6f}")
    if args.emit_strategy:
        from .oracle import extract_strategy

        try:
            tree = extract_strategy(formula, brute_cap)
            _emit(tree.to_text() + "\n", args.emit_strategy)
        except (CapError, OSError) as exc:
            print(f"qbd: strategy not written: {exc}", file=sys.stderr)
    return EXIT_TRUE if verdict.value else EXIT_FALSE


def cmd_detect(args) -> int:
    formula = parse_qdimacs(_read(args.file))
    klass = formula.base_class if args.klass is None else args.klass
    if klass is None:
        raise ParamError("the file declares no class; pass --class")
    bd = detect_cc_backdoor(formula, klass)
    names = " ".join(f"x{v}" for v in sorted(bd.variables))
    print(f"k={bd.k}:" + (f" {names}" if names else ""))
    return 0


def cmd_kernelize(args) -> int:
    from .affine import AffSystem, kernelize

    formula = _load_formula(args.file, "aff")
    try:
        kr = kernelize(AffSystem.from_formula(formula), formula.matrix.backdoor_variables())
    except PreconditionError:
        print("qbd: the parity part alone is false; there is no kernel", file=sys.stderr)
        return EXIT_FALSE
    reduced = QbfFormula(
        kr.reduced_prefix,
        Matrix(tuple(kr.reduced_system.rows), formula.matrix.backdoor),
        base_class=CLASSES["aff"],
    )
    _emit(write_qdimacs(reduced), args.out)
    return 0


def cmd_classify(args) -> int:
    from .algebra import classify

    verdict = classify(parse_relations(_read(args.file)))
    line = verdict.outcome
    if verdict.d is not None:
        line += f" d={verdict.d}"
    if verdict.because:
        line += f" because={verdict.because}"
    print(line)
    return 0


def cmd_generate(args) -> int:
    from .reductions import GenParams, gen_random, mis_to_horn, mis_to_ihsb_minus, parse_graph

    if args.kind == "random":
        params = GenParams(
            n=args.n,
            k=args.k,
            tag=args.tag,
            tractable_density=args.tractable_density,
            backdoor_density=args.backdoor_density,
            prefix_pattern=args.prefix,
        )
        formula = gen_random(params, args.seed)
    else:
        graph = parse_graph(_read(args.graph))
        build = mis_to_horn if args.kind == "mis-horn" else mis_to_ihsb_minus
        formula = build(graph)
    _emit(write_qdimacs(formula), args.out)
    return 0


def cmd_transform(args) -> int:
    from .reductions import dualize, horn_to_3horn

    formula = _load_formula(args.file, args.klass)
    out = horn_to_3horn(formula) if args.to_3horn else dualize(formula)
    _emit(write_qdimacs(out), args.out)
    return 0


def _parse_suite(arg: str):
    """Suite arguments read tag:count:n:k with an optional :seed0 (default 1)."""
    parts = arg.split(":")
    if len(parts) not in (4, 5):
        raise ParamError(f"suite argument {arg!r} is not tag:count:n:k[:seed0]")
    tag = parts[0]
    try:
        count, n, k = (int(t) for t in parts[1:4])
        seed0 = int(parts[4]) if len(parts) == 5 else 1
    except ValueError:
        raise ParamError(f"suite argument {arg!r} holds a non-integer field")
    if count < 1:
        raise ParamError("suite count must be positive")
    return tag, count, n, k, seed0


def _bench_one(iid: str, seed: int, formula: QbfFormula, brute_cap: int):
    """Records of auto dispatch and then of brute force, unless auto ran
    brute force or the formula has more variables than brute_cap."""
    records = []
    n = len(formula.prefix)
    for algorithm in (None, "brute"):
        started = time.perf_counter()
        verdict = dispatch(formula, algorithm=algorithm, brute_cap=brute_cap)
        elapsed = time.perf_counter() - started
        stats = verdict.stats
        records.append(BenchRecord(iid, seed, verdict.algorithm, verdict.value, stats.initial_k, n,
                                   stats.branch_nodes, stats.leaves, elapsed))
        if verdict.algorithm == "brute" or n > brute_cap:
            break
    return records


def cmd_bench(args) -> int:
    if args.verify:
        if args.suite or args.out:
            raise ParamError("--verify stands alone")
        return bench_verify(args.verify)
    if not args.suite or not args.out:
        raise ParamError("bench needs --suite and --out (or --verify)")
    from .reductions import GenParams, gen_random

    tag, count, n, k, seed0 = _parse_suite(args.suite)
    brute_cap = resolve_brute_cap(args.brute_cap)
    jobs = []
    for i in range(count):
        seed = seed0 + i
        formula = gen_random(GenParams(n=n, k=k, tag=tag), seed)
        jobs.append((f"{tag}-n{n}-k{k}-s{seed}", seed, formula))

    written = 0
    with open(args.out, "a", encoding="utf-8") as sink:
        for iid, seed, f in jobs:
            for record in _bench_one(iid, seed, f, brute_cap):
                sink.write(json.dumps({f: getattr(record, f) for f in record._fields}, sort_keys=True) + "\n")
                written += 1
    print(f"bench: {len(jobs)} instances, {written} records -> {args.out}")
    return 0


_BENCH_KEYS = ("instance", "algorithm", "value", "k", "leaves")


def _bench_record(raw: str, lineno: int) -> dict:
    """A bench log line, checked for what bench_verify reads."""
    try:
        rec = json.loads(raw)
    except ValueError:
        rec = None
    if not isinstance(rec, dict) or not all(key in rec for key in _BENCH_KEYS):
        raise ParseError("a bench record is a JSON object with " + ", ".join(_BENCH_KEYS), line=lineno)
    counts = all(type(rec[key]) is int and rec[key] >= 0 for key in ("k", "leaves"))
    if not (counts and isinstance(rec["instance"], str) and type(rec["value"]) is bool):
        raise ParseError("a bench record's instance is a string, its value a boolean and its k and "
                         "leaves nonnegative integers", line=lineno)
    return rec


def bench_verify(path: str) -> int:
    """Check a bench log for cross-algorithm agreement and leaf budgets; a
    malformed line is a ParseError."""
    by_instance = {}
    over_budget = 0
    records = 0
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        if not raw.strip():
            continue
        rec = _bench_record(raw, lineno)
        records += 1
        by_instance.setdefault(rec["instance"], []).append(rec)
        if rec["leaves"] > 1 << min(rec["k"], rec["leaves"].bit_length()):  # leaves > 2^k, for any k
            over_budget += 1
            print(f"over-budget: {rec['instance']} ({rec['algorithm']})")
    disagree = 0
    for iid, recs in by_instance.items():
        if len({r["value"] for r in recs}) > 1:
            disagree += 1
            print(f"disagree: {iid}")
    print(f"instances {len(by_instance)}  records {records}")
    print(f"agree {len(by_instance) - disagree}  disagree {disagree}")
    print(f"leaf-budget over {over_budget}")
    return 1 if disagree or over_budget else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qbd",
        description="Quantified CNF(+XOR) solving through clause-cover backdoors.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="decide a QDIMACS file (exit 10 true, 20 false)")
    s.add_argument("file")
    s.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    s.add_argument("--class", dest="klass", metavar="TAG",
                   help="declare the class, as a 'c class TAG' line does")
    s.add_argument("--emit-strategy", metavar="PATH",
                   help="write a winning strategy tree here")
    s.add_argument("--brute-cap", type=int, metavar="N",
                   help="variable budget for brute force, --emit-strategy included "
                        "(over QBD_BRUTE_CAP)")
    s.set_defaults(fn=cmd_solve)

    d = sub.add_parser("detect", help="print the cover for a class, k first")
    d.add_argument("file")
    d.add_argument("--class", dest="klass", metavar="TAG", help="detect for this class, not the declared one")
    d.set_defaults(fn=cmd_detect)

    kz = sub.add_parser("kernelize", help="reduce the parity part against its cover")
    kz.add_argument("file")
    kz.add_argument("--out", metavar="PATH")
    kz.set_defaults(fn=cmd_kernelize)

    c = sub.add_parser("classify", help="place a relation file on the hardness ladder")
    c.add_argument("file")
    c.set_defaults(fn=cmd_classify)

    g = sub.add_parser("generate", help="write benchmark instances")
    gsub = g.add_subparsers(dest="kind", required=True)
    gr = gsub.add_parser("random", help="seeded random covered instance")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--k", type=int, required=True)
    gr.add_argument("--tag", default="2cnf")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--tractable-density", type=float, default=1.5)
    gr.add_argument("--backdoor-density", type=float, default=1.0)
    gr.add_argument("--prefix", metavar="PATTERN", help="quantifier pattern, e.g. ea")
    gr.add_argument("--out", metavar="PATH")
    for kind, blurb in (("mis-horn", "Horn-covered instance from a partitioned graph"),
                        ("mis-ihsb", "negative-clause instance from a partitioned graph")):
        gm = gsub.add_parser(kind, help=blurb)
        gm.add_argument("--graph", required=True, metavar="PATH")
        gm.add_argument("--out", metavar="PATH")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("transform", help="rewrite an instance")
    t.add_argument("file")
    mode = t.add_mutually_exclusive_group(required=True)
    mode.add_argument("--to-3horn", dest="to_3horn", action="store_true",
                      help="split wide Horn clauses down to width 3")
    mode.add_argument("--dualize", action="store_true",
                      help="flip every literal and parity")
    t.add_argument("--class", dest="klass", metavar="TAG", help="detect the cover for this class first")
    t.add_argument("--out", metavar="PATH")
    t.set_defaults(fn=cmd_transform)

    b = sub.add_parser("bench", help="run seeded cross-checks, append JSONL records")
    b.add_argument("--suite", metavar="TAG:COUNT:N:K[:SEED0]")
    b.add_argument("--out", metavar="PATH")
    b.add_argument("--verify", metavar="PATH",
                   help="check an existing log instead of running")
    b.add_argument("--brute-cap", type=int, metavar="N")
    b.set_defaults(fn=cmd_bench)
    return p


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"qbd: warning: {message}", file=sys.stderr)


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            return args.fn(args)
        except (QbdError, OSError) as exc:
            print(f"qbd: {exc}", file=sys.stderr)
            return 1


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
