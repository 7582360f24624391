"""Span tracing of the qbd layers, installed from outside the package.

`Tracer.install()` replaces each traced function at every binding its
callers use (a module attribute, a name another module imported, or the
engine table `special._ENGINES`) and `Tracer.remove()` puts the originals
back. Spans stay in memory as (name, parent, start, end, info) and
are written out once, when the run ends. Spans are tuples of atoms, which
the garbage collector stops tracking, so a long trace does not slow every
collection. A span's self time is its
duration minus the durations of its direct children.

Run as a script, this file is the traced stand-in for `qbd solve`:

    python3 bench/tracer.py SPANS_OUT solve FILE

It traces `qbd.cli.run` in the child process and writes the spans to
SPANS_OUT; the exit code is the one `qbd solve` gives.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "qdimacs", "backdoor", "special", "solver2cnf", "twocnf", "formula", "affine", "oracle")


def _len_text(args, out):
    return len(args[0].encode())


def _tau_and_atoms(args, out):
    return (len(args[1]), len(out.matrix.tractable) + len(out.matrix.backdoor))


def _kernel_rows(args, out):
    return (len(args[0].rows), len(out.reduced_system.rows))


def _table_bits(args, out):
    return 1 << len(args[0].prefix)


def _targets():
    """(span name, bindings, info function) for every traced function."""
    import qbd.affine as af
    import qbd.backdoor as bd
    import qbd.cli as cli
    import qbd.formula as fm
    import qbd.oracle as orc
    import qbd.qdimacs as qd
    import qbd.solver2cnf as s2
    import qbd.special as sp
    import qbd.twocnf as tc

    eng = sp._ENGINES
    return [
        ("cli.run", [(cli, "run")], None),
        ("qdimacs.parse_qdimacs", [(qd, "parse_qdimacs"), (cli, "parse_qdimacs")], _len_text),
        ("special.dispatch", [(sp, "dispatch"), (cli, "dispatch")], None),
        ("backdoor.detect_cc_backdoor",
         [(bd, "detect_cc_backdoor"), (sp, "detect_cc_backdoor"), (cli, "detect_cc_backdoor")], None),
        ("backdoor.verify_partition",
         [(bd, "verify_partition"), (s2, "verify_partition"), (sp, "verify_partition"),
          (af, "verify_partition")], None),
        ("solver2cnf.solve", [(s2, "solve"), (sp, "solve_2cnf"), (eng, "2cnf")], None),
        ("twocnf.look_ahead", [(tc, "look_ahead"), (s2, "look_ahead")], None),
        ("twocnf.eval_q2cnf", [(tc, "eval_q2cnf"), (s2, "eval_q2cnf")], None),
        ("twocnf.prop", [(tc, "prop")], None),
        ("formula.apply_assignment",
         [(fm, "apply_assignment"), (s2, "apply_assignment"), (sp, "apply_assignment")], _tau_and_atoms),
        ("special.solve_posneg", [(sp, "solve_posneg"), (eng, "posneg")], None),
        ("special.solve_dual_posneg", [(sp, "solve_dual_posneg"), (eng, "dual-posneg")], None),
        ("affine.solve_aff", [(af, "solve_aff"), (sp, "solve_aff"), (eng, "aff")], None),
        ("affine.from_formula", [(af.AffSystem, "from_formula")], None),
        ("affine.eval_qaff", [(af, "eval_qaff")], None),
        ("affine.elim", [(af, "elim")], None),
        ("affine.kernelize", [(af, "kernelize")], _kernel_rows),
        ("oracle.eval_bruteforce", [(orc, "eval_bruteforce"), (sp, "eval_bruteforce")], _table_bits),
    ]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, parent, t0, perf_counter(), None)
                stack.pop()
                raise
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (name, parent, t0, t1, None if info is None else info(args, out))
            return out

        return traced

    def install(self):
        for name, bindings, info in _targets():
            made = {}
            for owner, attr in bindings:
                orig = _get(owner, attr)
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__, info))
                else:
                    new = made.get(id(orig)) or self._wrap(name, orig, info)
                    made[id(orig)] = new
                self._saved.append((owner, attr, orig))
                _set(owner, attr, new)

    def remove(self):
        for owner, attr, orig in reversed(self._saved):
            _set(owner, attr, orig)
        self._saved.clear()

    def root(self, name, fn, *args):
        """Run fn(*args) as a root span; returns fn's result."""
        return self._wrap(name, fn, None)(*args)


def adopt(spans, child_spans, parent):
    """Append spans recorded by another process under span index `parent`
    (perf_counter reads the same monotonic clock in every process)."""
    base = len(spans)
    for name, par, t0, t1, info in child_spans:
        spans.append((name, parent if par < 0 else par + base, t0, t1, info))


def aggregate(spans):
    """Per span name: [calls, inclusive seconds, self seconds]."""
    child_time = [0.0] * len(spans)
    for name, par, t0, t1, _ in spans:
        if par >= 0:
            child_time[par] += t1 - t0
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, par, t0, t1, _) in enumerate(spans):
        s = stats[name]
        s[0] += 1
        s[1] += t1 - t0
        s[2] += t1 - t0 - child_time[i]
    return stats


def layer_metrics(spans, roots, overhead):
    """The per-layer metrics of one traced run, each per solved instance.

    `roots` holds (span index, verdict) for every traced solve; verdicts
    give the engine counters. Returns (metrics, layer self seconds,
    self seconds per span name).
    """
    stats = aggregate(spans)
    solves = max(len(roots), 1)

    def calls(n):
        return stats[n][0] if n in stats else 0

    def total(n):
        return stats[n][1] if n in stats else 0.0

    def own(n):
        return stats[n][2] if n in stats else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, (_, _, s) in stats.items():
        layer_self[name.split(".")[0]] += s

    sign = {"special.solve_posneg", "special.solve_dual_posneg"}
    parsed = units = brute = atoms = bits = rows_in = rows_out = 0
    nodes = calls("solver2cnf.solve")
    for name, par, _, _, info in spans:
        if info is None:  # no counter, or the call raised
            continue
        parent = spans[par][0] if par >= 0 else None
        if name == "qdimacs.parse_qdimacs":
            parsed += info
        elif name == "formula.apply_assignment":
            atoms += info[1]
            if parent in sign and info[0] == 1:
                units += 1
            if parent == "solver2cnf.solve":
                nodes += 1
        elif name == "oracle.eval_bruteforce":
            bits += info
            if parent == "special.dispatch":
                brute += 1
        elif name == "affine.kernelize":
            rows_in += info[0]
            rows_out += info[1]

    def engine(alg):
        vs = [v for _, v in roots if v is not None and v["algorithm"] == alg]
        leaves = sum(v["leaves"] for v in vs)
        branch = sum(v["branch_nodes"] for v in vs)
        budget = sum(v["leaves"] / (1 << v["k"]) for v in vs) / len(vs) if vs else 0.0
        return leaves, branch, budget

    leaves_2cnf, branch_2cnf, budget_2cnf = engine("2cnf")
    leaves_aff, _, _ = engine("aff")
    wall = sum(spans[i][3] - spans[i][2] for i, _ in roots)
    m = {
        "qdimacs.parse_s": total("qdimacs.parse_qdimacs") / solves,
        "qdimacs.parse_mib_per_s": parsed / (1 << 20) / total("qdimacs.parse_qdimacs")
        if total("qdimacs.parse_qdimacs") else 0.0,
        "backdoor.detect_s": total("backdoor.detect_cc_backdoor") / solves,
        "backdoor.detect_calls": calls("backdoor.detect_cc_backdoor") / solves,
        "backdoor.verify_partition_s": total("backdoor.verify_partition") / solves,
        "special.dispatch_self_s": own("special.dispatch") / solves,
        "special.brute_fallbacks": brute / solves,
        "special.sign_self_s": sum(own(n) for n in sign) / solves,
        "special.sign_units": units / solves,
        "solver2cnf.solve_self_s": own("solver2cnf.solve") / solves,
        "solver2cnf.nodes": nodes / solves,
        "solver2cnf.branch_nodes": branch_2cnf / solves,
        "solver2cnf.leaves": leaves_2cnf / solves,
        "solver2cnf.leaf_budget_used": budget_2cnf,
        "twocnf.prop_s": total("twocnf.prop") / solves,
        "twocnf.prop_calls": calls("twocnf.prop") / solves,
        "twocnf.prop_per_look_ahead": calls("twocnf.prop") / calls("twocnf.look_ahead")
        if calls("twocnf.look_ahead") else 0.0,
        "twocnf.look_ahead_self_s": own("twocnf.look_ahead") / solves,
        "twocnf.eval_q2cnf_s": own("twocnf.eval_q2cnf") / solves,
        "formula.apply_assignment_s": total("formula.apply_assignment") / solves,
        "formula.apply_assignment_calls": calls("formula.apply_assignment") / solves,
        "formula.atoms_rebuilt": atoms / solves,
        "affine.eval_qaff_s": total("affine.eval_qaff") / solves,
        "affine.elim_calls": calls("affine.elim") / solves,
        "affine.kernelize_s": total("affine.kernelize") / solves,
        "affine.kernel_rows_kept": rows_out / rows_in if rows_in else 0.0,
        "affine.walk_s": own("affine.solve_aff") / solves,
        "affine.leaves": leaves_aff / solves,
        "oracle.eval_bruteforce_s": total("oracle.eval_bruteforce") / solves,
        "oracle.eval_bruteforce_calls": calls("oracle.eval_bruteforce") / solves,
        "oracle.table_bits": bits / solves,
    }
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self[layer] / solves
    m["trace.wall_s"] = wall / solves
    m["trace.spans"] = len(spans) / solves
    m["trace.overhead"] = overhead
    own_by_name = {name: s for name, (_, _, s) in stats.items()}
    return m, layer_self, own_by_name


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    import qbd.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(cli_args)
    finally:
        tracer.remove()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
