"""Behaviour digests of qbd: one sha256 per section, to show that a change
keeps every output.

    python3 tools/digest.py SEED

It imports qbd from src/ and the benchmark's instance generator from
bench/gen.py of the checkout it sits in, and needs only the standard
library. Two checkouts that print the same lines for a seed give the same
results, and raise the same error types with the same messages, on every
input below. The sections:

  dispatch      auto dispatch (value, algorithm, SolveStats, warnings) on
                every pool instance of the four benchmark workloads
  rank_classes  rank_classes over the eight kinds and width-bounded tags
                and over the defaults, and per tag detect_cc_backdoor and
                verify_partition, on the pools and on random formulas
  affsystem     AffSystem rows and kernelize (reduced prefix, rows,
                forced), on the parity-kernel pool and on random systems
                with covers; AffSystem.from_formula on random matrices
  pivot_elim    pivot and elim rows on the random systems
  parse         parse_qdimacs (formula and warnings, or the error and its
                line) on every pool text and on copies with one line broken:
                a non-integer token, out-of-range variables, a stray 0, a
                missing terminator, a tautology, both of the last two, a
                variable quantified twice, a negative quantified variable
  layout        parse_qdimacs on every pool text rewritten in one of the
                layouts a reader meets: tabs, CRLF line ends, trailing
                blanks, blank lines, comment lines inside a run, no final
                newline, a lone 0 (an empty clause), and literals written
                as +3, 1_0 or in Arabic-Indic digits
  spelling      parse_qdimacs on every pool text with a few tokens or line
                ends changed: a leading zero (01, -01), -0 for a literal, two
                spaces between tokens, two spaces before the terminator,
                CRLF on some lines only, and \r\r\n line ends
  free          parse_qdimacs on every pool text with variables the prefix
                does not quantify: the header count raised by 1 to 3 (unused
                variables), 1 to 3 variables dropped from the quantifier
                lines (free ones, which the reader appends), or both
  prefix        Prefix (entries and positions, or the error) on random
                entry lists with bools, 0, negatives, duplicates, bad
                quantifiers, unhashable items and malformed entries, and
                its without and restrict on random variable sets
  engines       each public engine on random formulas and on their
                partitions into each solvable class, and dispatch on them in
                auto mode (under and over the brute-force cap), in each
                forced mode and in brute mode, with and without the declared
                class: the value, SolveStats and warnings, or the error
  apply         apply_assignment (formula and prefix positions, or the
                error) on random formulas and assignments, some with unknown
                variables or values other than 0 and 1: 2, -1, None, "1",
                1.0, True and an unhashable list
  game2cnf      solver2cnf.solve (value and SolveStats, or the error) on
                random 2-CNF games with 8 to 14 variables, at least three
                of them universal, with and without a covered part, and on
                deep chain shapes: a cycle through a universal and an
                existential quantified before it or after it, and a fan
                whose long chain ends in a clause that implies another
                universal, or in none
  values        the game value alone, which engine counters do not touch:
                on every pool instance as parsed and on every input of the
                engines section, from auto dispatch (under and over the
                brute-force cap), from each forced engine and brute mode,
                and from each public engine (on the engines inputs also on
                their partitions into each solvable class); a mode that
                refuses the formula gives its error
  classify      algebra.classify (verdict or error) on random languages of
                one to three relations of arity 1 to 3, most of them
                clauses with random signs, and on their dual languages,
                under algebra.POLY_CAP and a small one set in its place
  classes       BaseClass.parse (repr, tag, dual and membership of a fixed
                list of atoms, or the error) on random spellings: the eight
                kinds in mixed case with blanks around them, width prefixes
                (0, 1, 02, 3, an Arabic-Indic 3; 3 before 2cnf makes 32cnf),
                a trailing width or sign, unknown words and the empty string
  hardness      mis_to_horn, mis_to_ihsb_minus and mis_bruteforce on random
                partitioned graphs with string vertex names, some with no
                parts, an empty part or single-vertex parts; horn_to_3horn
                and dualize on random formulas and on random Horn ones with
                wide clauses (now and then one atom outside Horn);
                named_function on the eight fixed tags, t2 to t6, t1, t02
                and unknown words; eval_bruteforce, extract_strategy and
                verify_strategy on random formulas under variable caps and
                oracle.LEAF_CAP values that pass and that fail

Each line reads `section sha256 items`. Random inputs are drawn from a
random.Random seeded with the section name and SEED.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (bench/gen.py, standard library only)
from qbd import algebra, oracle  # noqa: E402
from qbd.affine import AffSystem, elim, kernelize, pivot, solve_aff  # noqa: E402
from qbd.algebra import Relation, classify, dual_relation, named_function  # noqa: E402
from qbd.backdoor import SOLVABLE, BaseClass, detect_cc_backdoor, rank_classes, verify_partition  # noqa: E402
from qbd.formula import EXISTS, FORALL, AffineEquation, Matrix, Prefix, QbfFormula, apply_assignment  # noqa: E402
from qbd.oracle import BRUTE_CAP, eval_bruteforce, extract_strategy, verify_strategy  # noqa: E402
from qbd.qdimacs import parse_qdimacs  # noqa: E402
from qbd.reductions import (  # noqa: E402
    PartitionedGraph, dualize, horn_to_3horn, mis_bruteforce, mis_to_horn, mis_to_ihsb_minus)
from qbd.solver2cnf import solve as solve_2cnf  # noqa: E402
from qbd.special import dispatch, solve_dual_posneg, solve_posneg  # noqa: E402

RANDOM_DRAWS = 10_000
TAGS = ("2cnf", "horn", "dualhorn", "aff", "ihsb-", "ihsb+", "posneg", "dual-posneg",
        "2horn", "3horn", "4dualhorn", "2ihsb-", "3ihsb-", "4ihsb+", "5ihsb+")


def atom(a):
    if isinstance(a, AffineEquation):
        return ("x", tuple(sorted(a.vars)), a.rhs)
    if isinstance(a, frozenset):
        return tuple(sorted(a))
    return repr(a)


def atoms(seq):
    return tuple(atom(a) for a in seq)


def formula(f):
    tag = None if f.base_class is None else f.base_class.tag
    return (f.prefix.entries, atoms(f.matrix.tractable), atoms(f.matrix.backdoor), tag)


def backdoor(bd):
    return (bd.base_class.tag, bd.k, tuple(sorted(bd.variables)), formula(bd.formula))


def system_rows(s):
    return atoms(s.rows)


def kernel(kr):
    forced = tuple((v, atom(eq)) for v, eq in kr.forced)
    return (kr.reduced_prefix.entries, atoms(kr.reduced_system.rows), forced)


def outcome(fn, *args, show=repr):
    """show(fn(*args)) with the warnings it raised, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = show(fn(*args))
        except Exception as exc:  # the digest records every error, by type and message
            out = f"{type(exc).__name__}: {exc}"
            if hasattr(exc, "line"):  # and the line a ParseError names
                out = (out, exc.line)
    return (out, tuple(str(w.message) for w in caught))


def capped(module, name, cap, fn, *args, show=repr):
    """outcome(fn, *args) with the module constant `name` set to `cap` for
    the call."""
    saved = getattr(module, name)
    setattr(module, name, cap)
    try:
        return outcome(fn, *args, show=show)
    finally:
        setattr(module, name, saved)


class Section:
    def __init__(self, name):
        self.name = name
        self.hash = hashlib.sha256()
        self.items = 0

    def add(self, item):
        self.hash.update(repr(item).encode())
        self.hash.update(b"\n")
        self.items += 1

    def line(self):
        return f"{self.name} {self.hash.hexdigest()} {self.items}"


def pools(seed):
    """(family, index, parsed formula) over the four benchmark pools."""
    for family, count in gen.POOL.items():
        for i in range(count):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                yield family, i, parse_qdimacs(gen.instance(family, seed, i).text)


def random_prefix(rng, n):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Prefix(tuple((v, rng.choice((EXISTS, FORALL))) for v in order))


def random_clause(rng, n):
    vs = rng.sample(range(1, n + 1), rng.randint(0, min(5, n)))
    return frozenset(v if rng.random() < 0.5 else -v for v in vs)


def random_equation(rng, n):
    """Mostly one to four variables; some trivial and contradictory rows."""
    r = rng.random()
    if r < 0.08 or n == 0:
        return AffineEquation(frozenset(), int(r < 0.04))
    vs = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
    return AffineEquation(frozenset(vs), rng.randint(0, 1))


def random_formula(rng):
    """n <= 7 variables, clauses of width 0 to 5, equations, a covered part
    that may hold an equation, now and then an unquantified variable, and
    an optional declared class."""
    n = rng.randint(0, 7)
    m = n + (rng.random() < 0.1)  # matrix variables may exceed the prefix
    tractable = [random_equation(rng, m) if rng.random() < 0.3 else random_clause(rng, m)
                 for _ in range(rng.randint(0, 8))]
    covered = [random_clause(rng, m) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.05:
        covered.append(random_equation(rng, m))
    declared = rng.choice((None,) + TAGS)
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tractable), tuple(covered)),
                      None if declared is None else BaseClass.parse(declared))


def random_rows(rng, n):
    """Up to eight rows with repeats (the same object or an equal copy),
    trivial and contradictory rows, unquantified variables and, rarely, a
    clause or another non-equation."""
    rows = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if rows and r < 0.2:
            old = rng.choice(rows)
            rows.append(old if r < 0.1 or not isinstance(old, AffineEquation)
                        else AffineEquation(frozenset(old.vars), old.rhs))
        elif r < 0.22:
            rows.append(random_clause(rng, n))
        elif r < 0.23:
            rows.append(n)
        else:
            rows.append(random_equation(rng, n + (rng.random() < 0.05)))
    return rows


def dispatch_section(seed, texts):
    sec = Section("dispatch")
    for family, i, f in texts:
        sec.add((family, i, outcome(lambda: dispatch(f, brute_cap=BRUTE_CAP),
                                    show=lambda v: (v.value, v.algorithm, repr(v.stats)))))
    return sec


def rank_one(sec, f):
    sec.add(outcome(rank_classes, f, TAGS, show=lambda r: tuple(map(backdoor, r))))
    sec.add(outcome(rank_classes, f, show=lambda r: tuple(map(backdoor, r))))
    for tag in TAGS:
        sec.add((tag, outcome(detect_cc_backdoor, f, tag, show=backdoor),
                 outcome(verify_partition, f, tag, show=sorted)))


def rank_section(seed, texts):
    sec = Section("rank_classes")
    for _, _, f in texts:
        rank_one(sec, f)
    rng = random.Random(f"rank_classes:{seed}")
    for _ in range(RANDOM_DRAWS):
        rank_one(sec, random_formula(rng))
    return sec


def systems(seed):
    """Yield (rng, prefix, rows, the system or the error its construction
    raised, a cover) RANDOM_DRAWS times; callers draw more from rng."""
    rng = random.Random(f"affsystem:{seed}")
    for _ in range(RANDOM_DRAWS):
        n = rng.randint(0, 8)
        prefix = random_prefix(rng, n)
        rows = random_rows(rng, n)
        cover = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        if rng.random() < 0.03:
            cover.add(n + 1)
        try:
            s = AffSystem(prefix, tuple(rows))
        except Exception as exc:  # recorded by type and message
            s = exc
        yield rng, prefix, rows, s, cover


def affsystem_section(seed, texts):
    sec = Section("affsystem")
    for family, i, f in texts:
        if family != "parity-kernel":
            continue
        g = detect_cc_backdoor(f, "aff").formula
        sec.add((i, outcome(AffSystem.from_formula, g, show=system_rows),
                 outcome(lambda: kernelize(AffSystem.from_formula(g), g.matrix.backdoor_variables()),
                         show=kernel)))
    for rng, prefix, rows, s, cover in systems(seed):
        if isinstance(s, Exception):
            sec.add(f"{type(s).__name__}: {s}")
        else:
            sec.add((atoms(s.rows), outcome(kernelize, s, sorted(cover), show=kernel)))
        lifted = [r for r in rows if isinstance(r, AffineEquation)]
        lifted += [random_clause(rng, len(prefix))
                   for _ in range(rng.randint(0, 3))]  # wide ones cannot be lifted
        f = QbfFormula(prefix, Matrix(tuple(lifted), ()))
        sec.add(outcome(AffSystem.from_formula, f, show=system_rows))
    return sec


def pivot_elim_section(seed):
    sec = Section("pivot_elim")
    for rng, prefix, _, s, _ in systems(seed):
        if isinstance(s, Exception) or not s.rows:
            continue
        for _ in range(3):
            i = rng.randint(-1, len(s.rows)) if rng.random() < 0.1 else rng.randrange(len(s.rows))
            row = s.rows[i] if 0 <= i < len(s.rows) else s.rows[0]
            r = rng.random()
            if row.vars and r < 0.5:
                x = prefix.innermost_of(row.vars)
            elif row.vars and r < 0.9:
                x = rng.choice(sorted(row.vars))
            else:
                x = rng.randint(1, len(prefix) + 1)
            sec.add((i, x, outcome(pivot, s, x, i, show=system_rows),
                     outcome(elim, s, x, i, show=system_rows)))
    return sec


MUTATIONS = ("non-integer", "out-of-range", "stray-0", "no-terminator", "tautology",
             "range-and-tautology", "twice", "negative")
NOT_INTS = ("y", "1.5", "--2", "0x1", "+3", "1_0", "\u0663")


def mutate(rng, text, kind):
    """`text` with one prefix or matrix line broken the way `kind` says."""
    lines = text.splitlines()
    nvars = int(next(line for line in lines if line.startswith("p ")).split()[2])
    heads = [line.split()[0] for line in lines]
    quant = [i for i, h in enumerate(heads) if h in (EXISTS, FORALL)]
    body = [i for i, h in enumerate(heads) if h not in ("c", "p", EXISTS, FORALL)]
    clauses = [i for i in body if heads[i] != "x"] or body
    if kind in ("twice", "negative"):
        i = rng.choice(quant)
    elif kind in ("tautology", "range-and-tautology"):
        i = rng.choice(clauses)
    else:
        i = rng.choice(quant + body)
    toks = lines[i].split()
    first = int(heads[i] in ("x", EXISTS, FORALL))  # the head stays
    lits = toks[first:-1]
    j = rng.randrange(len(lits) + 1)
    if kind == "non-integer":
        toks[rng.randrange(first, len(toks))] = rng.choice(NOT_INTS)
    elif kind == "out-of-range":  # one or two, so that the first is not always the largest
        for _ in range(rng.randint(1, 2)):
            lits.insert(rng.randrange(len(lits) + 1), str(rng.choice((1, -1)) * (nvars + rng.randint(1, 3))))
    elif kind == "stray-0":
        lits.insert(j, "0")
    elif kind == "no-terminator":
        toks.pop()
    elif kind in ("tautology", "range-and-tautology"):
        lits.insert(j, str(-int(rng.choice(lits))))
        if kind == "range-and-tautology":
            lits.insert(rng.randrange(len(lits) + 1), str(nvars + 1))
    elif kind == "twice":
        earlier = [v for q in quant if q <= i for v in lines[q].split()[1:-1]]
        lits.insert(j, rng.choice(earlier))
    else:  # negative
        k = rng.randrange(len(lits))
        lits[k] = f"-{lits[k]}"
    if kind not in ("non-integer", "no-terminator"):
        toks = toks[:first] + lits + toks[-1:]
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def parse_section(seed):
    sec = Section("parse")
    rng = random.Random(f"parse:{seed}")
    for family, count in gen.POOL.items():
        for i in range(count):
            text = gen.instance(family, seed, i).text
            sec.add((family, i, outcome(parse_qdimacs, text, show=formula)))
            for kind in MUTATIONS:
                sec.add((kind, outcome(parse_qdimacs, mutate(rng, text, kind), show=formula)))
    return sec


LAYOUTS = ("tabs", "crlf", "trailing-blanks", "blank-lines", "comments", "no-final-newline",
           "empty-clause", "plus", "underscore", "arabic-indic")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def relayout(rng, text, kind):
    """`text` with its layout changed the way `kind` says, at a few random
    lines; every kind but empty-clause keeps the formula the text states."""
    lines = text.splitlines()
    some = rng.sample(range(len(lines)), min(len(lines), rng.randint(1, 6)))
    if kind == "no-final-newline":
        return text.rstrip("\n")
    if kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if kind in ("blank-lines", "comments", "empty-clause"):
        extra = {"blank-lines": rng.choice(("", " ", "\t")), "comments": "c note 1 0",
                 "empty-clause": "0"}[kind]
        body = [i for i, line in enumerate(lines) if not line.startswith(("c", "p"))]
        for i in sorted(rng.sample(body, min(len(body), rng.randint(1, 3))), reverse=True):
            lines.insert(i, extra)
        return "\n".join(lines) + "\n"
    for i in some:
        toks = lines[i].split()
        if kind == "tabs":
            lines[i] = "".join(t + rng.choice((" ", "\t", " \t")) for t in toks).rstrip(" \t")
        elif kind == "trailing-blanks":
            lines[i] += rng.choice((" ", "  ", "\t"))
        elif toks[0] not in ("c", "p"):  # a literal or a variable, spelled another way
            j = rng.randrange(toks[0] in ("e", "a", "x"), len(toks))
            tok = toks[j]
            if kind == "plus" and not tok.startswith("-"):
                tok = "+" + tok
            elif kind == "underscore" and len(tok.lstrip("-")) > 1:
                tok = tok[:-1] + "_" + tok[-1]
            elif kind == "arabic-indic":
                tok = tok.translate(ARABIC_INDIC)
            toks[j] = tok
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def layout_section(seed):
    sec = Section("layout")
    rng = random.Random(f"layout:{seed}")
    for family, count in gen.POOL.items():
        for i in range(count):
            text = gen.instance(family, seed, i).text
            for kind in LAYOUTS:
                sec.add((family, i, kind, outcome(parse_qdimacs, relayout(rng, text, kind), show=formula)))
    return sec


SPELLINGS = ("leading-zero", "minus-zero", "double-space", "space-before-terminator", "crlf-some",
             "cr-cr-lf")


def respell(rng, text, kind):
    """`text` with a few tokens or line ends changed the way `kind` says,
    at random prefix and matrix lines; some changes keep the formula the
    text states (01, CRLF), others break a line (-0 before the end)."""
    lines = text.splitlines()
    some = rng.sample(range(len(lines)), min(len(lines), rng.randint(1, 6)))
    if kind in ("crlf-some", "cr-cr-lf"):
        ends = ["\n"] * len(lines)
        for i in some:
            ends[i] = "\r\n" if kind == "crlf-some" else "\r\r\n"
        return "".join(map(str.__add__, lines, ends))
    for i in some:
        toks = lines[i].split()
        if toks[0] in ("c", "p"):
            continue
        first = int(toks[0] in ("e", "a", "x"))  # the head stays
        if kind == "leading-zero":
            j = rng.randrange(first, len(toks))
            toks[j] = "-0" + toks[j][1:] if toks[j].startswith("-") else "0" + toks[j]
        elif kind == "minus-zero":
            toks[rng.randrange(first, len(toks))] = "-0"
        elif kind == "double-space":
            j = rng.randrange(1, len(toks)) if len(toks) > 1 else 0
            toks[j:j] = [""]  # joins to two spaces, or a leading one
        else:  # space-before-terminator
            toks[-1:-1] = [""]
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def spelling_section(seed):
    sec = Section("spelling")
    rng = random.Random(f"spelling:{seed}")
    for family, count in gen.POOL.items():
        for i in range(count):
            text = gen.instance(family, seed, i).text
            for kind in SPELLINGS:
                sec.add((family, i, kind, outcome(parse_qdimacs, respell(rng, text, kind), show=formula)))
    return sec


FREE_KINDS = ("unused", "dropped", "both")


def unquantify(rng, text, kind):
    """`text` with its header count raised by 1 to 3 (unused), with 1 to 3
    variables dropped from its quantifier lines (dropped), or both."""
    lines = text.splitlines()
    if kind in ("unused", "both"):
        i = next(i for i, line in enumerate(lines) if line.startswith("p "))
        _, _, nvars, nclauses = lines[i].split()
        lines[i] = f"p cnf {int(nvars) + rng.randint(1, 3)} {nclauses}"
    if kind in ("dropped", "both"):
        quantified = [(i, v) for i, line in enumerate(lines) if line[:2] in ("e ", "a ")
                      for v in line.split()[1:-1]]
        for i, v in rng.sample(quantified, min(len(quantified), rng.randint(1, 3))):
            toks = lines[i].split()
            toks.remove(v)
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def free_section(seed):
    sec = Section("free")
    rng = random.Random(f"free:{seed}")
    for family, count in gen.POOL.items():
        for i in range(count):
            text = gen.instance(family, seed, i).text
            for kind in FREE_KINDS:
                sec.add((family, i, kind, outcome(parse_qdimacs, unquantify(rng, text, kind), show=formula)))
    return sec


class Small(int):
    """An int subclass, which Prefix takes as a variable."""


def random_entry(rng, seen, n, rate):
    """One prefix entry: a repeat, a bad variable, a bad quantifier or a
    malformed entry, each with probability `rate`; else a fresh variable."""
    v = rng.randint(1, n) if seen and rng.random() < rate else len(seen) + 1
    q = rng.choice((EXISTS, FORALL))
    r = rng.random()
    if r < rate:
        v = rng.choice((True, False, 0, -v, Small(v), float(v), str(v), None, [v]))
    elif r < 2 * rate:
        q = rng.choice(("x", "E", "", None, 1, [q], "ea"))
    elif r < 3 * rate:
        return rng.choice(((v,), (v, q, 0), [v, q], f"{q}{v}"[:2], v))
    seen.append(v)
    return (v, q)


def prefix_section(seed):
    sec = Section("prefix")
    rng = random.Random(f"prefix:{seed}")
    for _ in range(RANDOM_DRAWS):
        n = rng.choice((0, 1, 2, 5, 12, 40, 400))
        rate = rng.choice((0.0, 0.005, 0.02))
        seen = []
        entries = tuple(random_entry(rng, seen, n, rate) for _ in range(n))
        sec.add(outcome(Prefix, entries, show=lambda p: (p.entries, p._pos)))
        some = rng.sample(range(n + 2), rng.randint(0, n + 2))
        for cut in ("without", "restrict"):  # on the prefix built, if one was
            sec.add(outcome(lambda: getattr(Prefix(entries), cut)(some), show=lambda p: (p.entries, p._pos)))
    return sec


# the public engines, in the order of SOLVABLE
PUBLIC = dict(zip(SOLVABLE, (solve_2cnf, solve_aff, solve_posneg, solve_dual_posneg)))


def verdict(v):
    return (v.value, v.algorithm, repr(v.stats))


def solved(result):
    value, stats = result
    return (value, repr(stats))


def engines_section(seed):
    sec = Section("engines")
    rng = random.Random(f"engines:{seed}")
    for _ in range(RANDOM_DRAWS):
        f = random_formula(rng)
        bare = QbfFormula(f.prefix, f.matrix)
        for kind, engine in PUBLIC.items():
            sec.add((kind, outcome(engine, f, show=solved)))
        for bd in rank_classes(bare, SOLVABLE):
            sec.add((bd.base_class.tag, outcome(PUBLIC[bd.base_class.kind], bd.formula, show=solved)))
        for cap in (0, BRUTE_CAP):  # over the cap the covered engine runs anyway
            sec.add((cap, outcome(dispatch, f, None, cap, show=verdict)))
        for g in (f, bare):
            for algorithm in SOLVABLE + ("brute",):
                sec.add((algorithm, outcome(dispatch, g, algorithm, BRUTE_CAP, show=verdict)))
    return sec


ODD_VALUES = (2, -1, None, "1", 1.0, True, [1])


def random_tau(rng, prefix):
    """Values of 0 or 1 for some prefix variables and, now and then, at a
    random place, an unknown variable or a value from ODD_VALUES."""
    n = len(prefix)
    items = [(v, rng.randint(0, 1)) for v in rng.sample(prefix.variables(), rng.randint(0, n))]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        if not items or rng.random() < 0.4:
            entry = (rng.choice((n + 1, n + 2, 0, -1)), rng.randint(0, 1))
        else:
            entry = (rng.choice(items)[0], rng.choice(ODD_VALUES))
        items.insert(rng.randrange(len(items) + 1), entry)
    return dict(items)


def apply_section(seed):
    sec = Section("apply")
    rng = random.Random(f"apply:{seed}")
    for _ in range(RANDOM_DRAWS):
        f = random_formula(rng)
        tau = random_tau(rng, f.prefix)
        sec.add(outcome(apply_assignment, f, tau, show=lambda g: (formula(g), g.prefix._pos)))
    return sec


def random_game(rng, covered):
    """A width-2 game: 8 to 14 variables, 3 to n/2 of them universal,
    clauses of width 0 (rarely) to 2 and, if `covered`, one to four
    covered clauses of width 1 to 4."""
    n = rng.randint(8, 14)
    order = rng.sample(range(1, n + 1), n)
    univ = set(rng.sample(order, rng.randint(3, n // 2)))
    prefix = Prefix(tuple((v, FORALL if v in univ else EXISTS) for v in order))

    def lits(w):
        return frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), w))

    tractable = [lits(rng.choice((1, 2, 2, 2))) for _ in range(rng.randint(0, n))]
    if rng.random() < 0.02:
        tractable.append(frozenset())
    back = [lits(rng.randint(1, 4)) for _ in range(rng.randint(1, 4) if covered else 0)]
    return QbfFormula(prefix, Matrix(tuple(tractable), tuple(back)))


def chain(vs):
    """The clauses of the implications vs[0] -> vs[1] -> ... -> vs[-1]."""
    return [frozenset((-a, b)) for a, b in zip(vs, vs[1:])]


def deep_games(n):
    """(name, formula) for the deep shapes over n variables, universals 1
    and 2 (cycle: 2 alone). The cycle runs 1 -> 3 -> ... -> n -> 2 -> 1; the
    fan is 1 -> 3 ... 1 -> 12, then the chain 12 -> ... -> n, ending in
    n -> 2 or not."""
    inner = tuple((v, EXISTS) for v in range(3, n + 1))
    cycle = Matrix(tuple(chain([1] + list(range(3, n + 1)) + [2, 1])), ())
    fan = [frozenset((-1, v)) for v in range(3, 13)] + chain(list(range(12, n + 1)))
    fan_prefix = Prefix(((1, FORALL),) + inner + ((2, FORALL),))
    yield "cycle-outer", QbfFormula(Prefix(((1, EXISTS), (2, FORALL)) + inner), cycle)
    yield "cycle-inner", QbfFormula(Prefix(((2, FORALL), (1, EXISTS)) + inner), cycle)
    yield "fan", QbfFormula(fan_prefix, Matrix(tuple(fan + chain([n, 2])), ()))
    yield "fan-open", QbfFormula(fan_prefix, Matrix(tuple(fan), ()))


def game2cnf_section(seed):
    sec = Section("game2cnf")
    rng = random.Random(f"game2cnf:{seed}")
    for _ in range(RANDOM_DRAWS):
        for covered in (False, True):
            sec.add(outcome(solve_2cnf, random_game(rng, covered), show=solved))
    for n in (20, 500):
        for name, f in deep_games(n):
            sec.add((name, n, outcome(solve_2cnf, f, show=solved)))
    return sec


def value(result):
    return result[0] if isinstance(result, tuple) else result.value


def values_section(seed, texts):
    sec = Section("values")
    rng = random.Random(f"engines:{seed}")  # the draws of the engines section
    inputs = [(family, i, f, ()) for family, i, f in texts]
    for i in range(RANDOM_DRAWS):
        f = random_formula(rng)
        bare = QbfFormula(f.prefix, f.matrix)
        inputs.append(("engines", i, f, (bare,) + tuple(bd.formula for bd in rank_classes(bare, SOLVABLE))))
    for family, i, f, more in inputs:
        for cap in (0, BRUTE_CAP):
            sec.add((family, i, cap, outcome(dispatch, f, None, cap, show=value)))
        for g in (f,) + more[:1]:
            for algorithm in SOLVABLE + ("brute",):
                sec.add((algorithm, outcome(dispatch, g, algorithm, BRUTE_CAP, show=value)))
        for g in (f,) + more[1:]:
            for kind, engine in PUBLIC.items():
                sec.add((kind, outcome(engine, g, show=value)))
    return sec


def random_relation(rng):
    """A clause of width 1 to 3 with random signs (every tuple but the one
    it forbids), or now and then any set of tuples of arity 1 to 3."""
    arity = rng.randint(1, 3)
    rows = list(itertools.product((0, 1), repeat=arity))
    if rng.random() < 0.8:
        rows.remove(tuple(rng.randint(0, 1) for _ in range(arity)))
    else:
        rows = rng.sample(rows, rng.randint(0, len(rows)))
    return Relation(f"r{arity}", arity, frozenset(rows))


def classify_section(seed):
    sec = Section("classify")
    rng = random.Random(f"classify:{seed}")
    for _ in range(RANDOM_DRAWS // 5):
        language = [random_relation(rng) for _ in range(rng.randint(1, 3))]
        cap = rng.choice((algebra.POLY_CAP, algebra.POLY_CAP, 64))
        for rels in (language, [dual_relation(r) for r in language]):
            sec.add(capped(algebra, "POLY_CAP", cap, classify, rels))
    return sec


# one atom of every shape the membership rule tells apart, up to width 5
CLASS_ATOMS = (frozenset(), frozenset({1}), frozenset({-1}), frozenset({1, 2}), frozenset({1, -2}),
               frozenset({-1, -2}), frozenset({1, 2, 3}), frozenset({1, -2, -3}), frozenset({-1, 2, 3}),
               frozenset({-1, -2, -3}), frozenset({1, -2, -3, -4}), frozenset({-1, -2, -3, -4}),
               frozenset({1, 2, 3, 4, 5}), frozenset({-1, 2, 3, 4, 5}), AffineEquation(frozenset({1, 2}), 1))


def random_spelling(rng):
    """A class tag as a reader might write it, or a word that is none."""
    if rng.random() < 0.1:
        return rng.choice(("", " ", "cnf", "maj", "horn-", "x2cnf", "ihsb", "dual", "posneg+", "2 cnf"))
    kind = rng.choice(TAGS[:8])
    word = "".join(c.upper() if rng.random() < 0.5 else c for c in kind)
    if rng.random() < 0.4:
        word = rng.choice(("0", "1", "2", "02", "3", "4", "12", "007", "\u0663")) + word
    if rng.random() < 0.05:
        word += rng.choice(("3", "-", "+", "x"))
    return rng.choice(("", " ", "\t", "  ")) + word + rng.choice(("", " ", "\n", " \t"))


def class_section(seed):
    sec = Section("classes")
    rng = random.Random(f"classes:{seed}")
    for _ in range(RANDOM_DRAWS):
        spelling = random_spelling(rng)
        sec.add((spelling, outcome(BaseClass.parse, spelling, show=lambda b: (
            repr(b), b.tag, repr(b.dual()), tuple(b.contains(a) for a in CLASS_ATOMS)))))
    return sec


def random_graph(rng):
    """Up to four parts of string-named vertices and random edges; now and
    then no parts, an empty part, or single-vertex parts only."""
    r = rng.random()
    k = 0 if r < 0.05 else rng.randint(1, 4)
    sizes = [rng.randint(0 if rng.random() < 0.1 else 1, 1 if r > 0.85 else 3) for _ in range(k)]
    names = iter(f"v{j}" for j in rng.sample(range(100), sum(sizes)))
    parts = tuple(tuple(next(names) for _ in range(size)) for size in sizes)
    density = rng.random() * 0.6
    edges = {frozenset(e) for e in itertools.combinations([v for part in parts for v in part], 2)
             if rng.random() < density}
    return PartitionedGraph(parts, frozenset(edges))


def random_horn(rng):
    """Up to nine variables, Horn clauses of width 0 to 7 (at most one
    positive literal), now and then one clause or equation that may fall
    outside Horn, a covered part, and an optional declared class."""
    n = rng.randint(0, 9)

    def horn_clause():
        vs = rng.sample(range(1, n + 1), rng.randint(0, min(7, n)))
        lits = [-v for v in vs]
        if lits and rng.random() < 0.6:
            lits[0] = vs[0]
        return frozenset(lits)

    tractable = [horn_clause() for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.15:
        odd = random_clause(rng, n) if rng.random() < 0.7 else random_equation(rng, n)
        tractable.insert(rng.randint(0, len(tractable)), odd)
    covered = [random_clause(rng, n) for _ in range(rng.randint(0, 2))]
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tractable), tuple(covered)),
                      rng.choice((None, BaseClass.parse("horn"))))


FUNCTION_TAGS = ("maj", "mnrty", "min", "max", "and-or", "or-and", "and-ornot", "or-andnot",
                 "t2", "t3", "t4", "t5", "t6", "t1", "t02",
                 "", "t", "t0", "t-2", "t\u0663", "MAJ", " maj", "or", "dual(maj)", "t3 ", "t3\n")


def strategy(tree):
    return (tree.winner, tree.leaves(), tree.to_text())


def hardness_section(seed):
    sec = Section("hardness")
    rng = random.Random(f"hardness:{seed}")
    for _ in range(RANDOM_DRAWS // 5):
        g = random_graph(rng)
        sec.add((tuple(map(len, g.parts)), outcome(mis_to_horn, g, show=formula),
                 outcome(mis_to_ihsb_minus, g, show=formula), outcome(mis_bruteforce, g)))
    for _ in range(RANDOM_DRAWS // 5):
        for f in (random_formula(rng), random_horn(rng)):
            sec.add((outcome(horn_to_3horn, f, show=formula), outcome(dualize, f, show=formula)))
    for tag in FUNCTION_TAGS:
        sec.add((tag, outcome(named_function, tag)))
    for _ in range(RANDOM_DRAWS // 5):
        f, other = random_formula(rng), random_formula(rng)
        n = len(f.prefix)
        for cap in (None, BRUTE_CAP, n, n - 1, 0):
            leaf_cap = rng.choice((oracle.LEAF_CAP, 1, 2, 4))
            sec.add((cap, leaf_cap, outcome(eval_bruteforce, f, cap),
                     capped(oracle, "LEAF_CAP", leaf_cap, extract_strategy, f, cap, show=strategy)))
        try:
            tree = extract_strategy(f, None)
        except Exception:  # the errors are in the lines above
            continue
        for g in (f, QbfFormula(f.prefix, other.matrix), other):  # the last mostly has another shape
            sec.add(outcome(verify_strategy, g, tree))
    return sec


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].lstrip("-").isdigit():
        print("usage: python3 tools/digest.py SEED", file=sys.stderr)
        return 2
    seed = int(argv[0])
    texts = list(pools(seed))
    for sec in (dispatch_section(seed, texts), rank_section(seed, texts),
                affsystem_section(seed, texts), pivot_elim_section(seed),
                parse_section(seed), layout_section(seed), spelling_section(seed), free_section(seed),
                prefix_section(seed),
                engines_section(seed),
                apply_section(seed), game2cnf_section(seed), values_section(seed, texts),
                classify_section(seed), class_section(seed), hardness_section(seed)):
        print(sec.line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
