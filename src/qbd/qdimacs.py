"""Reading and writing the QDIMACS dialect, plus relation tables.

The dialect extends plain QDIMACS with three things:

* ``x <lits> 0`` lines state GF(2) equations: the XOR of the listed
  variables equals 1, flipped once per negative literal.
* a ``c class <tag>`` comment declares the base class of the matrix.
* a ``c backdoor-begin`` comment marks the start of the covered clauses;
  everything after it must be a plain clause.

The reader takes each maximal run of clause lines, of quantifier lines
and of equation lines as one block: its heads and "\r" before "\n" dropped,
one json.loads reads each line's literals as a list of ints. A block is
taken only when bulk checks that suffice for every line to be valid all
hold: only digits, "-", spaces and line ends after the heads; every line
ending in " 0\n" and each literal spelt as JSON spells an integer (so no
"01", "--2" or double space), none of them 0; every variable within the
declared count; no tautology, no variable quantified twice, no variable
repeated in an equation. Any other block, and every other line, goes
through the per-line loop, which alone names the first bad line; clauses
and equations are built from the same literal sequences either way.

Relation tables use one line per relation: ``name arity : tuples`` with
comma-separated 0/1 strings, ``#`` starting a comment.
"""

from __future__ import annotations

import json
import re
import warnings
from itertools import chain, groupby, repeat
from operator import itemgetter, neg

from .backdoor import BaseClass
from .errors import ParseError, TautologyError, UnknownTag
from .formula import EXISTS, FORALL, AffineEquation, Matrix, Prefix, QbfFormula, clause


# An integer token: an optional "-" and ASCII digits. int() alone would
# also take "+3", "1_0" and Arabic-Indic digits.
_INT = re.compile(r"-?[0-9]+")


def _ints(tokens, lineno):
    """The tokens as integers, each matching _INT."""
    for tok in tokens:  # name the first token that is not an integer
        if not _INT.fullmatch(tok):
            raise ParseError(f"expected an integer, got {tok!r}", line=lineno)
    try:
        return [*map(int, tokens)]
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"integer of {max(map(len, tokens))} characters is too long", line=lineno) from None


def _body(tokens, lineno):
    """Literal tokens of a 0-terminated line, with the terminator checked."""
    lits = _ints(tokens, lineno)
    if not lits or lits[-1] != 0:
        raise ParseError("line must end with 0", line=lineno)
    lits = lits[:-1]
    if 0 in lits:
        raise ParseError("stray 0 before the line terminator", line=lineno)
    return lits


def _out_of_range(lits, nvars, lineno):
    """Raise for the first variable of `lits` beyond the declared count."""
    v = next(abs(l) for l in lits if abs(l) > nvars)
    raise ParseError(f"variable {v} exceeds the declared count {nvars}", line=lineno)


# A maximal run of clause lines, of quantifier lines or of equation lines,
# each of which starts at column 0, ends in "\n" or "\r\n" and holds only
# digits, "-" and spaces after its head. Any other character (a tab, a lone
# "\r" or "\r\r\n", "+", "_") ends a run, so inside one "\r" only comes
# right before "\n" and dropping it keeps every line.
_RUN = re.compile(r"^(?:(?:[-0-9][-0-9 ]*\r?\n)+|(?:[ea] [-0-9 ]*\r?\n)+|(?:x [-0-9 ]*\r?\n)+)", re.M)


def parse_qdimacs(text: str) -> QbfFormula:
    """Parse dialect text into a formula.

    Matrix variables missing from the prefix are appended to it, innermost
    and existential, with a warning; a wrong clause count in the header
    only warns as well.
    """
    reader = _Reader()
    lineno = 1
    end = 0
    for m in _RUN.finditer(text):
        gap = text[end:m.start()].splitlines()
        reader.lines(gap, lineno)
        lineno += len(gap)
        run = m.group()
        take = reader.prefix_run if run[0] in "ea" else reader.equation_run if run[0] == "x" else reader.clause_run
        if not take(run.replace("\r\n", "\n")):
            reader.lines(run.splitlines(), lineno)
        lineno += run.count("\n")
        end = m.end()
    reader.lines(text[end:].splitlines(), lineno)
    return reader.formula()


class _Reader:
    """The state of one parse. `lines` is the per-line loop, which alone
    names the first bad line. `clause_run`, `equation_run` and `prefix_run`
    take a run of lines, with "\n" line ends, in bulk; when a bulk check
    fails they change nothing and return False, and the run goes through
    `lines`."""

    def __init__(self):
        self.nvars = None
        self.nclauses = None
        self.entries = []
        self.seen = set()
        self.declared = None
        self.in_backdoor = False
        self.tractable = []
        self.covered = []

    def lines(self, lines, start):
        """Read `lines` one at a time; the first is line number `start`."""
        nvars, nclauses, declared, in_backdoor = self.nvars, self.nclauses, self.declared, self.in_backdoor
        entries, seen, tractable, covered = self.entries, self.seen, self.tractable, self.covered
        for lineno, raw in enumerate(lines, start=start):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            head = tokens[0]
            if head == "c":
                if len(tokens) >= 2 and tokens[1] == "class":
                    if len(tokens) != 3:
                        raise ParseError("class comment takes exactly one tag", line=lineno)
                    try:
                        declared = BaseClass.parse(tokens[2])
                    except UnknownTag as exc:
                        raise ParseError(str(exc), line=lineno) from None
                elif len(tokens) >= 2 and tokens[1] == "backdoor-begin":
                    in_backdoor = True
                continue
            if head == "p":
                if nvars is not None:
                    raise ParseError("duplicate header", line=lineno)
                if len(tokens) != 4 or tokens[1] != "cnf":
                    raise ParseError("header must read 'p cnf <vars> <clauses>'", line=lineno)
                nvars, nclauses = _ints(tokens[2:], lineno)
                if nvars < 0 or nclauses < 0:
                    raise ParseError("header counts must be nonnegative", line=lineno)
                continue
            if nvars is None:
                raise ParseError("matrix or prefix line before the header", line=lineno)
            if head in (EXISTS, FORALL):
                if tractable or covered:
                    raise ParseError("quantifier line after the matrix began", line=lineno)
                for v in _body(tokens[1:], lineno):
                    if v < 0:
                        raise ParseError(f"quantified variable must be positive, got {v}", line=lineno)
                    if v > nvars:
                        raise ParseError(f"variable {v} exceeds the declared count {nvars}", line=lineno)
                    if v in seen:
                        raise ParseError(f"variable {v} quantified twice", line=lineno)
                    seen.add(v)
                    entries.append((v, head))
                continue
            equation = head == "x"
            if equation and in_backdoor:
                raise ParseError("equation after backdoor-begin; covers hold clauses only", line=lineno)
            lits = _body(tokens[equation:], lineno)
            vs = {*map(abs, lits)}
            if vs and max(vs) > nvars:
                _out_of_range(lits, nvars, lineno)
            if equation:
                eq = AffineEquation.from_literals(lits, rhs=1)
                if not eq.is_trivial:
                    tractable.append(eq)
                continue
            c = frozenset(lits)
            if len(c) != len(vs):  # some variable occurs with both signs
                try:
                    clause(*lits)
                except TautologyError as exc:
                    raise ParseError(str(exc), line=lineno) from None
            (covered if in_backdoor else tractable).append(c)
        self.nvars, self.nclauses, self.declared, self.in_backdoor = nvars, nclauses, declared, in_backdoor

    def _cut(self, body, signed):
        """Each line's literals, and all of them in one list, or None unless
        every line of `body` (a run without its heads) ends in " 0\n", its
        only 0, and the other tokens are integers as JSON spells them, lying
        in [-nvars, nvars] (`signed`) or [1, nvars]. JSON refuses "01", "-",
        "--2", "1-2" and the empty token a double space leaves; it reads
        "-0" as 0."""
        nvars = self.nvars
        if nvars is None or body.count(" 0\n") != body.count("\n"):
            return None
        try:  # "1 -2 0\n3 0\n" reads as [[1,-2],[3]]
            bodies = json.loads("[[" + body[:-3].replace(" 0\n", "],[").replace(" ", ",") + "]]")
        except ValueError:
            return None
        ints = [*chain.from_iterable(bodies)]
        if not ints or 0 in ints or min(ints) < (-nvars if signed else 1) or max(ints) > nvars:
            return None
        return ints, bodies

    def clause_run(self, run):
        """Take a run of clause lines in bulk, unless one is a tautology."""
        cut = self._cut(run, signed=True)
        if cut is None:
            return False
        cls = [*map(frozenset, cut[1])]
        if not all(map(frozenset.isdisjoint, cls, map(map, repeat(neg), cls))):
            return False
        (self.covered if self.in_backdoor else self.tractable).extend(cls)
        return True

    def equation_run(self, run):
        """Take a run of equation lines in bulk, unless it follows
        backdoor-begin or a line repeats a variable."""
        cut = None if self.in_backdoor else self._cut(run[2:].replace("\nx ", "\n"), signed=True)
        if cut is None:
            return False
        bodies = cut[1]
        sets = [{*map(abs, body)} for body in bodies]  # as from_literals builds them
        if not all(map(int.__eq__, map(len, sets), map(len, bodies))):
            return False
        odd = map((1).__and__, map(str.count, run.split("\n"), repeat("-")))  # negative literals
        # bounded and nonzero, as AffineEquation checks them
        self.tractable += [*map(AffineEquation._kept, map(frozenset, sets), map((1).__xor__, odd))]
        return True

    def prefix_run(self, run):
        """Take a run of quantifier lines in bulk, unless the matrix began
        or a variable is quantified twice."""
        if self.tractable or self.covered:
            return False
        cut = self._cut(run[2:].replace("\ne ", "\n").replace("\na ", "\n"), signed=False)
        if cut is None:
            return False
        ints, bodies = cut
        new = {*ints}
        if len(new) != len(ints) or not self.seen.isdisjoint(new):
            return False
        heads = map(itemgetter(0), run.splitlines())
        self.entries.extend(zip(ints, chain.from_iterable(map(repeat, heads, map(len, bodies)))))
        self.seen |= new
        return True

    def formula(self) -> QbfFormula:
        if self.nvars is None:
            raise ParseError("missing 'p cnf' header")
        got = len(self.tractable) + len(self.covered)
        if self.nclauses != got:
            warnings.warn(f"header declares {self.nclauses} matrix lines, found {got}", stacklevel=3)
        matrix = Matrix(tuple(self.tractable), tuple(self.covered))
        entries = self.entries
        # Both paths bound every variable by nvars and refuse one quantified
        # twice, so a prefix of nvars entries leaves no matrix variable free.
        free = [] if len(entries) == self.nvars else sorted(matrix.variables() - self.seen)
        if free:
            warnings.warn(
                "unquantified variable(s) "
                + " ".join(str(v) for v in free)
                + " appended to the prefix as innermost existentials",
                stacklevel=3,
            )
            entries.extend((v, EXISTS) for v in free)
        # every entry passed the per-line or the bulk checks, which are Prefix's
        return QbfFormula(Prefix._kept(tuple(entries)), matrix, self.declared)


def _clause_line(c) -> str:
    lits = sorted(c, key=lambda l: (abs(l), l < 0))
    return " ".join(str(l) for l in lits + [0])


def _equation_line(eq: AffineEquation) -> str:
    vs = sorted(eq.vars)
    lits = list(vs)
    if eq.rhs == 0:
        # carry parity 0 on the smallest variable
        lits[0] = -lits[0]
    return "x " + " ".join(str(l) for l in lits + [0])


def write_qdimacs(formula: QbfFormula) -> str:
    """Serialize a formula in the dialect; parse_qdimacs inverts this.
    Trivial equations are left out, and the header counts the lines written."""
    tractable = [
        _equation_line(atom) if isinstance(atom, AffineEquation) else _clause_line(atom)
        for atom in formula.matrix.tractable
        if not (isinstance(atom, AffineEquation) and atom.is_trivial)
    ]
    lines = []
    if formula.base_class is not None:
        lines.append(f"c class {formula.base_class.tag}")
    all_vars = set(formula.prefix.variables()) | set(formula.matrix.variables())
    nvars = max(all_vars, default=0)
    lines.append(f"p cnf {nvars} {len(tractable) + len(formula.matrix.backdoor)}")
    for q, run in groupby(formula.prefix, key=lambda entry: entry[1]):
        lines.append(f"{q} " + " ".join(str(v) for v, _ in run) + " 0")
    lines += tractable
    if formula.matrix.backdoor:
        lines.append("c backdoor-begin")
        lines.extend(_clause_line(c) for c in formula.matrix.backdoor)
    return "\n".join(lines) + "\n"


def parse_relations(text: str) -> dict:
    """Parse a relation table into name -> Relation, in file order.

    Duplicate tuples collapse silently; duplicate names are an error.
    """
    from .algebra import Relation

    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("relation line needs a ':'", line=lineno)
        head, _, body = line.partition(":")
        parts = head.split()
        if len(parts) != 2:
            raise ParseError("expected '<name> <arity> :' before the tuples", line=lineno)
        name, arity_tok = parts
        if not _INT.fullmatch(arity_tok):
            raise ParseError(f"arity must be an integer, got {arity_tok!r}", line=lineno)
        arity = int(arity_tok)
        if arity <= 0:
            raise ParseError(f"arity must be positive, got {arity}", line=lineno)
        if name in out:
            raise ParseError(f"relation {name!r} defined twice", line=lineno)
        tuples = set()
        for chunk in body.split(","):
            bits = chunk.strip()
            if not bits:
                continue
            if len(bits) != arity or any(ch not in "01" for ch in bits):
                raise ParseError(
                    f"tuple {bits!r} is not a 0/1 string of length {arity}", line=lineno
                )
            tuples.add(tuple(int(ch) for ch in bits))
        out[name] = Relation(name=name, arity=arity, tuples=frozenset(tuples))
    return out


def write_relations(relations) -> str:
    """Serialize relations (any iterable or the dict parse_relations returns)."""
    if isinstance(relations, dict):
        relations = relations.values()
    lines = []
    for r in relations:
        rows = sorted(r.tuples)
        body = ",".join("".join(str(b) for b in row) for row in rows)
        lines.append(f"{r.name} {r.arity} : {body}")
    return "\n".join(lines) + "\n"
