"""Hardness constructions as instance generators, plus random instances.

The graph-based generators encode partitioned independent-set questions as
covered QBFs: the formula comes out FALSE exactly when the graph has a
transversal independent set (one vertex per part, pairwise nonadjacent).
They exist to produce families whose cover size equals the number of parts
while the matrix stays inside a named class; mis_bruteforce provides the
graph-side ground truth to test them against.

dualize flips every literal sign (equations adjust their parity), which
preserves the game value and swaps each class with its mirror image.
"""

from __future__ import annotations

import math
import random

from .backdoor import CLASSES, BaseClass, _show
from .errors import CapError, ClassError, GraphError, ParamError, ParseError
from .formula import (
    EXISTS,
    FORALL,
    AffineEquation,
    Matrix,
    Prefix,
    QbfFormula,
    _Record,
)


class PartitionedGraph(_Record):
    """A graph whose vertices are split into ordered parts.

    parts: tuple of tuples of vertex labels; edges: frozenset of 2-element
    frozensets.
    """

    _fields = ("parts", "edges")

    def __init__(self, parts: tuple, edges: frozenset):
        parts = tuple(tuple(p) for p in parts)
        seen = set()
        for part in parts:
            for v in part:
                if v in seen:
                    raise GraphError(f"vertex {v!r} appears in two parts")
                seen.add(v)
        norm = set()
        for e in edges:
            pair = frozenset(e)
            if len(pair) != 2:
                raise GraphError(f"edge {set(e)!r} is not a pair of distinct vertices")
            for v in pair:
                if v not in seen:
                    raise GraphError(f"edge endpoint {v!r} is not a vertex")
            norm.add(pair)
        super().__init__(parts, frozenset(norm))

    @property
    def k(self) -> int:
        return len(self.parts)

    def vertices(self) -> tuple:
        return tuple(v for part in self.parts for v in part)

    def neighbors(self, v) -> set:
        out = set()
        for e in self.edges:
            if v in e:
                out |= e - {v}
        return out


def parse_graph(text: str) -> PartitionedGraph:
    """Parse a graph: a 'parts' header with '|' between parts, then one
    edge per line; '#' starts a comment."""
    parts = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if parts is None:
            if tokens[0] != "parts":
                raise ParseError("first line must start with 'parts'", line=lineno)
            parts = [chunk.split() for chunk in " ".join(tokens[1:]).split("|")]
            continue
        if len(tokens) != 2:
            raise ParseError("an edge line holds exactly two vertex names", line=lineno)
        edges.add(frozenset(tokens))
    if parts is None:
        raise ParseError("missing 'parts' header line")
    try:
        return PartitionedGraph(tuple(tuple(p) for p in parts), frozenset(edges))
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def _selectors(g: PartitionedGraph, blocks: int):
    """What both encodings share: the vertex ids 1..n in part order,
    `blocks` blocks of k selector ids numbered after them, and the prefix
    with the vertices universal, then the blocks existential."""
    if g.k < 1:
        raise GraphError("at least one part is required")
    y = {v: i for i, v in enumerate(g.vertices(), start=1)}
    sel = [[len(y) + 1 + b * g.k + i for i in range(g.k)] for b in range(blocks)]
    entries = [(v, FORALL) for v in y.values()] + [(s, EXISTS) for block in sel for s in block]
    return y, sel, Prefix(tuple(entries))


def mis_to_horn(g: PartitionedGraph) -> QbfFormula:
    """Encode the transversal independent-set question over a matrix whose
    uncovered part is Horn; the cover is the single all-parts clause over
    the k selector variables. FALSE iff the set exists."""
    y, (x,), prefix = _selectors(g, 1)
    tract = []
    for i, part in enumerate(g.parts):
        for v in part:
            lits = {y[v]} | {-y[u] for u in g.neighbors(v)} | {-x[i]}
            tract.append(frozenset(lits))
    return QbfFormula(prefix, Matrix(tuple(tract), (frozenset(x),)), CLASSES["horn"])


def mis_to_ihsb_minus(g: PartitionedGraph) -> QbfFormula:
    """Same question with the uncovered part made of negative clauses and
    implications; the cover holds the 2k selector variables."""
    y, (x, z), prefix = _selectors(g, 2)
    tract = []
    for i, part in enumerate(g.parts):
        for v in part:
            lits = {-y[w] for w in part if w != v}
            lits |= {-y[u] for u in g.neighbors(v)}
            lits.add(-x[i])
            tract.append(frozenset(lits))
        for v in part:
            tract.append(frozenset((-z[i], y[v])))
    return QbfFormula(prefix, Matrix(tuple(tract), (frozenset(x + z),)), CLASSES["ihsb-"])


def _horn_head(c) -> list:
    pos = sorted((l for l in c if l > 0))
    neg = sorted((l for l in c if l < 0), key=abs)
    return pos + neg


def horn_to_3horn(formula: QbfFormula) -> QbfFormula:
    """Split wide Horn clauses of the uncovered part down to width three.

    A clause keeps its head pair and hands the tail to a chain variable,
    fresh and appended innermost existential; the covered part and the
    truth value are untouched.
    """
    for atom in formula.matrix.tractable:
        if not CLASSES["horn"].contains(atom):
            raise ClassError(f"uncovered atom {_show(atom)} is not Horn")
    next_id = max(formula.matrix.variables().union(formula.prefix.variables()), default=0) + 1
    entries = list(formula.prefix.entries)
    out = []
    for c in formula.matrix.tractable:
        cur = c
        while len(cur) > 3:
            lits = _horn_head(cur)
            v = next_id
            next_id += 1
            entries.append((v, EXISTS))
            out.append(frozenset(lits[:2] + [-v]))
            cur = frozenset([v] + lits[2:])
        out.append(cur)
    return QbfFormula(
        prefix=Prefix(tuple(entries)),
        matrix=Matrix(tuple(out), formula.matrix.backdoor),
        base_class=BaseClass("horn", 3),
    )


def dualize(formula: QbfFormula) -> QbfFormula:
    """Flip every literal's sign; parities adjust so each equation states
    the mirrored constraint. An involution that preserves the game value
    and mirrors the declared class."""

    def flip(atom):
        if isinstance(atom, AffineEquation):
            return AffineEquation(atom.vars, atom.rhs ^ (len(atom.vars) & 1))
        return frozenset(-l for l in atom)

    bc = formula.base_class.dual() if formula.base_class is not None else None
    return QbfFormula(
        prefix=formula.prefix,
        matrix=Matrix(
            tuple(flip(a) for a in formula.matrix.tractable),
            tuple(flip(a) for a in formula.matrix.backdoor),
        ),
        base_class=bc,
    )


def mis_bruteforce(g: PartitionedGraph, cap: int = 1 << 20) -> bool:
    """True iff some choice of one vertex per part is pairwise nonadjacent."""
    total = 1
    for part in g.parts:
        total *= len(part)
        if total > cap:
            raise CapError(f"transversal count exceeds the cap {cap}")
    if g.k == 0 or total == 0:
        return False

    def pick(i: int, chosen: list) -> bool:
        if i == g.k:
            return True
        for v in g.parts[i]:
            if all(frozenset((v, u)) not in g.edges for u in chosen):
                chosen.append(v)
                if pick(i + 1, chosen):
                    return True
                chosen.pop()
        return False

    return pick(0, [])


MAX_ATOMS = 10**6  # the most atoms, and variables, gen_random draws; tests and examples draw under a hundred


class GenParams(_Record):
    """Knobs for gen_random: n variables, a designated k-variable cover,
    the class of the uncovered part, atom counts as per-variable
    densities, and an optional quantifier pattern (cycled; random when
    None)."""

    _fields = ("n", "k", "tag", "tractable_density", "backdoor_density", "prefix_pattern")
    _defaults = ("2cnf", 1.5, 1.0, None)


def _gen_atom(rng: random.Random, bc: BaseClass, n: int) -> object:
    def sample(w):
        return rng.sample(range(1, n + 1), min(w, n))

    kind = bc.kind
    cap = bc.width if bc.width is not None else 4
    if kind == "2cnf":
        vs = sample(1 if rng.random() < 0.2 else 2)
        return frozenset(v if rng.random() < 0.5 else -v for v in vs)
    if kind == "aff":
        vs = sample(rng.randint(1, 4))
        return AffineEquation._kept(frozenset(vs), rng.getrandbits(1))  # variables 1..n and a bit pass every check
    if kind in ("horn", "dualhorn"):
        vs = sample(rng.randint(1, cap))
        head = rng.random() < 0.7
        sign = 1 if kind == "horn" else -1
        lits = [-sign * v for v in vs]
        if head:
            lits[0] = sign * vs[0]
        return frozenset(lits)
    if kind in ("ihsb-", "ihsb+"):
        sign = -1 if kind == "ihsb-" else 1
        shape = rng.choice(("wide", "impl", "unit"))
        if shape == "wide":
            return frozenset(sign * v for v in sample(rng.randint(1, cap)))
        if shape == "unit":
            return frozenset((-sign * rng.randint(1, n),))
        vs = sample(2)
        if len(vs) < 2:
            return frozenset((-sign * vs[0],))
        return frozenset((-vs[0], vs[1]))
    sign = 1 if kind == "posneg" else -1  # posneg or dual-posneg
    if rng.random() < 0.25:
        return frozenset((-sign * rng.randint(1, n),))
    return frozenset(sign * v for v in sample(rng.randint(1, 4)))


def gen_random(params: GenParams, seed: int) -> QbfFormula:
    """Deterministic-in-seed random instance: the uncovered part is sampled
    inside the class, the covered clauses over a designated k-subset."""
    if params.n < 0 or params.k < 0 or params.k > params.n:
        raise ParamError(f"need 0 <= k <= n, got n={params.n} k={params.k}")
    if params.n > MAX_ATOMS:  # one prefix entry per variable
        raise ParamError(f"n={params.n} variables is more than {MAX_ATOMS}")
    if params.tractable_density < 0 or params.backdoor_density < 0:
        raise ParamError("densities must be nonnegative")
    n_tract = params.tractable_density * params.n
    n_back = params.backdoor_density * params.k
    if not (math.isfinite(n_tract) and math.isfinite(n_back)):
        raise ParamError(f"densities must give finite atom counts, got {n_tract} uncovered and {n_back} covered")
    if round(n_tract) + round(n_back) > MAX_ATOMS:
        raise ParamError(f"densities give {round(n_tract)} uncovered and {round(n_back)} covered atoms, more than {MAX_ATOMS}")
    if params.prefix_pattern is not None and (
        not params.prefix_pattern or set(params.prefix_pattern) - {EXISTS, FORALL}
    ):
        raise ParamError(f"prefix pattern must be over 'e'/'a', got {params.prefix_pattern!r}")
    bc = BaseClass.parse(params.tag)
    rng = random.Random(seed)
    entries = []
    for i in range(params.n):
        if params.prefix_pattern:
            q = params.prefix_pattern[i % len(params.prefix_pattern)]
        else:
            q = rng.choice((EXISTS, FORALL))
        entries.append((i + 1, q))
    cover = sorted(rng.sample(range(1, params.n + 1), params.k))
    tract = []
    if params.n:
        for _ in range(round(n_tract)):
            tract.append(_gen_atom(rng, bc, params.n))
    back = []
    for _ in range(round(n_back)):
        w = rng.randint(1, min(len(cover), 4))
        vs = rng.sample(cover, w)
        back.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return QbfFormula(Prefix(tuple(entries)), Matrix(tuple(tract), tuple(back)), bc)
