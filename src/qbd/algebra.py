"""Boolean relations, polymorphisms, and the tractability ladder.

A function f preserves a relation R when applying f coordinate-wise to any
choice of rows of R lands back in R. Which of a handful of named functions
a constraint language admits determines how hard covered evaluation over
that language is, and classify() walks that ladder:

1. majority or minority admitted: all covers are fixed-parameter tractable;
2. x or (y and z) admitted: either x or (y and not z) makes it
   tractable, or the least d >= 3 whose threshold t_{d+1} is admitted
   leaves the d-bounded case open;
3. the mirrored test with x and (y or z);
4. plain min or max admitted: equivalent to hitting-set, W[1]-hard;
5. otherwise evaluation stays as hard as the unrestricted game.

The threshold family used by the ladder is t_d(x1..xd) = 1 iff at least
two arguments are 1; its dual fires iff at least d-1 are.
"""

from __future__ import annotations

import re
from itertools import product

from .errors import ArityError, CapError, DomainError, InternalError, UnknownTag
from .formula import _Record

FPT = "fpt"
OPEN_PLUS = "open-dihsb+"
OPEN_MINUS = "open-dihsb-"
W1_HARD = "w1-hard"
PARA_PSPACE_HARD = "para-pspace-hard"

POLY_CAP = 1 << 22  # the most row combinations, |R|^arity(f), one polymorphism check enumerates


class Relation(_Record):
    """A named set of 0/1 tuples of one arity. Equality ignores the name."""

    _fields = ("name", "arity", "tuples")
    _compared = ("arity", "tuples")

    def __init__(self, name: str, arity: int = 0, tuples: frozenset = frozenset()):
        if arity <= 0:
            raise ArityError(f"arity must be positive, got {arity}")
        for row in tuples:
            if len(row) != arity:
                raise ArityError(f"tuple {row} has length {len(row)}, arity is {arity}")
            if any(b not in (0, 1) for b in row):
                raise DomainError(f"tuple {row} holds non-bits")
        super().__init__(name, arity, tuples)


class BoolFunction(_Record):
    """A Boolean function given by its full table.

    table[i] is the value on the argument vector spelled by i's bits, first
    argument highest. Equality ignores the name.
    """

    _fields = ("name", "arity", "table")
    _compared = ("arity", "table")

    def __init__(self, name: str, arity: int = 0, table: tuple = ()):
        if arity <= 0:
            raise ArityError(f"arity must be positive, got {arity}")
        if len(table) != 1 << arity:
            raise ArityError(f"table of length {len(table)} cannot be {arity}-ary")
        if any(b not in (0, 1) for b in table):
            raise DomainError("table holds non-bits")
        super().__init__(name, arity, table)

    def __call__(self, args) -> int:
        if len(args) != self.arity:
            raise ArityError(f"{self.name} takes {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            idx = (idx << 1) | (a & 1)
        return self.table[idx]


def from_callable(name: str, arity: int, fn) -> BoolFunction:
    table = tuple(
        fn(*bits) & 1 for bits in product((0, 1), repeat=arity)
    )
    return BoolFunction(name, arity, table)


_T_RE = re.compile(r"t([0-9]+)")

# the ladder's fixed functions: tag -> (arity, definition on bits)
_FIXED = {
    "maj": (3, lambda x, y, z: 1 if x + y + z >= 2 else 0),
    "mnrty": (3, lambda x, y, z: x ^ y ^ z),
    "min": (2, lambda x, y: x & y),
    "max": (2, lambda x, y: x | y),
    "and-or": (3, lambda x, y, z: x & (y | z)),
    "or-and": (3, lambda x, y, z: x | (y & z)),
    "and-ornot": (3, lambda x, y, z: x & (y | (1 - z))),
    "or-andnot": (3, lambda x, y, z: x | (y & (1 - z))),
}


def named_function(tag: str) -> BoolFunction:
    """The ladder's function vocabulary, by tag.

    maj, mnrty, min, max, td for d >= 2 (1 iff at least two arguments are
    1), and the four mixed ternaries and-or x&(y|z), or-and x|(y&z),
    and-ornot x&(y|~z), or-andnot x|(y&~z).
    """
    if tag in _FIXED:
        return from_callable(tag, *_FIXED[tag])
    m = _T_RE.fullmatch(tag)
    if m:
        d = int(m.group(1))
        if d < 2:
            raise UnknownTag(f"threshold functions start at t2, got {tag}")
        table = tuple(
            1 if sum(bits) >= 2 else 0 for bits in product((0, 1), repeat=d)
        )
        return BoolFunction(tag, d, table)
    raise UnknownTag(f"no function named {tag!r}")


def _dual_name(name: str) -> str:
    if name.startswith("dual(") and name.endswith(")"):
        return name[5:-1]
    return f"dual({name})"


def dual_function(f: BoolFunction) -> BoolFunction:
    """f with inputs and output complemented; an involution."""
    full = (1 << f.arity) - 1
    table = tuple(1 - f.table[full ^ i] for i in range(len(f.table)))
    return BoolFunction(_dual_name(f.name), f.arity, table)


def dual_relation(r: Relation) -> Relation:
    """The relation of complemented tuples; an involution."""
    return Relation(
        _dual_name(r.name),
        r.arity,
        frozenset(tuple(1 - b for b in row) for row in r.tuples),
    )


def polymorphism_witness(f: BoolFunction, r: Relation):
    """None when f preserves r; else (rows, image), the offending choice of
    rows of r and its coordinate-wise image outside r. CapError beyond
    POLY_CAP row combinations."""
    combos = len(r.tuples) ** f.arity
    if combos > POLY_CAP:
        raise CapError(f"{combos} row combinations exceed the cap {POLY_CAP}")
    rows = sorted(r.tuples)
    for choice in product(rows, repeat=f.arity):
        image = tuple(f([row[j] for row in choice]) for j in range(r.arity))
        if image not in r.tuples:
            return choice, image
    return None


def is_polymorphism(f: BoolFunction, r: Relation) -> bool:
    return polymorphism_witness(f, r) is None


def preserves_language(f: BoolFunction, relations) -> bool:
    return all(is_polymorphism(f, r) for r in relations)


class ClassifierVerdict(_Record):
    """Ladder outcome: the class label, the function tag that decided it,
    and the width bound d for the open middle cases."""

    _fields = ("outcome", "because", "d")
    _defaults = (None,)


def classify(relations) -> ClassifierVerdict:
    """Walk the ladder over a language (any iterable of Relations, or the
    dict parse_relations returns)."""
    rels = list(relations.values()) if isinstance(relations, dict) else list(relations)

    def has(tag_or_fn) -> bool:
        f = named_function(tag_or_fn) if isinstance(tag_or_fn, str) else tag_or_fn
        return preserves_language(f, rels)

    if has("maj"):
        return ClassifierVerdict(FPT, "maj")
    if has("mnrty"):
        return ClassifierVerdict(FPT, "mnrty")
    top = max((r.arity for r in rels), default=3)
    # t3 is maj, and self-dual, so neither rung below repeats it
    for gate, escape, outcome, mirror in (("or-and", "or-andnot", OPEN_PLUS, False),
                                          ("and-or", "and-ornot", OPEN_MINUS, True)):
        if not has(gate):
            continue
        if has(escape):
            return ClassifierVerdict(FPT, escape)
        for d in range(3, max(3, top) + 1):
            t = named_function(f"t{d + 1}")
            t = dual_function(t) if mirror else t
            if has(t):
                return ClassifierVerdict(outcome, t.name, d)
        raise InternalError("threshold scan passed the arity bound without a hit")
    if has("min"):
        return ClassifierVerdict(W1_HARD, "min")
    if has("max"):
        return ClassifierVerdict(W1_HARD, "max")
    return ClassifierVerdict(PARA_PSPACE_HARD, "")
