"""Seeded instance generators for the four benchmark families.

Every generator takes its own `random.Random` and returns an `Instance`:
the prefix and atoms it built, and their QDIMACS dialect text. The program
under test only ever sees the text; the correctness gate builds its
reference formula from the atoms, so that a parser that misreads the text
cannot agree with its own misreading. The families are built here, not
with `qbd.reductions.gen_random`, so that a later change to the package's
generator cannot silently change the workloads.

Variables are numbered in prefix order (variable i sits at position i),
so "inner" means "larger number".
"""

from __future__ import annotations

import random
from typing import NamedTuple

EXISTS = "e"
FORALL = "a"


class Instance(NamedTuple):
    """One generated instance. `quants[v - 1]` quantifies variable v;
    clauses are tuples of literals and equations ("x", *literals), as in
    the dialect's `x` lines; `tag` is the `c class` tag or None."""

    tag: object
    quants: list
    tract: list
    covered: list

    @property
    def text(self) -> str:
        """Dialect text: class comment, header, prefix runs, matrix, cover."""
        lines = []
        if self.tag is not None:
            lines.append(f"c class {self.tag}")
        lines.append(f"p cnf {len(self.quants)} {len(self.tract) + len(self.covered)}")
        run_q, run = None, []
        for v, q in enumerate(self.quants, start=1):
            if q != run_q and run:
                lines.append(f"{run_q} {' '.join(map(str, run))} 0")
                run = []
            run_q = q
            run.append(v)
        if run:
            lines.append(f"{run_q} {' '.join(map(str, run))} 0")
        for atom in self.tract:
            lines.append(" ".join(map(str, atom)) + " 0")
        if self.covered:
            lines.append("c backdoor-begin")
            for c in self.covered:
                lines.append(" ".join(map(str, c)) + " 0")
        return "\n".join(lines) + "\n"


def _signed(rng: random.Random, vs) -> tuple:
    return tuple(v if rng.random() < 0.5 else -v for v in vs)


def _cover_clauses(rng: random.Random, cover: list, count: int, width: int = 3) -> list:
    """`count` random clauses of the given width over `cover`, touching
    every cover variable and holding a negative and a positive literal each
    (so they lie outside every sign-uniform class as well as 2-CNF)."""
    order = list(cover)
    rng.shuffle(order)
    out = []
    for i in range(count):
        head = order[(i * width) % len(order):][:width]
        rest = [v for v in cover if v not in head]
        vs = head + rng.sample(rest, width - len(head))
        lits = list(_signed(rng, sorted(vs)))
        if all(l > 0 for l in lits) or all(l < 0 for l in lits):
            lits[0] = -lits[0]
        out.append(tuple(lits))
    return out


def q2cnf_branch(rng: random.Random, n: int, k: int = 8, clauses: int = 8) -> Instance:
    """2-CNF with a k-variable cover of existential variables.

    One variable in ten is universal, none in the innermost quarter. Each
    universal sits in exactly one binary clause, with an inner existential
    partner that occurs in no other binary clause; the first k/2 universals
    take cover variables as partners, so their moves force covered
    variables. The other existentials carry random binary clauses at
    density 0.4, and `clauses` width-3 clauses over the cover form the covered
    part. There are no units and no universal pairs, and no path in the
    implication graph links two universals: the width-2 game is true, so
    instances are decided by search, never at the root. (With universals
    in random clauses at density 0.6, a third of the instances were FALSE
    at the root, which made the per-instance time bimodal.)
    """
    univ = sorted(rng.sample(range(1, n - n // 4), n // 10))
    quants = [EXISTS] * n
    for u in univ:
        quants[u - 1] = FORALL
    exist = [v for v in range(1, n + 1) if quants[v - 1] == EXISTS]
    cover = sorted(rng.sample(exist, k))
    steered = rng.sample(cover, k // 2)
    partners = set()
    seen = set()
    tract = []
    for j, u in enumerate(univ):
        cands = [c for c in steered if c > u and c not in partners] if j < k // 2 else []
        if not cands:
            cands = [x for x in exist if x > u and x not in partners and x not in cover]
        x = rng.choice(cands)
        partners.add(x)
        seen.add((u, x))
        tract.append(_signed(rng, (u, x)))
    free = [x for x in exist if x not in partners]
    while len(tract) < round(0.4 * n):
        a, b = sorted(rng.sample(free, 2))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        tract.append(_signed(rng, (a, b)))
    return Instance("2cnf", quants, tract, _cover_clauses(rng, cover, clauses))


def parity_kernel(rng: random.Random, n: int, k: int = 16, clauses: int = 7) -> Instance:
    """Parity part that is true by construction, plus a k-variable cover.

    Each row's innermost variable (its owner) is existential and occurs in
    no other row, so eliminating owners in order decides the parity game
    TRUE. 5k/8 of the cover variables are owners, and their rows hold
    otherwise only cover variables, so the kernel keeps those rows whole
    and the walk branches on the 3k/8 unowned cover variables alone.
    `clauses` width-3 covered clauses over the cover decide the verdict.
    """
    quants = [FORALL if rng.random() < 0.3 else EXISTS for _ in range(n)]
    owners = sorted(rng.sample(range(n // 2, n), n // 3))
    for o in owners:
        quants[o] = EXISTS
    owned = set(rng.sample(owners, 5 * k // 8))
    members = [v for v in range(n) if v not in set(owners)]
    loose = sorted(rng.sample(members[: n // 2], k - len(owned)))
    tract = []
    for o in owners:
        pool = loose if o in owned else [v for v in members if v < o]
        vs = sorted(rng.sample(pool, min(len(pool), rng.randint(2, 3)))) + [o]
        lits = [v + 1 for v in vs]
        if rng.random() < 0.5:
            lits[0] = -lits[0]
        tract.append(("x",) + tuple(lits))
    cover = sorted(v + 1 for v in owned | set(loose))
    return Instance("aff", quants, tract, _cover_clauses(rng, cover, clauses))


def sign_wide(rng: random.Random, n: int, dual: bool, k: int = 10, clauses: int = 5) -> Instance:
    """Sign-uniform matrix: positive clauses plus n/10 negative units on
    existential variables (mirrored when `dual`), and a k-variable cover,
    half universal, and `clauses` mixed-sign covered clauses over it.

    Every positive clause holds an anchor: an existential variable outside
    the cover that carries no unit and occurs only positively. Propagation
    therefore never reaches a universal unit, and the dominant moves
    satisfy the whole tractable part, leaving the game on the cover.
    """
    quants = [EXISTS] * n
    for v in rng.sample(range(n), n // 5):
        quants[v] = FORALL
    exist = [v for v in range(n) if quants[v] == EXISTS]
    univ = [v for v in range(n) if quants[v] == FORALL]
    cover = set(rng.sample(exist, k - k // 2) + rng.sample(univ, k // 2))
    free = [v for v in exist if v not in cover]
    units = set(rng.sample(free, n // 10))
    anchors = [v for v in free if v not in units]
    sign = -1 if dual else 1
    tract = []
    for _ in range(round(1.2 * n)):
        vs = {rng.choice(anchors)}
        width = rng.randint(3, 4)
        while len(vs) < width:
            vs.add(rng.randrange(n))
        tract.append(tuple(sign * (v + 1) for v in sorted(vs)))
    for v in sorted(units):
        tract.append((-sign * (v + 1),))
    covered = _cover_clauses(rng, sorted(v + 1 for v in cover), clauses)
    return Instance("dual-posneg" if dual else "posneg", quants, tract, covered)


def random_3cnf(rng: random.Random, n: int) -> Instance:
    """Mixed-sign width-3 clauses over every variable: no solvable class
    has a cover below n, so dispatch falls back to brute force."""
    quants = [FORALL if rng.random() < 0.25 else EXISTS for _ in range(n)]
    cover = list(range(1, n + 1))
    covered = _cover_clauses(rng, cover, round(1.6 * n))
    return Instance(None, quants, covered, [])


# Sizes are fixed, or a narrow grid, per family; only the structure depends
# on the seed. That keeps the per-instance percentiles close across seeds:
# with a wide band of sizes the median is one mid-size instance's time.
POOL = {
    "q2cnf-branch": 256,
    "parity-kernel": 256,
    "sign-wide": 128,
    "cli-small": 100,
}

CLI_KINDS = ("2cnf", "aff", "posneg", "dual-posneg", "brute")


def _grid(i: int, count: int, lo: int, hi: int) -> int:
    return lo + (hi - lo) * i // max(count - 1, 1)


def instance(family: str, seed: int, i: int, small: bool = False) -> Instance:
    """Instance i of a family's pool for this seed. `small` gives the same
    family at n <= 14, for the check against the naive evaluator."""
    rng = random.Random(f"{family}:{seed}:{i}:{'small' if small else 'full'}")
    count = POOL[family]
    if family == "q2cnf-branch":
        if small:
            return q2cnf_branch(rng, 12 + i % 3, k=4, clauses=14)
        return q2cnf_branch(rng, 60)
    if family == "parity-kernel":
        if small:
            return parity_kernel(rng, 12 + i % 3, k=5, clauses=4)
        return parity_kernel(rng, _grid(i, count, 280, 320))
    if family == "sign-wide":
        if small:
            return sign_wide(rng, 12 + i % 3, dual=i % 2 == 1, k=4, clauses=4)
        return sign_wide(rng, _grid(i, count, 400, 480), dual=i % 2 == 1)
    if family == "cli-small":
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        n = 12 + (i * 7) % 9
        if small:
            n = min(n, 14)
        if kind == "2cnf":
            return q2cnf_branch(rng, n, k=4, clauses=14)
        if kind == "aff":
            return parity_kernel(rng, n, k=5, clauses=4)
        if kind == "brute":
            return random_3cnf(rng, n)
        return sign_wide(rng, n, dual=kind == "dual-posneg", k=4, clauses=4)
    raise ValueError(f"unknown family {family!r}")
