"""Game solving for 2-CNF matrices with a clause cover.

The prefix is consumed outermost-in. At each variable a unit look-ahead
into the width-2 part decides the node:

* both values falsify the width-2 game: the formula is false;
* one value falsifies it: an existential player is forced, a universal
  opponent wins outright;
* a value whose propagation touches no remaining covered variable is a
  free move: take it if the variable is ours, assume the opponent shuns
  it otherwise;
* failing all that, branch. Every branch assigns a covered variable in
  both arms, so a cover with k variables yields at most 2^k leaves.

Once every covered clause is satisfied the residual width-2 game is
decided directly.

`solve` runs this search on one implication graph of the width-2 part,
built once per solve: assignments go on a trail and are undone on
backtracking, a look-ahead is one depth-first search from the pivot
literal, and the truth of the width-2 game is the strongly connected
components test of Aspvall, Plass and Tarjan (1979). `step` decides a
single node from the propagation closures of `twocnf` instead. It is the
reference: `solve` makes exactly the decisions that `step` makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backdoor import BaseClass, verify_partition
from .errors import DomainError, InternalError
from .formula import FORALL, QbfFormula
# unused here, but bench/tracer.py wraps this name on this module
from .formula import apply_assignment  # noqa: F401
from .twocnf import eval_q2cnf, look_ahead

ACCEPT = "accept"
REJECT = "reject"
FOLLOW = "follow"
BRANCH = "branch"


@dataclass(frozen=True)
class StepDecision:
    """One solver decision: what to do at the current outermost variable.

    FOLLOW carries the assignment U to apply; BRANCH carries both arms'
    assignments as `arms`. ACCEPT/REJECT are terminal.
    """

    kind: str
    rationale: str
    pivot: int = None
    U: dict = None
    arms: tuple = None


@dataclass
class SolveStats:
    branch_nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    initial_k: int = 0


def _validate(formula: QbfFormula) -> None:
    verify_partition(formula, BaseClass("2cnf"))
    # every atom is a clause now
    unbound = {abs(l) for c in formula.matrix.atoms() for l in c} - set(formula.prefix.variables())
    if unbound:
        raise DomainError(f"matrix variables {sorted(unbound)} not quantified")


def _decision(formula: QbfFormula) -> StepDecision:
    back = formula.matrix.backdoor
    if any(not c for c in back):
        return StepDecision(REJECT, "a covered clause is already falsified")
    if not back:
        if eval_q2cnf(formula.prefix, formula.matrix.tractable):
            return StepDecision(ACCEPT, "covered clauses exhausted and the width-2 game is true")
        return StepDecision(REJECT, "covered clauses exhausted and the width-2 game is false")
    if not formula.prefix.entries:
        raise InternalError("covered clauses left but no variables to play")
    pivot = formula.prefix.entries[0][0]
    exist = formula.prefix.is_existential(pivot)
    la0, la1 = look_ahead(formula.prefix, formula.matrix.tractable, pivot)
    las = (la0, la1)
    if not la0.status and not la1.status:
        return StepDecision(
            REJECT, f"both values of x{pivot} falsify the width-2 part", pivot
        )
    if la0.status != la1.status:
        b = 1 if la1.status else 0
        if exist:
            return StepDecision(
                FOLLOW,
                f"only x{pivot}={b} keeps the width-2 part true",
                pivot,
                las[b].U,
            )
        return StepDecision(
            REJECT,
            f"the opponent falsifies the width-2 part with x{pivot}={1 - b}",
            pivot,
        )
    cover_vars = formula.matrix.backdoor_variables()
    free = [b for b in (1, 0) if not (las[b].D & cover_vars)]
    if free:
        b = free[0]
        if exist:
            return StepDecision(
                FOLLOW,
                f"x{pivot}={b} forces no covered variable",
                pivot,
                las[b].U,
            )
        return StepDecision(
            FOLLOW,
            f"x{pivot}={b} forces no covered variable; the opponent is held to x{pivot}={1 - b}",
            pivot,
            las[1 - b].U,
        )
    return StepDecision(
        BRANCH,
        f"both values of x{pivot} force covered variables",
        pivot,
        arms=(la0.U, la1.U),
    )


def step(formula: QbfFormula) -> StepDecision:
    """The solver's decision at the current state, without recursing."""
    _validate(formula)
    return _decision(formula)


def _reach(adj: list, s: int):
    """Literals reachable from s, or None when they hold a complementary pair."""
    seen = {s}
    stack = [s]
    while stack:
        for t in adj[stack.pop()]:
            if t not in seen:
                if t ^ 1 in seen:
                    return None
                seen.add(t)
                stack.append(t)
    return seen


class _Search:
    """The search of `step`'s decisions over one implication graph.

    Variable i is the one at prefix position i; literal 2i is that
    variable, 2i+1 its negation, so `l ^ 1` negates and `l >> 1` is the
    position. Clause (a b) of the width-2 part gives the edges -a -> b and
    -b -> a, unit (a) the edge -a -> a. `val[i]` is -1 while variable i is
    unassigned, else its value; `trail` lists the assigned positions in
    order. An edge is live while both its ends are unassigned.

    `unit` marks the derivable units of the width-2 part at the root;
    `refuted` says that this part is contradictory or forces a universal
    variable, so the root rejects. Along a branch the derivable units only
    lose the variables that get assigned: every applied assignment is a
    pivot plus all the units it newly derives. Nor do the
    derived binary clauses grow, so once a node's width-2 game holds no
    path between universals and no universal that shares a strongly
    connected component with an outer existential, every descendant's
    holds none either. Every node below the root is such a node, since an
    arm is only applied when its game is true.
    """

    def __init__(self, formula: QbfFormula):
        entries = formula.prefix.entries
        lit = {}
        for i, (v, _) in enumerate(entries):
            lit[v] = 2 * i
            lit[-v] = 2 * i + 1
        self.univ = [q == FORALL for _, q in entries]
        self.val = [-1] * len(entries)
        self.trail = []
        self.adj = adj = [[] for _ in range(2 * len(entries))]
        self.refuted = False
        for c in formula.matrix.tractable:
            if len(c) == 2:
                a, b = c
                adj[lit[-a]].append(lit[b])
                adj[lit[-b]].append(lit[a])
            elif c:
                (a,) = c
                adj[lit[-a]].append(lit[a])
            else:
                self.refuted = True
        self.back = [[lit[l] for l in c] for c in formula.matrix.backdoor]
        self.unit = self._probe()

    def _probe(self) -> list:
        """Derivable units by failed-literal probing: -l fails, reaching a
        complementary pair, exactly when l is derivable. Whatever a literal
        that does not fail reaches cannot fail either, so it is not probed.
        Probing stops early once the width-2 part is refuted."""
        adj, univ = self.adj, self.univ
        unit = [False] * len(adj)
        holds = [False] * len(adj)
        for s in range(len(adj)):
            if holds[s] or not adj[s]:
                continue
            reached = _reach(adj, s)
            if reached is None:
                unit[s ^ 1] = True
                if unit[s] or univ[s >> 1]:
                    self.refuted = True
                    break
            else:
                for t in reached:
                    holds[t] = True
        return unit

    def _play(self, arm) -> None:
        """Assign an arm's pivot literal and the units it derives."""
        pivot, new = arm
        for l in [pivot] + [t for t in new if t != pivot]:
            self.val[l >> 1] = 1 - (l & 1)
            self.trail.append(l >> 1)

    def _undo(self, mark: int) -> None:
        val, trail = self.val, self.trail
        while len(trail) > mark:
            val[trail.pop()] = -1

    def _cover(self):
        """None when a covered clause is falsified, else the unassigned
        variables of the covered clauses not yet satisfied."""
        val = self.val
        out = set()
        for c in self.back:
            free = []
            for l in c:
                x = val[l >> 1]
                if x < 0:
                    free.append(l >> 1)
                elif x != l & 1:
                    break
            else:
                if not free:
                    return None
                out.update(free)
        return out

    def _look(self, pivot: int):
        """The units that pivot literal adds over the live graph, the
        derivable ones left out; None when it falsifies the width-2 game.
        It does when its complement is derivable, or when it reaches a
        universal variable other than its own. A pivot that reaches a
        complementary pair, or the complement of a derivable unit, needs no
        check of its own: the live graph is part of the root's, so such a
        pivot failed when probed at the root."""
        adj, val, unit, univ = self.adj, self.val, self.unit, self.univ
        if unit[pivot ^ 1]:
            return None
        seen = {pivot}
        stack = [pivot]
        new = []
        while stack:
            t = stack.pop()
            if unit[t]:
                continue  # all it reaches is derivable too
            new.append(t)
            for s in adj[t]:
                if s in seen or val[s >> 1] >= 0:
                    continue
                if univ[s >> 1]:
                    return None
                seen.add(s)
                stack.append(s)
        return new

    def _game_true(self, out=frozenset()) -> bool:
        """The strongly connected components test of the width-2 game on
        the live graph without the derivable units and the positions in
        `out`. It is false exactly when a path joins two universal literals
        or a component holds a universal literal and an existential one
        quantified before it. The derivable units and a contradiction are
        the caller's to check. Iterative Tarjan: a component is completed
        only after every component it reaches, so whether it reaches a
        universal is known from its out-edges."""
        adj, val, unit, univ = self.adj, self.val, self.unit, self.univ
        m = len(adj)
        live = [
            val[l >> 1] < 0 and not unit[l] and not unit[l ^ 1] and l >> 1 not in out
            for l in range(m)
        ]
        index = [-1] * m
        low = [0] * m
        comp = [-1] * m
        to_univ = []  # per component: it holds or reaches a universal literal
        stack = []
        count = 0
        for root in range(m):
            if not live[root] or index[root] >= 0 or not adj[root]:
                continue  # a literal with no out-edge joins no path worth a search
            index[root] = low[root] = count
            count += 1
            stack.append(root)
            work = [(root, 0)]
            while work:
                v, i = work.pop()
                edges = adj[v]
                while i < len(edges):
                    w = edges[i]
                    i += 1
                    if not live[w]:
                        continue
                    if index[w] < 0:
                        work.append((v, i))
                        index[w] = low[w] = count
                        count += 1
                        stack.append(w)
                        work.append((w, 0))
                        break
                    if comp[w] < 0 and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] < index[v]:
                        continue
                    c = len(to_univ)
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        members.append(w)
                        if w == v:
                            break
                    universals = [w >> 1 for w in members if univ[w >> 1]]
                    reaches = any(
                        live[w] and comp[w] != c and to_univ[comp[w]]
                        for u in members
                        for w in adj[u]
                    )
                    if universals:
                        if len(universals) > 1 or reaches:
                            return False
                        if any(not univ[w >> 1] and w >> 1 < universals[0] for w in members):
                            return False
                    to_univ.append(bool(universals) or reaches)
        return True

    def _arms(self, cursor: int, cover: set, clean: bool):
        """The node at the variable in position `cursor`, with covered
        clauses still open: None when it rejects, else the arm to play and,
        at a branch, the other arm. An arm is (pivot literal, the units it
        newly derives)."""
        arms = []
        for pivot in (2 * cursor + 1, 2 * cursor):  # the values 0 and 1
            new = self._look(pivot)
            if new is not None and not clean:
                if not self._game_true({t >> 1 for t in new} | {cursor}):
                    new = None
            arms.append((pivot, new))
        live = [a for a in arms if a[1] is not None]
        exist = not self.univ[cursor]
        if not live or (len(live) == 1 and not exist):
            return None
        if len(live) == 1:
            return live[0], None
        free = [b for b in (1, 0) if not any(t >> 1 in cover for t in arms[b][1])]
        if free:
            return arms[free[0] if exist else 1 - free[0]], None
        return arms[0], arms[1]

    def run(self, stats: SolveStats) -> bool:
        """Search to the end; returns the value and counts into `stats`."""
        univ, val = self.univ, self.val
        if self.refuted:
            # every decision at the root rejects
            stats.leaves = 1
            return False
        # this node's width-2 game is true; below the root it always is
        clean = self._game_true()
        frames = []  # per open branch: [existential, trail mark, cursor, depth, other arm]
        cursor = depth = 0
        while True:
            stats.max_depth = max(stats.max_depth, depth)
            cover = self._cover()
            if cover:
                while val[cursor] >= 0:
                    cursor += 1
                move = self._arms(cursor, cover, clean)
                if move is not None:
                    arm, other = move
                    if other is not None:
                        stats.branch_nodes += 1
                        frames.append([not univ[cursor], len(self.trail), cursor, depth, other])
                    self._play(arm)
                    depth += 1
                    clean = True
                    continue
            # a leaf: every covered clause is satisfied, one is false, or the node rejects
            value = clean if cover is not None and not cover else False
            stats.leaves += 1
            while frames:
                frame = frames[-1]
                exist, mark, cursor, depth, other = frame
                self._undo(mark)
                if other is not None and exist != value:
                    # an existential arm lost, or a universal one won: try the other
                    frame[4] = None
                    self._play(other)
                    depth += 1
                    break
                frames.pop()
            else:
                return value


def solve(formula: QbfFormula):
    """Decide the formula; returns (value, SolveStats)."""
    _validate(formula)
    stats = SolveStats(initial_k=len(formula.matrix.backdoor_variables()))
    return _Search(formula).run(stats), stats
