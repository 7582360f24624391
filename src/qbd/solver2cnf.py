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

`solve` runs this search on backdoor.search, over one implication graph
of the width-2 part built once per solve: assignments go on a trail and
are undone on backtracking, the covered clauses are scanned again only
after a move assigned or unassigned a covered variable, a look-ahead is
one depth-first search from the pivot literal, and the root's
failed-literal probe, one such search per literal at most, also decides
the root's width-2 game by the conditions of Aspvall, Plass and Tarjan
(1979) on its reach sets of the universal literals. `step` decides a single node from the propagation
closures of `twocnf` instead. It is the reference: `solve` makes exactly
the decisions that `step` makes.
"""

from __future__ import annotations

from .backdoor import CLASSES, search, verify_partition
from .errors import InternalError
from .formula import FORALL, QbfFormula, _lazy_names, _Record
# unused here, but bench/tracer.py wraps this name on this module
from .formula import apply_assignment  # noqa: F401

# twocnf serves step() alone, so a solve does not load it; bench/tracer.py
# reads these names here, and each loads its module on first read
__getattr__ = _lazy_names(globals(), {"eval_q2cnf": ("twocnf", "eval_q2cnf"), "look_ahead": ("twocnf", "look_ahead")})

ACCEPT = "accept"
REJECT = "reject"
FOLLOW = "follow"
BRANCH = "branch"


class StepDecision(_Record):
    """One solver decision: what to do at the current outermost variable.

    FOLLOW carries the assignment U to apply; BRANCH carries both arms'
    assignments as `arms`. ACCEPT/REJECT are terminal.
    """

    _fields = ("kind", "rationale", "pivot", "U", "arms")
    _defaults = (None, None, None)


def _decision(formula: QbfFormula) -> StepDecision:
    from .twocnf import eval_q2cnf, look_ahead

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
    verify_partition(formula, CLASSES["2cnf"])
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
    `refuted` says that this part is contradictory, forces a universal
    variable or makes a false width-2 game, so the root rejects. Along a
    branch the derivable units only lose the variables that get assigned:
    every applied assignment is a pivot plus all the units it newly
    derives. Nor do the derived binary clauses grow, so once a node's
    width-2 game holds no path between universals and no universal that
    shares a strongly connected component with an outer existential,
    every descendant's holds none either. So the root's game is decided
    once, by `_probe` on the reach sets of the universal literals: a false
    one makes the formula false (the covered clauses only add
    constraints), and below a true one `_look` decides every arm.
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
        self.cursor = 0  # no variable before this position is unassigned
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
        self.unit = self._probe()
        # a refuted root gets the empty covered clause, so it is a leaf whose value is False
        self.back = [[]] if self.refuted else [[lit[l] for l in c] for c in formula.matrix.backdoor]
        self.covered = [False] * len(entries)  # the positions of the variables in a covered clause
        for c in self.back:
            for l in c:
                self.covered[l >> 1] = True
        self.moves = 0  # bumped whenever a covered variable is assigned or unassigned
        self.seen, self.last = -1, None  # moves at _cover's last scan, and what it found

    def _probe(self) -> list:
        """Derivable units by failed-literal probing: -l fails, reaching a
        complementary pair, exactly when l is derivable. Whatever a literal
        that does not fail reaches cannot fail either, so it is not probed,
        unless universal: the reach sets of a universal variable's two
        literals decide the root's width-2 game by the test of Aspvall,
        Plass and Tarjan. The game is false when one reaches a complementary
        pair or another universal literal, or reaches an existential literal
        t quantified before it while its complement reaches -t (the graph is
        skew-symmetric, so t reaches it back: the two share a strongly
        connected component). A path through a derivable unit, or through
        the complement of one, would make a universal literal derivable,
        which refutes the root anyway, so the derivable units stay in the
        graph. Probing stops once the root is refuted."""
        adj, univ = self.adj, self.univ
        unit = [False] * len(adj)
        holds = [False] * len(adj)
        for s in range(len(adj)):
            u = univ[s >> 1]
            if not u and (holds[s] or not adj[s]):
                continue
            reached = _reach(adj, s)
            if reached is None:
                unit[s ^ 1] = True
                if unit[s] or u:
                    self.refuted = True
                    break
                continue
            for t in reached:
                holds[t] = True
            if u and s & 1:  # literal 2i, probed just before, reached `positive`
                i, r = s >> 1, (positive, reached)
                if any(t >> 1 != i and (univ[t >> 1] or t >> 1 < i and t ^ 1 in r[1 - b])
                       for b in (0, 1) for t in r[b]):
                    self.refuted = True
                    break
            positive = reached
        return unit

    def play(self, arm) -> None:
        """Assign an arm's pivot literal and the units it derives."""
        pivot, new = arm
        self.cursor = pivot >> 1  # the outermost unassigned variable, at the arm's node
        val, trail, covered = self.val, self.trail, self.covered
        for l in new or [pivot]:  # _look puts the pivot first, or leaves a derivable one out
            i = l >> 1
            val[i] = 1 - (l & 1)
            trail.append(i)
            if covered[i]:
                self.moves += 1

    @property
    def state(self) -> int:
        return len(self.trail)

    @state.setter
    def state(self, mark: int) -> None:  # unassign what was assigned since the mark
        val, trail, covered = self.val, self.trail, self.covered
        while len(trail) > mark:
            i = trail.pop()
            val[i] = -1
            if covered[i]:
                self.moves += 1

    def _cover(self):
        """None when a covered clause is falsified, else both literals of
        every unassigned variable of the covered clauses not yet satisfied.
        Only an assignment to a covered variable can change this, so it is
        scanned again only after `moves` has changed."""
        if self.seen != self.moves:
            self.seen, self.last = self.moves, self._scan()
        return self.last

    def _scan(self):
        val = self.val
        out = set()
        for c in self.back:
            free = []
            for l in c:
                x = val[l >> 1]
                if x < 0:
                    free += l, l ^ 1
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

    def node(self):
        """The node for backdoor.search at the outermost unassigned variable:
        a leaf's value, or (existential, arm, the other arm at a branch or
        None), where an arm is (pivot literal, the units it newly derives).
        Value 1 is looked at first. Two outcomes of that look settle the
        node whatever value 0 gives, so value 0 is looked at only when
        neither holds: an existential takes a live value-1 arm that touches
        no covered literal (the rule tries value 1 first for a free move,
        and it is the only live arm otherwise), and a universal whose value
        1 is dead makes the node false."""
        cover = self._cover()
        if not cover:  # every covered clause is satisfied, or one is false
            return cover is not None
        while self.val[self.cursor] >= 0:
            self.cursor += 1
        cursor = self.cursor
        exist = not self.univ[cursor]
        one = (2 * cursor, self._look(2 * cursor))
        if one[1] is None:
            if not exist:
                return False
        elif exist and cover.isdisjoint(one[1]):
            return exist, one, None
        arms = [(2 * cursor + 1, self._look(2 * cursor + 1)), one]  # the values 0 and 1
        live = [a for a in arms if a[1] is not None]
        if len(live) < 2:
            return (exist, live[0], None) if live and exist else False
        free = [b for b in (1, 0) if cover.isdisjoint(arms[b][1])]
        if free:
            return exist, arms[free[0] if exist else 1 - free[0]], None
        return exist, arms[0], arms[1]


def solve(formula: QbfFormula):
    """Decide the formula; returns (value, SolveStats)."""
    return _solve(formula, verify_partition(formula, CLASSES["2cnf"]))


def _solve(formula: QbfFormula, cover: frozenset):
    return search(_Search(formula), len(cover))
