import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given

from qbd import solver2cnf
from qbd.backdoor import SolveStats, rank_classes
from qbd.errors import ClassError, DomainError
from qbd.formula import EXISTS, FORALL, Matrix, Prefix, QbfFormula, apply_assignment, clause
from qbd.oracle import eval_bruteforce
from qbd.qdimacs import parse_qdimacs
from qbd.solver2cnf import ACCEPT, BRANCH, FOLLOW, REJECT, solve, step
from qbd.twocnf import eval_q2cnf, prop
from helpers import random_prefix, running_example
from strategies import PROPERTY, formulas


def instance(prefix, tractable, backdoor=()):
    return QbfFormula(Prefix.from_string(prefix), Matrix(tuple(tractable), tuple(backdoor)))


def random_cc2cnf(rng, max_n=8):
    """Random instance whose tractable part is width <= 2."""
    n = rng.randint(1, max_n)
    tract = []
    for _ in range(rng.randint(0, 2 * n)):
        w = rng.randint(1, min(2, n))
        vs = rng.sample(range(1, n + 1), w)
        tract.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    back = []
    for _ in range(rng.randint(0, n // 2)):
        w = rng.randint(1, min(4, n))
        vs = rng.sample(range(1, n + 1), w)
        back.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
    return QbfFormula(random_prefix(rng, n), Matrix(tuple(tract), tuple(back)))


def reference_solve(formula):
    """The search as a walk over step() decisions and apply_assignment
    residuals, with the closures of twocnf at every node; iterative, so
    that it takes deep prefixes too. Returns (value, SolveStats)."""
    frames = []  # per open branch: (existential, second arm residual or None, its depth)
    f = formula
    depth = branch_nodes = leaves = max_depth = 0
    while True:
        max_depth = max(max_depth, depth)
        d = step(f)
        if d.kind == FOLLOW:
            f, depth = apply_assignment(f, d.U), depth + 1
            continue
        if d.kind == BRANCH:
            branch_nodes += 1
            exist = f.prefix.is_existential(d.pivot)
            frames.append((exist, apply_assignment(f, d.arms[1]), depth + 1))
            f, depth = apply_assignment(f, d.arms[0]), depth + 1
            continue
        leaves += 1
        value = d.kind == ACCEPT
        while frames:
            exist, second, arm_depth = frames.pop()
            if second is not None and exist != value:
                frames.append((exist, None, arm_depth))
                f, depth = second, arm_depth
                break
        else:
            k = len(formula.matrix.backdoor_variables())
            return value, SolveStats(branch_nodes, leaves, max_depth, k)


def structurally_false(f):
    """The width-2 game is false though its closure is consistent and
    forces no universal: a path joins two universals, or a universal is
    equivalent to an outer existential."""
    p = prop(f.matrix.tractable)
    if p.contradiction or any(f.prefix.is_universal(abs(l)) for l in p.units):
        return False
    return not eval_q2cnf(f.prefix, p)


class TestStep:
    def test_running_example_branches_at_x1(self):
        d = step(running_example())
        assert d.kind == BRANCH
        assert d.pivot == 1
        assert d.arms == ({1: 0, 3: 1}, {1: 1, 4: 1})

    def test_residual_after_the_left_arm(self):
        d = step(running_example())
        left = apply_assignment(running_example(), d.arms[0])
        assert left.prefix.to_string() == "a2 e4 e5"
        assert set(left.matrix.tractable) == {clause(2, 5)}
        assert set(left.matrix.backdoor) == {clause(-4, -5)}
        nxt = step(left)
        assert nxt.kind == FOLLOW
        assert nxt.pivot == 2
        assert nxt.U == {2: 0, 5: 1}
        assert "opponent is held to x2=0" in nxt.rationale

    def test_falsified_covered_clause_rejects(self):
        d = step(instance("e1", [clause(1)], [clause()]))
        assert d.kind == REJECT
        assert "already falsified" in d.rationale

    def test_exhausted_cover_accepts_or_rejects_on_the_residual_game(self):
        assert step(instance("e1", [clause(1)])).kind == ACCEPT
        assert step(instance("a1", [clause(1)])).kind == REJECT

    def test_both_values_dead(self):
        d = step(instance("e1 e2", [clause(1), clause(-1)], [clause(2)]))
        assert d.kind == REJECT
        assert "both values of x1" in d.rationale

    def test_forced_pivot_follows_or_rejects_by_quantifier(self):
        d = step(instance("e1 e2", [clause(1)], [clause(2)]))
        assert (d.kind, d.pivot, d.U) == (FOLLOW, 1, {1: 1})
        d = step(instance("a1 e2", [clause(1)], [clause(2)]))
        assert d.kind == REJECT
        assert "x1=0" in d.rationale

    def test_free_move_prefers_one(self):
        d = step(instance("e1 e2", [], [clause(2)]))
        assert (d.kind, d.pivot, d.U) == (FOLLOW, 1, {1: 1})
        assert "forces no covered variable" in d.rationale

    def test_free_move_for_a_universal_follows_the_other_arm(self):
        # x1=1 leaves the cover alone, so the opponent is pinned to x1=0,
        # which propagates into x2
        d = step(instance("a1 e2", [clause(1, 2)], [clause(2)]))
        assert d.kind == FOLLOW
        assert d.U == {1: 0, 2: 1}

    def test_unquantified_matrix_variable(self):
        with pytest.raises(DomainError):
            step(instance("e1", [clause(1, 2)]))

    def test_wide_tractable_clause_rejected(self):
        with pytest.raises(ClassError):
            step(instance("e1 e2 e3", [clause(1, 2, 3)]))


class TestSolve:
    def test_running_example(self):
        value, stats = solve(running_example())
        assert value is True
        assert stats.initial_k == 3
        assert stats.leaves <= 8
        assert stats.branch_nodes == 2

    def test_empty_formula(self):
        value, stats = solve(instance("", []))
        assert value is True
        assert stats.leaves == 1

    def test_agrees_with_bruteforce(self):
        rng = random.Random(7)
        for _ in range(1200):
            f = random_cc2cnf(rng)
            value, stats = solve(f)
            assert value == eval_bruteforce(f), f
            assert stats.leaves <= 1 << stats.initial_k, f

    def test_no_literal_starts_two_reach_searches(self, monkeypatch):
        """The probe's reach sets of a universal variable's two literals
        also decide the root's width-2 game, so no second search runs."""
        starts = Counter()
        real = solver2cnf._reach
        monkeypatch.setattr(solver2cnf, "_reach", lambda adj, s: starts.update((s,)) or real(adj, s))
        # x1 -> x2: the probe from x1 marks x2, and the game reads x1's set
        assert solve(instance("a1 e2", [clause(-1, 2)])) == (True, SolveStats(leaves=1))
        assert starts == Counter({0: 1, 1: 1, 3: 1})
        rng = random.Random(16)
        for _ in range(500):
            starts.clear()
            solve(random_cc2cnf(rng))
            assert set(starts.values()) <= {1}

    def test_pure_2cnf_never_branches(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_cc2cnf(rng)
            f = QbfFormula(f.prefix, Matrix(f.matrix.tractable, ()))
            value, stats = solve(f)
            assert value == eval_bruteforce(f)
            assert stats.branch_nodes == 0
            assert stats.leaves == 1


class TestAgainstTheClosures:
    def test_same_decisions_as_the_closure_walk(self):
        rng = random.Random(2)
        unclean_roots = branching = 0
        for _ in range(3000):
            f = random_cc2cnf(rng)
            value, stats = solve(f)
            assert (value, stats) == reference_solve(f), f
            assert value == eval_bruteforce(f), f
            unclean_roots += structurally_false(f)
            branching += stats.branch_nodes > 0
        # the search settles such roots false from the reach sets of the
        # universal literals (112 of these 3000)
        assert unclean_roots > 50
        assert branching > 300

    def test_game_truth_matches_eval_q2cnf_on_three_variables(self):
        """A seeded sixteenth of the 2^18 width-<=2 clause sets over three
        variables, under all 8 prefixes, with no covered clause: the
        engine decides the width-2 game alone."""
        atoms = [frozenset((s * v,)) for v in (1, 2, 3) for s in (1, -1)]
        atoms += [
            frozenset((s1 * a, s2 * b))
            for a, b in ((1, 2), (1, 3), (2, 3))
            for s1 in (1, -1)
            for s2 in (1, -1)
        ]
        prefixes = [
            Prefix(tuple((i + 1, q) for i, q in enumerate(p)))
            for p in product("ea", repeat=3)
        ]
        wrong = []
        for s in random.Random(602).sample(range(1 << 18), 1 << 14):
            matrix = Matrix(tuple(atoms[i] for i in range(18) if s >> i & 1), ())
            closure = prop(matrix.tractable)
            for pf in prefixes:
                if solve(QbfFormula(pf, matrix))[0] != eval_q2cnf(pf, closure):
                    wrong.append((pf.to_string(), matrix.tractable))
        assert not wrong, wrong[:5]

    def test_game_truth_matches_eval_q2cnf_on_random_games(self):
        """Games with 4 to 9 variables, at least two of them universal,
        clauses of width 0 to 2 and no covered clause."""
        rng = random.Random(14)
        wrong = []
        unclean_roots = 0
        for _ in range(3000):
            n = rng.randint(4, 9)
            order = rng.sample(range(1, n + 1), n)
            univ = set(rng.sample(order, rng.randint(2, n)))
            prefix = Prefix(tuple((v, FORALL if v in univ else EXISTS) for v in order))
            clauses = []
            for _ in range(rng.randint(0, n + 2)):
                vs = rng.sample(range(1, n + 1), rng.choice((1, 2, 2, 2)))
                clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
            if rng.random() < 0.02:
                clauses.append(clause())
            f = QbfFormula(prefix, Matrix(tuple(clauses), ()))
            if solve(f)[0] != eval_q2cnf(prefix, prop(clauses)):
                wrong.append((prefix.to_string(), clauses))
            unclean_roots += structurally_false(f)
        assert not wrong, wrong[:5]
        assert unclean_roots > 300


def chain(vs):
    """The clauses of the implications vs[0] -> vs[1] -> ... -> vs[-1]."""
    return [clause(-a, b) for a, b in zip(vs, vs[1:])]


class TestDeepRootGames:
    """Width-2 games over 500 variables whose derivable units are none, so
    the reach sets of the universal literals alone decide the root."""

    N = 500
    INNER = tuple((v, EXISTS) for v in range(3, N + 1))
    CYCLE = Matrix(tuple(chain([1, *range(3, N + 1), 2, 1])), ())

    def test_cycle_through_a_universal_and_an_outer_existential_is_false(self):
        # x1 <-> x2 along the cycle, and x1 is chosen before the opponent's x2
        f = QbfFormula(Prefix(((1, EXISTS), (2, FORALL)) + self.INNER), self.CYCLE)
        assert structurally_false(f)
        assert solve(f) == (False, SolveStats(leaves=1))

    def test_cycle_through_a_universal_and_an_inner_existential_is_true(self):
        f = QbfFormula(Prefix(((2, FORALL), (1, EXISTS)) + self.INNER), self.CYCLE)
        assert solve(f) == (True, SolveStats(leaves=1))

    def test_fan_whose_chain_implies_another_universal_is_false(self):
        # x1 -> x3 ... x1 -> x12, then x12 -> ... -> x500 -> x2
        fan = [clause(-1, v) for v in range(3, 13)] + chain([*range(12, self.N + 1), 2])
        f = QbfFormula(Prefix(((1, FORALL),) + self.INNER + ((2, FORALL),)), Matrix(tuple(fan), ()))
        assert structurally_false(f)
        assert solve(f) == (False, SolveStats(leaves=1))


def scanned_cover(search):
    """What `_Search._cover` must give, scanned afresh from `val` and `back`:
    None when a covered clause is false, else both literals of every
    unassigned variable of the covered clauses not yet satisfied."""
    out = set()
    for c in search.back:
        if any(search.val[l >> 1] == 1 - (l & 1) for l in c):
            continue
        free = [l for l in c if search.val[l >> 1] < 0]
        if not free:
            return None
        out.update(free, [l ^ 1 for l in free])
    return out


def watch_cover(mp):
    """Check the cached cover at every node against a fresh scan, and after
    every undo that the cache, if it still claims to be current, is right;
    returns the counts of nodes and scans."""
    search = solver2cnf._Search
    node, scan, state = search.node, search._scan, search.state
    counts = Counter()

    def checked_node(self):
        counts["nodes"] += 1
        assert self._cover() == scanned_cover(self)
        return node(self)

    def counted_scan(self):
        counts["scans"] += 1
        return scan(self)

    def undo(self, mark):
        state.fset(self, mark)
        if self.seen == self.moves:
            assert self.last == scanned_cover(self)

    mp.setattr(search, "node", checked_node)
    mp.setattr(search, "_scan", counted_scan)
    mp.setattr(search, "state", property(state.fget, undo))
    return counts


def pool(monkeypatch, seed, small):
    """The parsed q2cnf-branch pool of the benchmark generator (bench/gen.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    return [parse_qdimacs(gen.instance("q2cnf-branch", seed, i, small).text)
            for i in range(gen.POOL["q2cnf-branch"])]


class TestCoverCache:
    """`_cover` scans the covered clauses again only after a covered
    variable was assigned or unassigned."""

    @pytest.mark.parametrize("seed", (101, 7))
    def test_cached_cover_is_a_fresh_scan_on_the_small_pool(self, monkeypatch, seed):
        instances = pool(monkeypatch, seed, small=True)
        counts = watch_cover(monkeypatch)
        branching = 0
        for f in instances:
            value, stats = solve(f)
            assert value == eval_bruteforce(f), f
            branching += stats.branch_nodes > 0
        assert branching > 200
        assert counts["scans"] < counts["nodes"]

    @PROPERTY
    @given(formulas())
    def test_cached_cover_is_a_fresh_scan(self, f):
        for bd in rank_classes(f, ("2cnf",)):
            expected = reference_solve(bd.formula)
            with pytest.MonkeyPatch.context() as mp:
                watch_cover(mp)
                assert solve(bd.formula) == expected

    def test_scan_runs_at_fewer_than_half_of_the_nodes(self, monkeypatch):
        f = pool(monkeypatch, 101, small=False)[0]
        counts = watch_cover(monkeypatch)
        value, stats = solve(f)
        assert stats.branch_nodes > 0
        assert 2 * counts["scans"] < counts["nodes"], counts


def eager_node(search):
    """The node rule with both values looked at before it decides: what
    `_Search.node` must return on the same state. Leaves the search as it
    found it, up to the cover's cache."""
    cover = search._cover()
    if not cover:
        return cover is not None
    cursor = search.cursor
    while search.val[cursor] >= 0:
        cursor += 1
    arms = [(pivot, search._look(pivot)) for pivot in (2 * cursor + 1, 2 * cursor)]  # the values 0 and 1
    live = [a for a in arms if a[1] is not None]
    exist = not search.univ[cursor]
    if len(live) < 2:
        return (exist, live[0], None) if live and exist else False
    free = [b for b in (1, 0) if cover.isdisjoint(arms[b][1])]
    if free:
        return exist, arms[free[0] if exist else 1 - free[0]], None
    return exist, arms[0], arms[1]


def watch_nodes(mp):
    """Check every node against `eager_node` on the same state; returns how
    many nodes `_Search.node` decided with no look, with one and with two."""
    search = solver2cnf._Search
    node, look = search.node, search._look
    looks = [0]
    counts = Counter()

    def checked_node(self):
        expected = eager_node(self)
        before = looks[0]
        got = node(self)
        assert got == expected
        counts[looks[0] - before] += 1
        return got

    def counted_look(self, pivot):
        looks[0] += 1
        return look(self, pivot)

    mp.setattr(search, "node", checked_node)
    mp.setattr(search, "_look", counted_look)
    return counts


class TestLookOnDemand:
    """`_Search.node` looks at value 0 only when the value-1 look leaves
    the node open, and returns what the rule over both looks returns."""

    @pytest.mark.parametrize("seed", (101, 7))
    def test_same_node_as_the_eager_rule_on_the_small_pool(self, monkeypatch, seed):
        instances = pool(monkeypatch, seed, small=True)
        counts = watch_nodes(monkeypatch)
        for f in instances:
            assert solve(f)[0] == eval_bruteforce(f), f
        assert counts[1] > 0 and counts[2] > 0, counts

    @PROPERTY
    @given(formulas())
    def test_same_node_as_the_eager_rule(self, f):
        for bd in rank_classes(f, ("2cnf",)):
            expected = reference_solve(bd.formula)
            with pytest.MonkeyPatch.context() as mp:
                watch_nodes(mp)
                assert solve(bd.formula) == expected

    def test_fewer_than_one_and_a_half_looks_per_node_on_the_pool(self, monkeypatch):
        instances = pool(monkeypatch, 101, small=False)
        counts = watch_nodes(monkeypatch)
        for f in instances:
            solve(f)
        assert counts[1] + 2 * counts[2] < 1.5 * counts.total(), counts
