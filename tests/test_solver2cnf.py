import random
from itertools import product

import pytest

from qbd.errors import ClassError, DomainError
from qbd.formula import Matrix, Prefix, QbfFormula, apply_assignment, clause
from qbd.oracle import eval_bruteforce
from qbd.solver2cnf import ACCEPT, BRANCH, FOLLOW, REJECT, SolveStats, solve, step
from qbd.twocnf import eval_q2cnf, prop
from helpers import random_prefix, running_example


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
    stats = SolveStats(initial_k=len(formula.matrix.backdoor_variables()))
    frames = []  # per open branch: (existential, second arm residual or None, its depth)
    f, depth = formula, 0
    while True:
        stats.max_depth = max(stats.max_depth, depth)
        d = step(f)
        if d.kind == FOLLOW:
            f, depth = apply_assignment(f, d.U), depth + 1
            continue
        if d.kind == BRANCH:
            stats.branch_nodes += 1
            exist = f.prefix.is_existential(d.pivot)
            frames.append((exist, apply_assignment(f, d.arms[1]), depth + 1))
            f, depth = apply_assignment(f, d.arms[0]), depth + 1
            continue
        stats.leaves += 1
        value = d.kind == ACCEPT
        while frames:
            exist, second, arm_depth = frames.pop()
            if second is not None and exist != value:
                frames.append((exist, None, arm_depth))
                f, depth = second, arm_depth
                break
        else:
            return value, stats


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
        # the look-ahead runs the strongly connected components test at
        # such roots only (112 of these 3000)
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
