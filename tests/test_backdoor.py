import re

import pytest
from hypothesis import given, strategies as st

from qbd.backdoor import (
    BaseClass,
    DEFAULT_CANDIDATES,
    SOLVABLE,
    SolveStats,
    _outside,
    detect_cc_backdoor,
    rank_classes,
    search,
    verify_partition,
)
from qbd.errors import ClassError, DomainError, UnknownTag
from qbd.formula import AffineEquation, Matrix, Prefix, QbfFormula, clause, require_quantified
from helpers import reference_ranking, running_example
from strategies import PROPERTY, TAGS, candidates, formulas


def bc(tag):
    return BaseClass.parse(tag)


# atom -> set of tags that contain it, over the unbounded kinds
MEMBERSHIP = [
    (clause(1), {"2cnf", "aff", "horn", "dualhorn", "ihsb-", "ihsb+", "posneg", "dual-posneg"}),
    (clause(-1), {"2cnf", "aff", "horn", "dualhorn", "ihsb-", "ihsb+", "posneg", "dual-posneg"}),
    (clause(), {"2cnf", "aff", "horn", "dualhorn", "ihsb-", "ihsb+", "posneg", "dual-posneg"}),
    (clause(1, 2), {"2cnf", "dualhorn", "ihsb+", "posneg"}),
    (clause(-1, -2), {"2cnf", "horn", "ihsb-", "dual-posneg"}),
    (clause(1, -2), {"2cnf", "horn", "dualhorn", "ihsb-", "ihsb+"}),
    (clause(1, 2, 3), {"dualhorn", "ihsb+", "posneg"}),
    (clause(-1, -2, -3), {"horn", "ihsb-", "dual-posneg"}),
    (clause(1, -2, -3), {"horn"}),
    (clause(-1, 2, 3), {"dualhorn"}),
    (AffineEquation(frozenset({1, 2, 3}), 1), {"aff"}),
    (AffineEquation(frozenset({1}), 0), {"aff"}),
]


@pytest.mark.parametrize("atom,inside", MEMBERSHIP)
def test_membership_by_kind(atom, inside):
    for tag in ("2cnf", "aff", "horn", "dualhorn", "ihsb-", "ihsb+", "posneg", "dual-posneg"):
        assert bc(tag).contains(atom) == (tag in inside), (tag, atom)


def reference_contains(bc, atom) -> bool:
    """Membership written out per kind, apart from backdoor._fits: from the
    width w of a clause and its p positive and w - p negative literals, and
    the width bound b of a bounded class, which gates only its wide shape."""
    if isinstance(atom, AffineEquation):
        return bc.kind == "aff"
    w = len(atom)
    p = sum(1 for lit in atom if lit > 0)
    n = w - p
    b = w if bc.width is None else bc.width
    return {
        "2cnf": w <= 2,
        "aff": w <= 1,
        "horn": p <= 1 and w <= b,
        "dualhorn": n <= 1 and w <= b,
        "ihsb-": (p == 0 and w <= b) or (p == 1 and w <= 2),
        "ihsb+": (n == 0 and w <= b) or (n == 1 and w <= 2),
        "posneg": n == 0 or w == 1,
        "dual-posneg": p == 0 or w == 1,
    }[bc.kind]


# clauses of width 0 to 6 in every sign pattern, and equations, the trivial ones too
signed_clauses = st.tuples(st.lists(st.integers(1, 8), max_size=6, unique=True),
                           st.lists(st.booleans(), min_size=6, max_size=6)).map(
    lambda t: frozenset(v if pos else -v for v, pos in zip(*t)))
equations = st.tuples(st.frozensets(st.integers(1, 8), max_size=4), st.integers(0, 1)).map(
    lambda t: AffineEquation(*t))


@PROPERTY
@given(st.lists(signed_clauses | equations, max_size=16))
def test_membership_scan_agrees_with_the_reference_rule(atoms):
    classes = [bc(tag) for tag in TAGS]
    for c, out in zip(classes, _outside(atoms, classes)):
        assert out == sorted(set(out)), c.tag  # ascending
        assert out == [i for i, a in enumerate(atoms) if not reference_contains(c, a)], c.tag
        for a in atoms:
            assert c.contains(a) == reference_contains(c, a), (c.tag, a)


def test_width_bounds_gate_only_the_wide_shape():
    wide = clause(1, -2, -3, -4)
    assert bc("horn").contains(wide)
    assert not bc("3horn").contains(wide)
    assert bc("4horn").contains(wide)
    neg = clause(-1, -2, -3, -4)
    assert bc("4ihsb-").contains(neg)
    assert not bc("3ihsb-").contains(neg)
    # units and implications ignore the bound
    assert bc("2ihsb-").contains(clause(1, -2))
    assert bc("2ihsb-").contains(clause(1))


class TestBaseClassParse:
    def test_plain_and_bounded(self):
        assert bc("2cnf") == BaseClass("2cnf")
        assert bc("3horn") == BaseClass("horn", 3)
        assert bc("4ihsb+") == BaseClass("ihsb+", 4)
        assert bc("dual-posneg") == BaseClass("dual-posneg")

    def test_normalizes_case_and_space(self):
        assert bc(" HORN ") == BaseClass("horn")

    def test_tag_round_trip(self):
        for tag in ("2cnf", "aff", "3horn", "5ihsb-", "posneg"):
            assert bc(tag).tag == tag == str(bc(tag))

    # a width is ASCII digits: Arabic-Indic and fullwidth 3 are refused
    @pytest.mark.parametrize("bad", ["", "cnf", "1horn", "3aff", "3posneg", "horn-", "x2cnf", "\u0663horn", "\uff13horn"])
    def test_rejects(self, bad):
        with pytest.raises(UnknownTag):
            bc(bad)

    @pytest.mark.parametrize("kind", DEFAULT_CANDIDATES)
    def test_a_plain_tag_parses_to_its_one_record(self, kind):
        record = bc(kind)
        assert record == BaseClass(kind)
        for spelling in (kind.upper(), f"  {kind.title()}\t", f"\n{kind}  "):
            assert bc(spelling) is record
        assert record.dual() is bc(record.dual().tag)
        assert record.dual().dual() is record

    def test_a_bounded_tag_parses_to_a_new_record(self):
        assert bc("3horn") == BaseClass("horn", 3) and bc("3horn") is not bc("3horn")
        assert bc(" 02IHSB+ ") == BaseClass("ihsb+", 2)

    @pytest.mark.parametrize("bad,message", [
        ("32cnf", "class '2cnf' takes no width bound"),
        ("1horn", "width bound must be an int >= 2, got 1"),
        ("horn3", "unknown base class tag 'horn3'"),
    ])
    def test_rejection_messages(self, bad, message):
        with pytest.raises(UnknownTag, match=f"^{re.escape(message)}$"):
            bc(bad)

    def test_width_validation_on_construction(self):
        with pytest.raises(UnknownTag):
            BaseClass("horn", 1)
        with pytest.raises(UnknownTag):
            BaseClass("aff", 3)
        with pytest.raises(UnknownTag):
            BaseClass("maj")


def test_dual_pairs_and_involution():
    pairs = {
        "2cnf": "2cnf",
        "aff": "aff",
        "horn": "dualhorn",
        "ihsb-": "ihsb+",
        "posneg": "dual-posneg",
    }
    for a, b in pairs.items():
        assert bc(a).dual() == bc(b)
        assert bc(b).dual() == bc(a)
    assert bc("3horn").dual() == BaseClass("dualhorn", 3)


def test_dual_mirrors_membership():
    for atom, inside in MEMBERSHIP:
        if isinstance(atom, AffineEquation):
            flipped = atom
        else:
            flipped = frozenset(-l for l in atom)
        for tag in inside:
            assert bc(tag).dual().contains(flipped), (tag, atom)


class TestDetect:
    def test_running_example(self):
        got = detect_cc_backdoor(running_example(), "2cnf")
        assert got.k == 3
        assert got.variables == frozenset({3, 4, 5})
        assert got.base_class == BaseClass("2cnf")
        assert got.formula.matrix.backdoor == (clause(-3, -4, -5),)
        assert got.formula.base_class == BaseClass("2cnf")

    def test_repartitions_from_the_pooled_atoms(self):
        # a binary clause parked on the covered side comes back inside
        f = QbfFormula(
            Prefix.from_string("e1 e2 e3"),
            Matrix((clause(1, 2, 3),), (clause(1, 2),)),
        )
        got = detect_cc_backdoor(f, "2cnf")
        assert got.formula.matrix.tractable == (clause(1, 2),)
        assert got.formula.matrix.backdoor == (clause(1, 2, 3),)
        assert got.variables == frozenset({1, 2, 3})

    def test_empty_cover(self):
        f = QbfFormula(Prefix.from_string("e1 a2"), Matrix((clause(1, -2),), ()))
        got = detect_cc_backdoor(f, "2cnf")
        assert got.k == 0 and got.variables == frozenset()

    def test_equation_outside_the_class_cannot_be_covered(self):
        f = QbfFormula(
            Prefix.from_string("e1 e2"),
            Matrix((AffineEquation(frozenset({1, 2}), 1),), ()),
        )
        with pytest.raises(ClassError, match="clauses only"):
            detect_cc_backdoor(f, "2cnf")

    def test_string_and_object_class_arguments_agree(self):
        f = running_example()
        assert detect_cc_backdoor(f, "2cnf") == detect_cc_backdoor(f, BaseClass("2cnf"))


def test_rank_classes_orders_by_cover_size_then_candidate_order():
    got = rank_classes(running_example())
    tags = [b.base_class.tag for b in got]
    assert tags == ["2cnf", "dualhorn", "ihsb+", "posneg", "horn", "aff", "ihsb-", "dual-posneg"]
    ks = [b.k for b in got]
    assert ks == sorted(ks)
    assert got[0].k == 3


def test_rank_classes_skips_uncoverable_candidates():
    f = QbfFormula(
        Prefix.from_string("e1 e2"),
        Matrix((AffineEquation(frozenset({1, 2}), 1),), ()),
    )
    got = rank_classes(f)
    assert [b.base_class.tag for b in got] == ["aff"]
    assert got[0].k == 0


def test_candidate_sets():
    assert SOLVABLE == ("2cnf", "aff", "posneg", "dual-posneg")
    assert set(SOLVABLE) <= set(DEFAULT_CANDIDATES)


class TestVerifyPartition:
    def test_accepts_the_detected_partition(self):
        f = detect_cc_backdoor(running_example(), "2cnf").formula
        verify_partition(f, "2cnf")

    def test_rejects_out_of_class_tractable_atom(self):
        f = running_example()  # the wide clause sits covered, fine; move it
        bad = QbfFormula(f.prefix, Matrix(f.matrix.tractable + f.matrix.backdoor, ()))
        with pytest.raises(ClassError, match="not in 2cnf"):
            verify_partition(bad, "2cnf")

    def test_rejects_covered_equation(self):
        f = QbfFormula(
            Prefix.from_string("e1"),
            Matrix((), (AffineEquation(frozenset({1}), 1),)),
        )
        with pytest.raises(ClassError, match="equation"):
            verify_partition(f, "aff")


class TreeGame:
    """A game tree for search: `tree` maps the arms on the path, joined, to
    the node there. `played` logs every arm in the order played."""

    def __init__(self, tree):
        self.tree, self.state, self.played = tree, "", []

    def node(self):
        return self.tree[self.state]

    def play(self, arm):
        self.state += arm
        self.played.append(arm)


class TestSearch:
    # an existential root over two universal branches; "ac" is a one-move node
    TREE = {
        "": (True, "a", "b"),
        "a": (False, "c", "d"),
        "ac": (True, "e", None),
        "ace": True,
        "ad": False,
        "b": (False, "c", "d"),
        "bc": False,
        "bd": True,
    }

    def test_the_other_arm_is_played_only_against_its_owner(self):
        # "ac" wins for the existential, so the universal at "a" tries "ad";
        # that loses, so the root tries "b", where "bc" already wins for
        # the universal and "bd" is never seen
        game = TreeGame(self.TREE)
        assert search(game, 5) == (False, SolveStats(branch_nodes=3, leaves=3, max_depth=3, initial_k=5))
        assert game.played == ["a", "c", "e", "d", "b", "c"]

    def test_a_first_arm_for_its_owner_decides_the_branch(self):
        game = TreeGame({**self.TREE, "ad": True})
        assert search(game, 2) == (True, SolveStats(branch_nodes=2, leaves=2, max_depth=3, initial_k=2))
        assert game.played == ["a", "c", "e", "d"]

    def test_a_leaf_root(self):
        game = TreeGame({"": False})
        assert search(game, 0) == (False, SolveStats(leaves=1))
        assert game.played == []


def test_unquantified_variables_are_listed_sorted():
    # unquantified 9 in a tractable clause, 4 in an equation, 6 in a covered clause
    f = QbfFormula(
        Prefix.from_string("e1 a2"),
        Matrix((clause(-9), AffineEquation(frozenset({2, 4}), 0)), (clause(1, -6),)),
    )
    message = r"^matrix variables \[4, 6, 9\] not quantified$"
    with pytest.raises(DomainError, match=message):
        require_quantified(f)
    with pytest.raises(DomainError, match=message):
        verify_partition(f, "aff")


class TestProperties:
    @PROPERTY
    @given(formulas(), candidates)
    def test_rank_classes_is_one_detection_per_candidate(self, f, tags):
        assert rank_classes(f, tags) == reference_ranking(f, tags)

    @PROPERTY
    @given(formulas())
    def test_default_candidates(self, f):
        assert rank_classes(f) == reference_ranking(f, DEFAULT_CANDIDATES)

    @PROPERTY
    @given(formulas(), st.sampled_from(TAGS))
    def test_detection_splits_the_pooled_atoms_by_membership(self, f, tag):
        bc = BaseClass.parse(tag)
        atoms = f.matrix.atoms()
        outside = tuple(a for a in atoms if not bc.contains(a))
        equations = [a for a in outside if isinstance(a, AffineEquation)]
        if equations:
            message = f"equation over {sorted(equations[0].vars)} falls outside {bc.tag} and"
            with pytest.raises(ClassError, match="^" + re.escape(message)):
                detect_cc_backdoor(f, tag)
            return
        bd = detect_cc_backdoor(f, tag)
        inside = tuple(a for a in atoms if bc.contains(a))
        assert bd.formula == QbfFormula(f.prefix, Matrix(inside, outside), bc)
        assert bd.variables == frozenset(abs(l) for c in outside for l in c)
        assert verify_partition(bd.formula, bc) == bd.variables

    @PROPERTY
    @given(formulas(), st.sampled_from(TAGS))
    def test_verify_partition_names_the_first_atom_outside_the_class(self, f, tag):
        bc = BaseClass.parse(tag)
        bad = [i for i, a in enumerate(f.matrix.tractable) if not bc.contains(a)]
        if bad:
            message = f"tractable atom #{bad[0]} is not in {bc.tag}: "
            with pytest.raises(ClassError, match="^" + re.escape(message)):
                verify_partition(f, bc)
        else:
            assert verify_partition(f, bc) == f.matrix.backdoor_variables()
