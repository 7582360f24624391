"""Reference evaluation by exhaustive truth tables, plus strategy trees.

The matrix truth table is held as one big integer with 2^n bits, one per
assignment; atom masks are built by bit-pattern doubling, so construction is
linear in the table size. Quantifiers then fold the table half by half,
outermost first. Exact and simple, at an exponential price: this is the
yardstick the parameterized solvers are measured against.

Assignment index convention: the variable at prefix position i owns index
bit n-1-i, so the outermost variable splits the table into its low (value 0)
and high (value 1) halves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backdoor import BRUTE_CAP
from .errors import CapError, InternalError, ShapeError
from .formula import (
    EXISTS,
    FORALL,
    AffineEquation,
    QbfFormula,
    eval_matrix,
    require_quantified,
)


def _repeat(block: int, span: int, total: int) -> int:
    """Tile `block` (living in the low `span` bits) across `total` bits."""
    out = block
    while span < total:
        out |= out << span
        span *= 2
    return out


def _var_masks(formula: QbfFormula, total: int) -> dict:
    n = len(formula.prefix)
    masks = {}
    for i, (v, _) in enumerate(formula.prefix):
        s = 1 << (n - 1 - i)
        masks[v] = _repeat(((1 << s) - 1) << s, 2 * s, total)
    return masks


def matrix_table(formula: QbfFormula) -> int:
    """Bitmask of the assignments (as indices) satisfying the matrix."""
    n = len(formula.prefix)
    total = 1 << n
    full = (1 << total) - 1
    require_quantified(formula)
    masks = _var_masks(formula, total)
    acc = full
    for atom in formula.matrix.atoms():
        if isinstance(atom, AffineEquation):
            m = 0
            for v in atom.vars:
                m ^= masks[v]
            if atom.rhs == 0:
                m ^= full
        else:
            m = 0
            for l in atom:
                m |= masks[abs(l)] if l > 0 else (full ^ masks[abs(l)])
        acc &= m
        if acc == 0:
            break
    return acc


def _fold(table: int, quants, i: int) -> bool:
    """Truth of the game on `table` from prefix position i inward."""
    m = len(quants) - i
    size = 1 << m
    if table == 0:
        return False
    if table == (1 << size) - 1:
        return True
    half = 1 << (m - 1)
    low = table & ((1 << half) - 1)
    high = table >> half
    if quants[i] == EXISTS:
        return _fold(low, quants, i + 1) or _fold(high, quants, i + 1)
    return _fold(low, quants, i + 1) and _fold(high, quants, i + 1)


def eval_bruteforce(formula: QbfFormula, cap: int = BRUTE_CAP) -> bool:
    """Evaluate by full enumeration. Raises CapError beyond `cap` variables
    (pass cap=None to lift the limit)."""
    n = len(formula.prefix)
    if cap is not None and n > cap:
        raise CapError(f"{n} variables exceed the brute-force cap {cap}")
    quants = [q for _, q in formula.prefix]
    return _fold(matrix_table(formula), quants, 0)


@dataclass(frozen=True)
class StrategyNode:
    """One quantifier level: branches pair a value with a subtree or leaf."""

    var: int
    branches: tuple


@dataclass(frozen=True)
class StrategyTree:
    """A winning strategy: the winner's own variables carry one chosen
    branch, the opponent's carry both. Leaves are bools naming the matrix
    value every play reaches."""

    winner: str
    root: object

    def to_text(self) -> str:
        return _render(self.root)

    def leaves(self) -> int:
        def count(node) -> int:
            if isinstance(node, bool):
                return 1
            return sum(count(child) for _, child in node.branches)

        return count(self.root)


def _render(node) -> str:
    if isinstance(node, bool):
        return "T" if node else "F"
    return "".join(
        f"(x{node.var}={val} {_render(child)})" for val, child in node.branches
    )


def extract_strategy(formula: QbfFormula, cap: int = BRUTE_CAP, leaf_cap: int = 1 << 16) -> StrategyTree:
    """Build the winner's strategy tree off the truth table.

    The tree has one leaf per play consistent with the winner's choices,
    2^(opponent variables) of them; leaf_cap bounds that count.
    """
    n = len(formula.prefix)
    if cap is not None and n > cap:
        raise CapError(f"{n} variables exceed the brute-force cap {cap}")
    quants = [q for _, q in formula.prefix]
    table = matrix_table(formula)
    value = _fold(table, quants, 0)
    mine = EXISTS if value else FORALL
    branching = sum(1 for q in quants if q != mine)
    if 1 << branching > leaf_cap:
        raise CapError(
            f"strategy would have 2^{branching} leaves, above the cap {leaf_cap}"
        )

    def build(t: int, i: int):
        if i == n:
            leaf = t & 1 == 1
            if leaf != value:
                raise InternalError("leaf disagrees with the game value")
            return leaf
        v, q = formula.prefix.entries[i]
        half = 1 << (n - 1 - i)
        parts = (t & ((1 << half) - 1), t >> half)
        if q == mine:
            for b in (0, 1):
                if _fold(parts[b], quants, i + 1) == value:
                    return StrategyNode(v, ((b, build(parts[b], i + 1)),))
            raise InternalError(f"no winning value at x{v}")
        return StrategyNode(v, ((0, build(parts[0], i + 1)), (1, build(parts[1], i + 1))))

    return StrategyTree(mine, build(table, 0))


def verify_strategy(formula: QbfFormula, tree: StrategyTree) -> bool:
    """Replay every play of the tree against the matrix.

    The tree must mirror the prefix exactly (one branch on the winner's
    variables, two on the opponent's) or ShapeError is raised; the return
    value says whether every reached leaf has the matrix value the winner
    needs.
    """
    if tree.winner not in (EXISTS, FORALL):
        raise ShapeError(f"unknown winner tag {tree.winner!r}")
    need = tree.winner == EXISTS
    n = len(formula.prefix)

    def walk(node, i: int, tau: dict) -> bool:
        if i == n:
            if not isinstance(node, bool):
                raise ShapeError(f"expected a leaf below position {i}, got x{node.var}")
            if node != need:
                raise ShapeError("leaf label contradicts the claimed winner")
            return eval_matrix(formula.matrix, tau) == need
        if isinstance(node, bool):
            raise ShapeError(f"leaf reached at position {i}, prefix has {n} variables")
        v, q = formula.prefix.entries[i]
        if node.var != v:
            raise ShapeError(f"expected x{v} at position {i}, tree has x{node.var}")
        vals = [val for val, _ in node.branches]
        if q == tree.winner:
            if len(node.branches) != 1 or vals[0] not in (0, 1):
                raise ShapeError(f"x{v} belongs to the winner and needs exactly one branch")
        else:
            if sorted(vals) != [0, 1]:
                raise ShapeError(f"x{v} belongs to the opponent and needs branches 0 and 1")
        ok = True
        for val, child in node.branches:
            tau[v] = val
            ok = walk(child, i + 1, tau) and ok
            del tau[v]
        return ok

    return walk(tree.root, 0, {})
