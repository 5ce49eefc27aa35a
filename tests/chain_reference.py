"""Reference chain solver: build the chain as a path ``PlumbingTree`` and
solve its balance with the general sparse elimination.

This is the original eliminate-based chain solver of step 5, kept as the
oracle for the chain BalanceError of ``synthesis.node_balance``: its text
(weights, end data and rational multiplicities) must equal this solver's.
The acceptance criteria also solve their worked chains with it.
"""

from __future__ import annotations

from susplink.errors import BalanceError
from susplink.exactlinalg import eliminate
from susplink.graphs import Edge, PlumbingTree, Vertex


def chain_mults(weights, left_mult: int, right_mult: int = 0) -> list[int]:
    """Exact multiplicities along a chain of ``weights``.

    ``left_mult`` is the multiplicity of the vertex before the first chain
    vertex and ``right_mult`` what lies past the last one: the multiplicity
    of a neighbouring vertex, that of a binding arrow, or 0 at a leaf.  Both
    enter the balance of their end vertex as constants.  Raises BalanceError
    when the solution is not integral.
    """
    if not weights:
        raise ValueError("empty chain")
    k = len(weights)
    path = PlumbingTree(tuple(Vertex(i, w) for i, w in enumerate(weights)),
                        tuple(Edge(i, i + 1) for i in range(k - 1)))
    rhs = [0] * k
    rhs[0] -= left_mult
    rhs[-1] -= right_mult
    solution = eliminate(path, rhs).solution
    if any(x.denominator != 1 for x in solution):
        raise BalanceError(
            f"monodromical balance failure: chain {list(weights)} with end data "
            f"({left_mult}, {right_mult}) has non-integral multiplicities {solution}")
    return [int(x) for x in solution]
