"""Views of pipeline objects that only the tests read: signed
multiplicities of a multiplicity tree, its re-substitution check, the
balance check of a synthesized plumbing tree, a multiplicity tree's
plumbing-tree form, the weight count of a tree and the Laufer-Steenbrink
triple."""

from collections import Counter

from susplink.errors import BalanceError, MonodromyError
from susplink.graphs import MultPlumbing, PlumbingTree, Vertex, unbalanced


def signed_mults(mp: MultPlumbing) -> dict[int, int]:
    return {v.id: -v.m if v.flipped else v.m for v in mp.vertices}


def verify_multiplicity_system(mp: MultPlumbing) -> None:
    """Re-substitution check of the flip-normalized monodromical system.

    Orientation normalization conjugates the system by a diagonal sign
    matrix, so the stored nonnegative multiplicities solve it with the
    signed adjacency: b_v*m_v + sum(eps_e * m_other) + sum(arrow mults) = 0.
    """
    bad = unbalanced(mp, {v.id: v.m for v in mp.vertices})
    if bad:
        raise MonodromyError("multiplicities do not solve the monodromical system",
                             elements=bad)


def verify_balance(tree: PlumbingTree) -> None:
    """Re-check that the weights, multiplicities and binding arrows of a
    synthesized tree solve the monodromical system at every vertex.

    ``synth_plumbing`` does not run it: ``node_balance`` already proves the
    balance by testing each chain's first value and each node weight for
    integrality (the last value of a chain follows, as q*q' = 1 mod alpha)."""
    bad = unbalanced(tree, {v.id: v.mult or 0 for v in tree.vertices})
    if bad:
        raise BalanceError(
            "monodromical balance failure at synthesized vertices",
            elements=bad)


def multiplicity_to_plumbing(mp: MultPlumbing) -> PlumbingTree:
    """View a multiplicity tree as a plumbing tree with signed multiplicities."""
    return PlumbingTree(
        vertices=tuple(
            Vertex(v.id, v.weight, v.genus,
                   mult=-v.m if v.flipped else v.m, flipped=v.flipped)
            for v in mp.vertices
        ),
        edges=mp.edges,
        arrows=mp.arrows,
    )


def weight_multiset(tree: PlumbingTree) -> Counter:
    return Counter(v.weight for v in tree.vertices)


def ls_tuple(ls) -> tuple:
    """(left, right, congruent) of a LauferSteenbrink result."""
    return (ls.left, ls.right, ls.congruent)
