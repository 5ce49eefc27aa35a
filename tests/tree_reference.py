"""The tree test that ``graphs._is_tree`` and ``graphs.check_tree`` replaced,
kept as the reference they must equal: the signed two-colouring, run with
every sign +1, counts the components of the pair list it is given."""

from susplink.errors import BalanceError, InputError, NotATreeError


def _two_colouring(ids, signed_edges) -> tuple[dict[int, int], int]:
    """+-1 per vertex with colour(v) = colour(u) * sign across every
    (u, v, sign) in ``signed_edges``, breadth first from the least id of
    each component, and the component count; an odd -1 cycle has none."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for u, v, sign in signed_edges:
        adj[u].append((v, sign))
        adj[v].append((u, sign))
    colors: dict[int, int] = {}
    roots = 0
    for root in sorted(adj):
        if root in colors:
            continue
        roots += 1
        colors[root], queue = 1, [root]
        for u in queue:  # read while it grows: first in, first out
            for v, sign in adj[u]:
                want = colors[u] * sign
                if v not in colors:
                    colors[v] = want
                    queue.append(v)
                elif colors[v] != want:
                    raise BalanceError(
                        "eps-parity 2-coloring impossible (odd gluing cycle)",
                        elements=(u, v))
    return colors, roots


def _is_tree(ids, edge_pairs) -> bool:
    """Nonempty, |V| - 1 edges and one component."""
    return (bool(ids) and len(edge_pairs) == len(ids) - 1
            and _two_colouring(ids, [(u, v, 1) for u, v in edge_pairs])[1] == 1)


def check_tree(ids, edge_pairs, what: str = "graph"):
    if not ids:
        raise InputError(f"empty vertex set in {what}")
    if not _is_tree(list(ids), list(edge_pairs)):
        raise NotATreeError(f"not a tree: {what} must be connected and acyclic")
