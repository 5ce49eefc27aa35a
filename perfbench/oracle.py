"""Independent checks of pipeline outputs.

Nothing here imports ``susplink``: every invariant is recomputed from plain
data (vertex, edge and arrow lists) with its own exact arithmetic, so a check
cannot pass because it shares a bug with the code it checks.

A graph is a dict with

* ``vertices``: list of ``(id, weight, genus, mult)``, ``mult`` may be None,
* ``edges``: list of ``(u, v, sign)``, parallel edges allowed,
* ``arrows``: list of ``(vertex, mult)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CheckError(AssertionError):
    """A pipeline output failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Intersection form
# ---------------------------------------------------------------------------

def _form(g):
    """Sparse symmetric intersection form: diagonal and off-diagonal dicts."""
    diag = {vid: w for vid, w, _, _ in g["vertices"]}
    off = {vid: {} for vid in diag}
    for u, v, sign in g["edges"]:
        off[u][v] = off[u].get(v, 0) + sign
        off[v][u] = off[v].get(u, 0) + sign
    return diag, off


def form_times(g, x: dict) -> dict:
    """A·x for a vector given as {vertex id: value}."""
    diag, off = _form(g)
    return {v: diag[v] * x[v] + sum(c * x[u] for u, c in off[v].items())
            for v in diag}


def _dense_det(g) -> Fraction:
    """Determinant by dense Fraction elimination with row pivoting; only used
    when the symmetric elimination meets a zero pivot."""
    ids = [v[0] for v in g["vertices"]]
    index = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    a = [[Fraction(0)] * n for _ in range(n)]
    for vid, w, _, _ in g["vertices"]:
        a[index[vid]][index[vid]] = Fraction(w)
    for u, v, sign in g["edges"]:
        a[index[u]][index[v]] += sign
        a[index[v]][index[u]] += sign
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def eliminate(g) -> tuple[int, bool]:
    """(det, negative definite) of the intersection form.

    Symmetric elimination that always removes a vertex of least remaining
    degree: on a tree that is leaf-first order, which creates no fill-in
    (Parter 1961), and the pivots are the ratios of consecutive leading
    minors of the permuted form.  So the form is negative definite iff every
    pivot is negative, and det is their product.  A zero pivot ends the
    definiteness test and hands det to dense elimination with pivoting.
    """
    diag, off = _form(g)
    diag = {v: Fraction(w) for v, w in diag.items()}
    det = Fraction(1)
    definite = True
    while diag:
        x = min(diag, key=lambda v: (len(off[v]), v))
        p = diag.pop(x)
        if p == 0:
            return int(_dense_det(g)), False
        if p > 0:
            definite = False
        det *= p
        nbrs = off.pop(x)
        for a in nbrs:
            del off[a][x]
        for a, ca in nbrs.items():
            diag[a] -= Fraction(ca * ca) / p
            for b, cb in nbrs.items():
                if b != a:
                    value = off[a].get(b, 0) - Fraction(ca * cb) / p
                    if value:
                        off[a][b] = value
                    else:
                        off[a].pop(b, None)
    require(det.denominator == 1, f"non-integral determinant {det}")
    return int(det), definite


def is_tree(g) -> bool:
    ids = [v[0] for v in g["vertices"]]
    if len(g["edges"]) != len(ids) - 1:
        return False
    adj = {v: [] for v in ids}
    for u, v, _ in g["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = set(), [ids[0]]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack.extend(adj[x])
    return len(seen) == len(ids)


# ---------------------------------------------------------------------------
# Checks on one pipeline run
# ---------------------------------------------------------------------------

def check_balance(g) -> None:
    """Monodromical balance A·m + arrows = 0 at every vertex."""
    m = {vid: mult for vid, _, _, mult in g["vertices"]}
    require(all(x is not None for x in m.values()), "vertex without multiplicity")
    residual = form_times(g, m)
    for vertex, mult in g["arrows"]:
        residual[vertex] += mult
    bad = sorted(v for v, r in residual.items() if r != 0)
    require(not bad, f"balance A·m + arrows = 0 fails at vertices {bad}")


def adjunction_rhs(g) -> dict:
    """d_v = -b_v - 2 + 2 g_v."""
    return {vid: -w - 2 + 2 * genus for vid, w, genus, _ in g["vertices"]}


def check_canonical(g, K, k_squared) -> None:
    """A·K = d by multiplication, and K² = K·d."""
    ids = [v[0] for v in g["vertices"]]
    require(len(K) == len(ids), f"K has {len(K)} entries for {len(ids)} vertices")
    k = {vid: Fraction(x) for vid, x in zip(ids, K)}
    d = adjunction_rhs(g)
    bad = sorted(v for v, value in form_times(g, k).items() if value != d[v])
    require(not bad, f"A·K = d fails at vertices {bad}")
    ksq = sum(k[v] * d[v] for v in ids)
    require(Fraction(k_squared) == ksq, f"K^2 = {k_squared}, but K·d = {ksq}")


def check_form(g, det, negative_definite) -> None:
    """det and definiteness against the independent elimination."""
    want_det, want_nd = eliminate(g)
    require(det == want_det, f"determinant {det}, elimination gives {want_det}")
    require(negative_definite == want_nd,
            f"negative definite {negative_definite}, elimination gives {want_nd}")


def check_chi_resolution(g, chi) -> None:
    want = sum(2 - 2 * genus for _, _, genus, _ in g["vertices"]) - len(g["edges"])
    require(chi == want, f"chi(resolution) {chi}, expected {want}")


# ---------------------------------------------------------------------------
# Brieskorn-Pham closed forms (Milnor-Orlik 1970)
# ---------------------------------------------------------------------------

def milnor_number(exponents) -> int:
    out = 1
    for a in exponents:
        out *= a - 1
    return out


def delta_at_one(exponents) -> int:
    """|Δ(1)| of the characteristic polynomial of x^a + y^b + z^c + ...

    The divisor of Δ is the product of (Λ_a - 1) over the exponents, with
    Λ_m Λ_n = gcd(m, n) Λ_lcm(m, n) and 1 = Λ_1; a divisor Σ c_n Λ_n is the
    polynomial Π (t^n - 1)^c_n.  Eigenvalue 1 occurs Σ c_n times; when it
    does not occur, |Δ(1)| = Π n^c_n, since (t^n - 1)/(t - 1) is n at t = 1.
    """
    divisor = {1: 1}
    for a in exponents:
        product: dict[int, int] = {}
        for n, c in divisor.items():
            g = gcd(n, a)
            lcm = n * a // g
            product[lcm] = product.get(lcm, 0) + c * g
            product[n] = product.get(n, 0) - c
        divisor = {n: c for n, c in product.items() if c}
    if sum(divisor.values()) != 0:
        return 0
    value = Fraction(1)
    for n, c in divisor.items():
        value *= Fraction(n) ** c
    require(value.denominator == 1, f"non-integral Δ(1) = {value}")
    return int(value)


def check_brieskorn(g, wedge_spheres, exponents, r, det, negative_definite) -> None:
    """One-sided run of x^a + y^b: the suspension is Brieskorn-Pham (a, b, r)."""
    want = milnor_number(list(exponents) + [r])
    require(wedge_spheres == want,
            f"wedge of {wedge_spheres} spheres, Milnor number of {exponents}+z^{r} is {want}")
    require(negative_definite, "one-sided tree is not negative definite")
    if all(genus == 0 for _, _, genus, _ in g["vertices"]):
        want_det = delta_at_one(list(exponents) + [r])
        require(abs(det) == want_det, f"|det| = {abs(det)}, |Δ(1)| = {want_det}")


# ---------------------------------------------------------------------------
# Blow-down
# ---------------------------------------------------------------------------

def check_reduced(reduced, det, abs_det=None, sphere=False) -> None:
    """A blown-down tree keeps |det| of the tree it came from; on the ADE
    ladder |det| is the textbook value, and at r = 1 the result is S^3, a
    single vertex with |det| = 1."""
    det_reduced = eliminate(reduced)[0]
    require(abs(det_reduced) == abs(det),
            f"blow-down changed |det| from {abs(det)} to {abs(det_reduced)}")
    if abs_det is not None:
        require(abs(det_reduced) == abs_det, f"|det| {abs(det_reduced)}, expected {abs_det}")
    if sphere:
        require(len(reduced["vertices"]) == 1 and abs(det_reduced) == 1,
                "does not blow down to S^3")


def canonical_form(g) -> str:
    """Isomorphism invariant of a weighted tree (edge signs ignored, which a
    tree allows): the smaller rooted canonical string over its centres."""
    require(is_tree(g), "blow-down result is not a tree")
    label = {vid: f"{w}g{genus}" for vid, w, genus, _ in g["vertices"]}
    adj = {vid: [] for vid in label}
    for u, v, _ in g["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    degree = {v: len(n) for v, n in adj.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    remaining = len(label)
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for leaf in layer:
            for n in adj[leaf]:
                degree[n] -= 1
                if degree[n] == 1:
                    nxt.append(n)
        layer = nxt
    centres = layer or list(label)

    def rooted(root):
        order, parent, stack = [], {root: None}, [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for n in adj[x]:
                if n != parent[x]:
                    parent[n] = x
                    stack.append(n)
        text = {}
        for x in reversed(order):
            kids = sorted(text[n] for n in adj[x] if n != parent[x])
            text[x] = f"({label[x]}{''.join(kids)})"
        return text[root]

    return min(rooted(c) for c in centres)


def check_blow_down(seed, before, after) -> None:
    """The blow-down of a blown-up minimal tree is that tree again, and |det|
    is unchanged."""
    require(canonical_form(after) == canonical_form(seed),
            "blow-down did not return the seed minimal tree")
    det_seed = eliminate(seed)[0]
    det_before = eliminate(before)[0]
    det_after = eliminate(after)[0]
    require(abs(det_before) == abs(det_after) == abs(det_seed),
            f"|det| seed {abs(det_seed)}, before {abs(det_before)}, "
            f"after {abs(det_after)}")
