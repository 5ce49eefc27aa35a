"""Exact dense linear algebra over the rationals.

Everything here works on small matrices (a few hundred rows at most, the
size of a plumbing graph), so plain fraction-free and Fraction-based
elimination is both fast enough and exactly correct.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction

from susplink.errors import MonodromyError


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Solve matrix @ x = rhs exactly; raises MonodromyError on a singular matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if len(rhs) != n:
        raise ValueError("rhs length mismatch")
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise MonodromyError("degenerate monodromical system: singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return x


def determinant(matrix) -> int:
    """Exact determinant of an integer matrix (Bareiss with row pivoting)."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(matrix) -> list[int]:
    """Determinants of the leading principal k x k submatrices, k = 1..n."""
    n = len(matrix)
    return [
        determinant([row[: k + 1] for row in matrix[: k + 1]]) for k in range(n)
    ]


def is_negative_definite(matrix) -> bool:
    """Sylvester test: (-1)^k * det(leading k x k minor) > 0 for all k."""
    for k, minor in enumerate(leading_minors(matrix), start=1):
        if (-1) ** k * minor <= 0:
            return False
    return True
