"""An exact census of the M-stationary points of a quadratic-affine instance.

Every verdict of ccopkit is a float decision against a tolerance, and its
trust anchor, census_quadratic, uses the same LAPACK arithmetic as what it
checks.  This census decides with fractions.Fraction and no tolerance:

- H, b and c0 of f and of each affine h and g are read from the AST.  A Num
  holds a binary float, so Fraction(value) is exact.
- Every (support, active set) pattern, in the order of oracle._patterns, is
  solved by exact elimination over its support's coordinates and its
  multipliers; an exactly singular system is reported as singular.
- Each distinct root is certified by the definitions: feasibility, the
  signs of the inequality multipliers, and NDM1-NDM4.  Its M-index is the
  quadratic index plus s - ||x||_0.  The quadratic index counts the negative
  eigenvalues of N'HN, N an exact basis of the tangent space; by Sylvester's
  law of inertia any basis gives the same count.  Descartes' rule of signs
  reads it off the characteristic polynomial, exactly, since the matrix is
  symmetric and its eigenvalues are real.

Stationarity is decided under CC-LICQ (NDM1) only: where it fails the
multipliers are not unique, and exact_census raises ValueError.  The module
imports the AST node classes alone, so it shares no arithmetic with the
census it checks.  pytest does not collect it (like helpers.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ccopkit.exprcore import BinOp, Neg, Num, Pow, Var

__all__ = ["ExactCensus", "exact_census"]

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass
class ExactCensus:
    """points: (x, index) per stationary point, in the order of the first
    pattern that finds it; x a tuple of Fractions, index the M-index, or
    None where an NDM condition fails.  by_index_m counts them as
    census_quadratic does: indices in increasing order, then "degenerate".
    singular: the (support, active set) patterns, 1-based, whose system is
    exactly singular, in pattern order."""

    points: list
    by_index_m: dict
    singular: list


# ---------------------------------------------------------------------------
# Polynomials from the AST: {monomial: coefficient}, a monomial the sorted
# tuple of its 0-based variables


def _add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, _ZERO) + sign * c
    return {m: c for m, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ma, ca), (mb, cb) in itertools.product(a.items(), b.items()):
        m = tuple(sorted(ma + mb))
        out[m] = out.get(m, _ZERO) + ca * cb
    return {m: c for m, c in out.items() if c}


def _poly(node) -> dict:
    if isinstance(node, Num):
        return {(): Fraction(node.value)} if node.value else {}
    if isinstance(node, Var):
        return {(node.index - 1,): _ONE}
    if isinstance(node, Neg):
        return {m: -c for m, c in _poly(node.operand).items()}
    if isinstance(node, Pow):
        base = _poly(node.base)
        if node.exponent < 0:
            if any(base.keys() - {()}):
                raise ValueError("a negative power of a nonconstant term is not a polynomial")
            return {(): base.get((), _ZERO) ** node.exponent}
        out = {(): _ONE}
        for _ in range(node.exponent):
            out = _mul(out, base)
        return out
    if isinstance(node, BinOp):
        a, b = _poly(node.left), _poly(node.right)
        if node.op in "+-":
            return _add(a, b, 1 if node.op == "+" else -1)
        if node.op == "*":
            return _mul(a, b)
        if any(b.keys() - {()}):
            raise ValueError("division by a nonconstant term is not a polynomial")
        return {m: c / b.get((), _ZERO) for m, c in a.items()}
    raise ValueError(f"not a polynomial: {node!r}")


def _quadratic(expr, n: int):
    """(H, b, c0) of an expression of degree at most 2: value c0 + b'x + x'Hx/2."""
    H = [[_ZERO] * n for _ in range(n)]
    b = [_ZERO] * n
    c0 = _ZERO
    for m, c in _poly(expr.root).items():
        if len(m) == 0:
            c0 = c
        elif len(m) == 1:
            b[m[0]] = c
        elif len(m) == 2:
            i, j = m
            H[i][j] += c if i != j else 2 * c
            if i != j:
                H[j][i] += c
        else:
            raise ValueError("the exact census needs a quadratic f and affine constraints")
    return H, b, c0


# ---------------------------------------------------------------------------
# Exact linear algebra


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form of rows (a copy) and its pivot columns."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        r = len(pivots)
        pick = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                factor = rows[k][col]
                rows[k] = [v - factor * w for v, w in zip(rows[k], rows[r])]
        pivots.append(col)
    return rows, pivots


def _solve(matrix, rhs) -> list[Fraction] | None:
    """The solution of a square system, or None if it is singular."""
    size = len(matrix)
    reduced, pivots = _rref([row + [v] for row, v in zip(matrix, rhs)])
    if pivots != list(range(size)):
        return None
    return [reduced[k][size] for k in range(size)]


def _null_basis(rows, n: int) -> list[list[Fraction]]:
    """An exact basis of the vectors of length n orthogonal to every row."""
    reduced, pivots = _rref(rows)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        v = [_ZERO] * n
        v[free] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(v)
    return basis


def _charpoly(R) -> list[Fraction]:
    """Coefficients c_0..c_d of det(tI - R), by Faddeev-LeVerrier."""
    d = len(R)
    c = [_ZERO] * d + [_ONE]
    M = [[_ZERO] * d for _ in range(d)]
    for k in range(1, d + 1):
        M = [[sum((R[i][q] * M[q][j] for q in range(d)), _ZERO) + (c[d - k + 1] if i == j else _ZERO)
              for j in range(d)] for i in range(d)]
        c[d - k] = -sum((R[i][q] * M[q][i] for i in range(d) for q in range(d)), _ZERO) / k
    return c


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _inertia(R) -> tuple[int, int]:
    """(negative, zero) eigenvalue counts of the symmetric matrix R: zero is
    the multiplicity of the root 0 of its characteristic polynomial, and the
    negative roots are the positive roots of p(-t), which Descartes' rule
    counts exactly when every root is real."""
    c = _charpoly(R)
    zero = next(k for k, v in enumerate(c) if v)
    return _sign_changes([v * (-1) ** k for k, v in enumerate(c)][zero:]), zero


# ---------------------------------------------------------------------------
# The census


def _patterns(n: int, s: int, ng: int):
    """Every (support, active set), 0-based, as oracle._patterns orders them."""
    supports = [J for k in range(s + 1) for J in itertools.combinations(range(n), k)]
    acts = [a for k in range(ng + 1) for a in itertools.combinations(range(ng), k)]
    return itertools.product(supports, acts)


def _value(a, d, x) -> Fraction:
    return sum((ai * xi for ai, xi in zip(a, x)), d)


def _pattern_root(n, H, b, rows, J):
    """The x of a pattern's system, or None if it is singular: x vanishes
    off the support J, each (a, d) of rows (the equalities, then the active
    inequalities) holds with equality, and for i in J, (Hx + b)_i is the sum
    of one multiplier per row times its a_i."""
    size = len(J) + len(rows)
    matrix, rhs = [], []
    for i in J:
        matrix.append([H[i][j] for j in J] + [-a[i] for a, _ in rows])
        rhs.append(-b[i])
    for a, d in rows:
        matrix.append([a[j] for j in J] + [_ZERO] * len(rows))
        rhs.append(-d)
    z = _solve(matrix, rhs) if size else []
    if z is None:
        return None
    x = [_ZERO] * n
    for i, v in zip(J, z):
        x[i] = v
    return tuple(x)


def _m_index(pr, H, b, hs, gs, x) -> tuple[bool, int | None]:
    """(stationary, M-index or None) of a feasible root x, by the definitions."""
    n, s = pr.n, pr.s
    I0 = [i for i in range(n) if x[i] == 0]
    Q0 = [q for q, (a, d) in enumerate(gs) if _value(a, d, x) == 0]
    directions = [a for a, _ in hs] + [gs[q][0] for q in Q0]
    directions += [[_ONE if j == i else _ZERO for j in range(n)] for i in I0]
    grad = [sum((H[i][j] * x[j] for j in range(n)), b[i]) for i in range(n)]
    k = len(directions)
    # the multipliers m of grad = sum_j m_j directions[j]
    reduced, pivots = _rref([[d[i] for d in directions] + [grad[i]] for i in range(n)])
    if k in pivots:  # the system has no solution
        return False, None
    if len(pivots) < k:
        raise ValueError(f"CC-LICQ fails at {x}; the exact census does not decide stationarity there")
    m = [_ZERO] * k
    for r, p in enumerate(pivots):
        m[p] = reduced[r][k]
    mu, gamma = m[len(hs) : len(hs) + len(Q0)], m[len(hs) + len(Q0) :]
    if any(v < 0 for v in mu):
        return False, None
    norm0 = n - len(I0)
    basis = _null_basis(directions, n)
    R = [[sum((u[i] * H[i][j] * v[j] for i in range(n) for j in range(n)), _ZERO) for v in basis] for u in basis]
    negative, zero = _inertia(R) if basis else (0, 0)
    ndm = (True, all(v > 0 for v in mu), norm0 == s or all(gamma), zero == 0)
    return True, negative + s - norm0 if all(ndm) else None


def exact_census(pr) -> ExactCensus:
    """The exact census of the quadratic-affine Problem pr (see the module)."""
    n, s = pr.n, pr.s
    H, b, _ = _quadratic(pr.f, n)
    hs, gs = [], []
    for exprs, out in ((pr.h, hs), (pr.g, gs)):
        for e in exprs:
            Hc, a, d = _quadratic(e, n)
            if any(any(row) for row in Hc):
                raise ValueError("the exact census needs affine constraints")
            out.append((a, d))
    points, seen, singular = [], set(), []
    for J, act in _patterns(n, s, len(gs)):
        x = _pattern_root(n, H, b, hs + [gs[q] for q in act], J)
        if x is None:
            singular.append((tuple(i + 1 for i in J), tuple(q + 1 for q in act)))
            continue
        if x in seen:
            continue
        seen.add(x)
        feasible = (all(_value(a, d, x) == 0 for a, d in hs) and all(_value(a, d, x) >= 0 for a, d in gs)
                    and sum(1 for v in x if v) <= s)
        if not feasible:
            continue
        stationary, index = _m_index(pr, H, b, hs, gs, x)
        if stationary:
            points.append((x, index))
    counts: dict = {}
    for _, index in points:
        counts[index] = counts.get(index, 0) + 1
    by_index = {k: counts[k] for k in sorted(k for k in counts if k is not None)}
    if None in counts:
        by_index["degenerate"] = counts[None]
    return ExactCensus(points, by_index, singular)
