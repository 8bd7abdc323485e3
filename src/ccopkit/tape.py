"""The compiled evaluator behind exprcore.eval2: a tape of post-order
instructions over a folded expression tree (see the exprcore docstring),
built once per Expr and run by one loop.

A slot's kind is the variable index k it depends on, None for a constant,
or _DENSE for several variables.  A scalar slot (k or None) holds floats
(value, d/dx_k, d^2/dx_k^2).  A dense slot holds (value, gradient, Hessian)
arrays that it owns: every rule either allocates them or updates its
operands' arrays in place, and each slot is read by one instruction.  Each
rule repeats the operation order of its case of the test reference _jet.
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

from .exprcore import BinOp, ExprDomainError, Neg, Node, Num, Pow, Var, _children, _Quadratic, to_source

_DENSE = -1


class Tape:
    """The post-order instructions of one folded tree.  Each instruction is
    a rule with its slots bound, called as op(slots, x)."""

    def __init__(self, root: Node, n: int):
        self.n = n
        self.init: list = []  # slot values before the first instruction
        self.ops: list = []
        slot, kind = self._emit(root)
        if kind != _DENSE:
            self._op(_promote, slot, kind, n)

    def run(self, x: np.ndarray):
        """(value, gradient, Hessian) at x; the arrays are fresh."""
        s = self.init.copy()
        for op in self.ops:
            op(s, x)
        return s[-1]  # the root's slot, dense, written by the last instruction

    def _slot(self, value=None) -> int:
        self.init.append(value)
        return len(self.init) - 1

    def _op(self, rule, *args) -> int:
        out = self._slot()
        self.ops.append(partial(rule, out, *args))
        return out

    def _emit(self, node: Node) -> tuple[int, int | None]:
        """Slot and kind of `node`, after the instructions computing it."""
        if isinstance(node, Num):
            return self._slot((node.value, 0.0, 0.0)), None
        if isinstance(node, Var):
            return self._op(_load_var, node.index - 1), node.index - 1
        if isinstance(node, _Quadratic):
            return self._leaf(node)
        args = []  # a loop, not a comprehension: one frame per tree level
        for child in _children(node):
            args.append(self._emit(child))
        if isinstance(node, BinOp):
            return self._binop(node, *args[0], *args[1])
        ((a, k),) = args
        if isinstance(node, Pow) and node.exponent == 0:
            return self._slot((1.0, 0.0, 0.0)), None  # after the base, which may raise
        if isinstance(node, Neg):
            return self._op(_dense_neg if k == _DENSE else _scalar_neg, a), k
        coeffs = _power if isinstance(node, Pow) else _CALLS[node.func]
        return self._op(_dense_chain if k == _DENSE else _scalar_chain, a, coeffs, node), k

    def _leaf(self, leaf: _Quadratic) -> tuple[int, int | None]:
        nonzero = leaf.A != 0.0
        deps = np.flatnonzero((leaf.b != 0.0) | nonzero.any(axis=0) | nonzero.any(axis=1))
        if deps.size == 0:  # c0 + b.x + x.(A x)/2 with b = 0 and A = 0, e.g. x1 - x1
            return self._slot((leaf.c0 + 0.0, 0.0, 0.0)), None
        if deps.size == 1:
            k = int(deps[0])
            return self._op(_load_quadratic1, k, leaf.c0, float(leaf.b[k]), float(leaf.A[k, k])), k
        return self._op(_load_quadratic, leaf), _DENSE

    def _binop(self, node: BinOp, a: int, ka, b: int, kb) -> tuple[int, int | None]:
        op = node.op
        if ka != _DENSE and kb != _DENSE and (ka is None or kb is None or ka == kb):
            k = kb if ka is None else ka
            if op in "+-":
                return self._op(_scalar_pm, a, b, _PM[op]), k
            return self._op(_scalar_mul if op == "*" else _scalar_div, a, b, node), k
        if op == "*" and ka != _DENSE and kb != _DENSE:
            return self._op(_cross_mul, a, ka, b, kb, self.n), _DENSE
        if op in "+-":
            if kb != _DENSE:  # dense +- scalar, or scalars over two variables
                if ka != _DENSE:
                    a = self._op(_promote, a, ka, self.n)
                return self._op(_scatter, a, b, kb, _IPM[op]), _DENSE
            if ka != _DENSE:  # scalar +- dense = (+-dense) + scalar
                if op == "-":
                    b = self._op(_dense_neg, b)
                return self._op(_scatter, b, a, ka, operator.iadd), _DENSE
            return self._op(_dense_pm, a, b, _IPM[op]), _DENSE
        if ka != _DENSE:
            a = self._op(_promote, a, ka, self.n)
        if kb != _DENSE:
            b = self._op(_promote, b, kb, self.n)
        return self._op(_dense_mul if op == "*" else _dense_div, a, b, node), _DENSE


_PM = {"+": operator.add, "-": operator.sub}
_IPM = {"+": operator.iadd, "-": operator.isub}  # in place on arrays


# Loads


def _load_var(out, k, s, x):
    s[out] = (x.item(k), 1.0, 0.0)


def _load_quadratic1(out, k, c0, bk, akk, s, x):
    xk = x.item(k)
    ax = akk * xk + 0.0  # + 0.0: a dot product turns -0.0 into 0.0
    s[out] = (c0 + (bk * xk + 0.0) + 0.5 * (xk * ax + 0.0), bk + ax, akk)


def _load_quadratic(out, leaf, s, x):
    Ax = leaf.A.dot(x)  # the BLAS call of leaf.A @ x, with less overhead
    s[out] = (leaf.c0 + leaf.b.dot(x) + 0.5 * x.dot(Ax), leaf.b + Ax, leaf.A.copy())


def _promote(out, a, k, n, s, x):
    """A scalar slot as a dense one."""
    v, d, h = s[a]
    g = np.zeros(n)
    H = np.zeros((n, n))
    if k is not None:
        g[k] = d
        H[k, k] = h
    s[out] = (v, g, H)


# Rules on scalar slots


def _scalar_pm(out, a, b, op, s, x):
    va, da, ha = s[a]
    vb, db, hb = s[b]
    s[out] = (op(va, vb), op(da, db), op(ha, hb))


def _scalar_mul(out, a, b, node, s, x):
    va, da, ha = s[a]
    vb, db, hb = s[b]
    s[out] = (va * vb, va * db + vb * da, va * hb + vb * ha + da * db + db * da)


def _scalar_div(out, a, b, node, s, x):
    va, da, ha = s[a]
    vb, db, hb = s[b]
    if vb == 0.0:
        raise ExprDomainError("division by zero", to_source(node))
    v = va / vb
    d = (da - v * db) / vb
    s[out] = (v, d, (ha - v * hb - d * db - db * d) / vb)


def _scalar_neg(out, a, s, x):
    v, d, h = s[a]
    s[out] = (-v, -d, -h)


def _scalar_chain(out, a, coeffs, node, s, x):
    v, d, h = s[a]
    d0, d1, d2 = coeffs(v, node)
    s[out] = (d0, d1 * d, d1 * h + d2 * (d * d))


# Rules with a dense result


def _scatter(out, a, b, k, iop, s, x):
    """Dense slot a plus or minus scalar slot b over x_k (k None: a constant)."""
    va, g, H = s[a]
    vb, db, hb = s[b]
    if k is not None:
        g[k] = iop(g[k], db)
        H[k, k] = iop(H[k, k], hb)
    s[out] = (iop(va, vb), g, H)


def _cross_mul(out, a, i, b, j, n, s, x):
    """Product of scalar slots over two variables x_i and x_j."""
    va, da, ha = s[a]
    vb, db, hb = s[b]
    g = np.zeros(n)
    H = np.zeros((n, n))
    g[i] = vb * da
    g[j] = va * db
    H[i, i] = vb * ha
    H[j, j] = va * hb
    H[i, j] = H[j, i] = da * db
    s[out] = (va * vb, g, H)


def _dense_pm(out, a, b, iop, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    s[out] = (iop(va, vb), iop(ga, gb), iop(ha, hb))


def _dense_mul(out, a, b, node, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    outer = np.outer(ga, gb)  # np.outer(gb, ga) is its transpose
    hb *= va
    ha *= vb
    hb += ha
    hb += outer
    hb += outer.T
    gb *= va
    ga *= vb
    gb += ga
    s[out] = (va * vb, gb, hb)


def _dense_div(out, a, b, node, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    if vb == 0.0:
        raise ExprDomainError("division by zero", to_source(node))
    v = va / vb
    ga -= v * gb
    ga /= vb
    hb *= v
    ha -= hb
    outer = np.outer(ga, gb)
    ha -= outer
    ha -= outer.T
    ha /= vb
    s[out] = (v, ga, ha)


def _dense_neg(out, a, s, x):
    v, g, H = s[a]
    np.negative(g, out=g)
    np.negative(H, out=H)
    s[out] = (-v, g, H)


def _dense_chain(out, a, coeffs, node, s, x):
    v, g, H = s[a]
    d0, d1, d2 = coeffs(v, node)
    outer = np.outer(g, g)
    outer *= d2
    H *= d1
    H += outer
    g *= d1
    s[out] = (d0, g, H)


# Outer functions: value, first and second derivative at the argument's
# value v.  Powers and 1/v^2 are taken on numpy scalars, which overflow and
# divide by zero as IEEE arithmetic does, where Python floats raise.


def _power(v, node):
    k = node.exponent
    if k < 0 and v == 0.0:
        raise ExprDomainError("zero raised to a negative power", to_source(node))
    u = np.float64(v)
    # k == 1 would hit u^(-1) at u = 0 despite the zero prefactor
    d2 = 0.0 if k == 1 else float(k * (k - 1) * u ** (k - 2))
    return float(u**k), float(k * u ** (k - 1)), d2


def _sin(v, node):
    sv = float(np.sin(v))
    return sv, float(np.cos(v)), -sv


def _cos(v, node):
    cv = float(np.cos(v))
    return cv, -float(np.sin(v)), -cv


def _exp(v, node):
    ev = float(np.exp(v))
    return ev, ev, ev


def _log(v, node):
    if v <= 0.0:
        raise ExprDomainError("log of a nonpositive value", to_source(node))
    u = np.float64(v)
    return float(np.log(u)), float(1.0 / u), float(-1.0 / (u * u))


_CALLS = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log}
