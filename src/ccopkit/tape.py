"""The compiled evaluator behind exprcore.eval2: a tape of post-order
instructions over a folded expression tree (see the exprcore docstring),
built once per Expr and run by one loop.

A slot's kind is the variable index k it depends on, None for a constant,
or _DENSE for several variables.  A scalar slot (k or None) holds floats
(value, d/dx_k, d^2/dx_k^2).  A dense slot holds (value, gradient, Hessian)
arrays that it owns: every rule either allocates them or updates its
operands' arrays in place, and each slot is read by one instruction.  Each
rule repeats the operation order of its case of the test reference _jet.

A tape runs at one point x of shape (n,) or at the rows of a batch (K, n).
In a batch every slot gains a leading axis: a scalar slot holds arrays of
shape (K,) (a constant stays a float), a dense slot values (K,), gradients
(K, n) and Hessians (K, n, n), and a per-row factor meets a gradient or a
Hessian through _rows.  Row k of a batch equals the run at x[k] bit for
bit: every rule applies the same IEEE operations element by element, and
the products a leaf needs are taken in stacked forms that call the BLAS
routine of the one-point product (A x and b.x as stacked matmul, not
X @ A.T).  The one exception is the power: numpy's array power differs
from the power of a numpy scalar in the last bit on some elements, so
_power applies its scalar rule to each element of a batch.  (A NaN may
differ in its sign bit.)  A rule's domain check raises if any row fails it.
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
        """(value, gradient, Hessian) at x (n,), or stacked over the rows of
        x (K, n); the arrays are fresh, the value of a constant a float."""
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
                return self._op(_scalar_pm, a, b, _PM[op][0]), k
            return self._op(_scalar_mul if op == "*" else _scalar_div, a, b, node), k
        if op == "*" and ka != _DENSE and kb != _DENSE:
            return self._op(_cross_mul, a, ka, b, kb, self.n), _DENSE
        if op in "+-":
            if kb != _DENSE:  # dense +- scalar, or scalars over two variables
                if ka != _DENSE:
                    a = self._op(_promote, a, ka, self.n)
                return self._op(_scatter, a, b, kb, _PM[op][0]), _DENSE
            if ka != _DENSE:  # scalar +- dense = (+-dense) + scalar
                if op == "-":
                    b = self._op(_dense_neg, b)
                return self._op(_scatter, b, a, ka, operator.add), _DENSE
            return self._op(_dense_pm, a, b, *_PM[op]), _DENSE
        if ka != _DENSE:
            a = self._op(_promote, a, ka, self.n)
        if kb != _DENSE:
            b = self._op(_promote, b, kb, self.n)
        return self._op(_dense_mul if op == "*" else _dense_div, a, b, node), _DENSE


# the operator, and its in-place form for arrays a rule owns; values are
# never updated in place, since a batch's value may be a view of x
_PM = {"+": (operator.add, operator.iadd), "-": (operator.sub, operator.isub)}


def _rows(v, axes: int):
    """v against an array with `axes` more trailing axes: v itself for one
    point or a constant, one entry per row of a batch otherwise."""
    return v.reshape(v.shape + (1,) * axes) if isinstance(v, np.ndarray) else v


def _outer(ga, gb):
    """np.outer(ga, gb) of each row."""
    return ga[..., :, None] * gb[..., None, :]


def _hit(mask) -> bool:
    """A domain check: its result at one point, any row's in a batch."""
    return mask if type(mask) is bool else bool(mask.any())


def _float(a):
    """A numpy result: a float at one point, the array in a batch."""
    return float(a) if a.ndim == 0 else a


# Loads.  In a batch, rules address one coordinate or entry through x.T, g.T
# and H.T: with the batch axis moved last, x.T[k], g.T[k] and H.T[i, j] are
# the columns of x_k, g[k] and H[j, i] over the rows (every such write sets
# H[i, j] and H[j, i] alike).


def _load_var(out, k, s, x):
    s[out] = (x.item(k) if x.ndim == 1 else x.T[k], 1.0, 0.0)


def _load_quadratic1(out, k, c0, bk, akk, s, x):
    xk = x.item(k) if x.ndim == 1 else x.T[k]
    ax = akk * xk + 0.0  # + 0.0: a dot product turns -0.0 into 0.0
    s[out] = (c0 + (bk * xk + 0.0) + 0.5 * (xk * ax + 0.0), bk + ax, akk)


def _load_quadratic(out, leaf, s, x):
    if x.ndim == 1:
        Ax = leaf.A.dot(x)  # the BLAS call of leaf.A @ x, with less overhead
        s[out] = (leaf.c0 + leaf.b.dot(x) + 0.5 * x.dot(Ax), leaf.b + Ax, leaf.A.copy())
        return
    # stacked matrix-vector and vector-vector products: gemv and ddot per row
    Ax = np.matmul(leaf.A, x[..., None])[..., 0]
    bx = np.matmul(x[..., None, :], leaf.b[:, None])[..., 0, 0]
    xAx = np.matmul(x[..., None, :], Ax[..., None])[..., 0, 0]
    H = np.empty(x.shape + x.shape[-1:])
    H[...] = leaf.A
    s[out] = (leaf.c0 + bx + 0.5 * xAx, leaf.b + Ax, H)


def _promote(out, a, k, n, s, x):
    """A scalar slot as a dense one."""
    v, d, h = s[a]
    g = np.zeros(x.shape)  # x holds n entries per point
    H = np.zeros(x.shape + (n,))
    if k is not None:
        gk, Hk = (g, H) if x.ndim == 1 else (g.T, H.T)
        gk[k] = d
        Hk[k, k] = h
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
    if _hit(vb == 0.0):
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


def _scatter(out, a, b, k, op, s, x):
    """Dense slot a plus or minus scalar slot b over x_k (k None: a constant)."""
    va, g, H = s[a]
    vb, db, hb = s[b]
    if k is not None:
        gk, Hk = (g, H) if x.ndim == 1 else (g.T, H.T)
        gk[k] = op(gk[k], db)
        Hk[k, k] = op(Hk[k, k], hb)
    s[out] = (op(va, vb), g, H)


def _cross_mul(out, a, i, b, j, n, s, x):
    """Product of scalar slots over two variables x_i and x_j."""
    va, da, ha = s[a]
    vb, db, hb = s[b]
    g = np.zeros(x.shape)
    H = np.zeros(x.shape + (n,))
    gk, Hk = (g, H) if x.ndim == 1 else (g.T, H.T)
    gk[i] = vb * da
    gk[j] = va * db
    Hk[i, i] = vb * ha
    Hk[j, j] = va * hb
    Hk[i, j] = Hk[j, i] = da * db
    s[out] = (va * vb, g, H)


def _dense_pm(out, a, b, op, iop, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    s[out] = (op(va, vb), iop(ga, gb), iop(ha, hb))


def _dense_mul(out, a, b, node, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    outer = _outer(ga, gb)  # _outer(gb, ga) is its transpose
    hb *= _rows(va, 2)
    ha *= _rows(vb, 2)
    hb += ha
    hb += outer
    hb += outer.swapaxes(-1, -2)
    gb *= _rows(va, 1)
    ga *= _rows(vb, 1)
    gb += ga
    s[out] = (va * vb, gb, hb)


def _dense_div(out, a, b, node, s, x):
    va, ga, ha = s[a]
    vb, gb, hb = s[b]
    if _hit(vb == 0.0):
        raise ExprDomainError("division by zero", to_source(node))
    v = va / vb
    ga -= _rows(v, 1) * gb
    ga /= _rows(vb, 1)
    hb *= _rows(v, 2)
    ha -= hb
    outer = _outer(ga, gb)
    ha -= outer
    ha -= outer.swapaxes(-1, -2)
    ha /= _rows(vb, 2)
    s[out] = (v, ga, ha)


def _dense_neg(out, a, s, x):
    v, g, H = s[a]
    np.negative(g, out=g)
    np.negative(H, out=H)
    s[out] = (-v, g, H)


def _dense_chain(out, a, coeffs, node, s, x):
    v, g, H = s[a]
    d0, d1, d2 = coeffs(v, node)
    outer = _outer(g, g)
    outer *= _rows(d2, 2)
    H *= _rows(d1, 2)
    H += outer
    g *= _rows(d1, 1)
    s[out] = (d0, g, H)


# Outer functions: value, first and second derivative at the argument's
# value v, a float or the array of a batch's rows.  Powers and 1/v^2 are
# taken on numpy scalars, which overflow and divide by zero as IEEE
# arithmetic does, where Python floats raise.


def _power(v, node):
    if isinstance(v, np.ndarray):  # per element: array power differs in the last bit
        d0, d1, d2 = np.array([_power(u, node) for u in v.tolist()]).reshape(-1, 3).T
        return d0, d1, d2
    k = node.exponent
    if k < 0 and v == 0.0:
        raise ExprDomainError("zero raised to a negative power", to_source(node))
    u = np.float64(v)
    # k == 1 would hit u^(-1) at u = 0 despite the zero prefactor
    d2 = 0.0 if k == 1 else float(k * (k - 1) * u ** (k - 2))
    return float(u**k), float(k * u ** (k - 1)), d2


def _sin(v, node):
    sv = _float(np.sin(v))
    return sv, _float(np.cos(v)), -sv


def _cos(v, node):
    cv = _float(np.cos(v))
    return cv, -_float(np.sin(v)), -cv


def _exp(v, node):
    ev = _float(np.exp(v))
    return ev, ev, ev


def _log(v, node):
    if _hit(v <= 0.0):
        raise ExprDomainError("log of a nonpositive value", to_source(node))
    u = np.float64(v)
    return _float(np.log(u)), _float(1.0 / u), _float(-1.0 / (u * u))


_CALLS = {"sin": _sin, "cos": _cos, "exp": _exp, "log": _log}
