"""Expression parsing and exact differentiation for functions of x1..xn.

Grammar (whitespace insignificant, numbers are decimal with optional
fraction and exponent):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | ident | '(' expr ')' | '-' base | func '(' expr ')'
    func   := 'sin' | 'cos' | 'exp' | 'log'
    ident  := 'x' positive-integer

Exponents must be integer literals; fractional powers are rejected at parse
time so expressions stay twice continuously differentiable away from the
singular points of log, division and negative powers.

Values, gradients and Hessians are propagated exactly through the tree
(second-order forward mode).  No finite differences here: the rank tests and
inertia counts downstream are tolerance sensitive and cannot absorb
derivative noise.  Finite differences appear only in the test oracles.

Each Expr is compiled once, on its first eval2, and keeps the result.
First, every maximal subtree of structural degree at most 2 (other than a
bare number or variable) is folded into one leaf holding its value c0,
gradient b and Hessian A at the origin, read off by running the subtree's
own tape there.  Then the folded tree is flattened into a tape (module
tape): a post-order list of instructions run by one loop.  Each slot of the
tape records, at compile time, the variables it depends on.  A slot over at
most one variable x_k (a number, a variable, a leaf over x_k, or e.g.
0.3*sin(x4) and log(1 + x2^2)) holds three floats, the value and the first
and second derivative in x_k.  Only a slot over several variables holds a
gradient vector and a Hessian matrix, into which a one-variable slot is
added at entry k where the two meet.  A leaf is evaluated as
c0 + b.x + x.(A x)/2, b + A x and A, so a quadratic expression costs two
matrix-vector products.  The tape applies the rules of a node-by-node walk
of the unfolded tree in the same order, so a float slot holds the floats
those rules compute at its variable's entries.  That walk, _jet in
tests/test_exprcore.py, is the reference the tape is tested against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Jet2",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
    "eval2",
    "to_source",
    "polynomial_degree",
]

_FUNCS = ("sin", "cos", "exp", "log")

# Nesting limits of parse().  The parser holds one frame per open unary
# minus, four per open parenthesis and five per open function call;
# _compile, Tape._emit, to_source and polynomial_degree recurse once per
# tree level.  Both limits keep parsing and every tree walk below Python's default
# recursion limit of 1000 frames with room for about 100 of the caller's.  to_source
# nests one parenthesis per term of a sum, so printed sums of up to about
# _MAX_PARSE_FRAMES // 4 terms parse back.
_MAX_PARSE_FRAMES = 880
_MAX_DEPTH = 800  # tree levels; a sum of k terms is k levels deep


class ExprSyntaxError(ValueError):
    """Source string violates the grammar; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ArithmeticError):
    """Evaluation hit log of a nonpositive value or a division by zero."""

    def __init__(self, message: str, subterm: str):
        super().__init__(f"{message} in subterm '{subterm}'")
        self.subterm = subterm


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # one of _FUNCS
    arg: "Node"


@dataclass(frozen=True, eq=False)
class _Quadratic:
    """A folded subtree of degree at most 2: value c0, gradient b and Hessian
    A at the origin, and the subtree itself for printing."""

    c0: float
    b: np.ndarray
    A: np.ndarray
    source: "Node"


Node = Union[Num, Var, Neg, BinOp, Pow, Call, _Quadratic]


@dataclass(frozen=True)
class Expr:
    """Parsed expression together with the ambient dimension n."""

    root: Node
    n: int

    @cached_property
    def _folded(self) -> Node:
        """root with its quadratic subtrees folded (see _compile); computed on
        first use and kept in the instance, not in a field, so equality, hash
        and repr see root and n only."""
        return _fold(*_compile(self.root, self.n), self.n)

    @cached_property
    def _tape(self):
        """The compiled evaluator of _folded, kept in the instance likewise.
        Its module is imported on first use: without bytecode caching every
        import compiles the source, and parsing alone does not need it."""
        from .tape import Tape

        return Tape(self._folded, self.n)


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient and Hessian of an expression at one point.

    The Hessian is exactly symmetric unless a product has two factors over
    several variables each, or a quotient a denominator over several
    variables: that rule adds its two transposed outer products one at a
    time, so entries (i, j) and (j, i) are (S + p) + q and (S + q) + p.
    Every other rule keeps symmetry bit for bit."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NUM_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_INT_RE = re.compile(r"\d+")


class _Parser:
    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.pos = 0
        self.frames = 0  # parser frames held by the groups open at self.pos

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self) -> Node:
        node, _ = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ExprSyntaxError("unexpected trailing input", self.pos)
        return node

    # The parsing methods return (node, depth of the node's tree).

    def _level(self, depth: int) -> int:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree deeper than {_MAX_DEPTH} levels", self.pos)
        return depth

    def expr(self) -> tuple[Node, int]:
        node, depth = self.term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            right, rdepth = self.term()
            node, depth = BinOp(op, node, right), self._level(max(depth, rdepth) + 1)
        return node, depth

    def term(self) -> tuple[Node, int]:
        node, depth = self.factor()
        while self._peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            right, rdepth = self.factor()
            node, depth = BinOp(op, node, right), self._level(max(depth, rdepth) + 1)
        return node, depth

    def factor(self) -> tuple[Node, int]:
        node, depth = self.base()
        if self._peek() == "^":
            self.pos += 1
            node, depth = Pow(node, self._integer()), self._level(depth + 1)
        return node, depth

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        sign = 1
        if self._peek() == "-":
            sign = -1
            self.pos += 1
            self._skip_ws()
        m = _INT_RE.match(self.src, self.pos)
        if not m:
            raise ExprSyntaxError("exponent must be an integer literal", start)
        end = m.end()
        # reject 2.5 or 1e3 style exponents outright
        if end < len(self.src) and self.src[end] in ".eE":
            tail = _NUM_RE.match(self.src, self.pos)
            if tail and tail.end() > end:
                raise ExprSyntaxError("exponent must be an integer literal", start)
        self.pos = end
        return sign * int(m.group())

    def _open_group(self, frames: int):
        self.frames += frames
        if self.frames > _MAX_PARSE_FRAMES:
            raise ExprSyntaxError("expression nested too deeply", self.pos)

    def base(self) -> tuple[Node, int]:
        ch = self._peek()
        if ch == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        if ch == "(":
            self._open_group(4)
            self.pos += 1
            node, depth = self.expr()
            self._expect(")")
            self.frames -= 4
            return node, depth
        if ch == "-":
            self._open_group(1)
            self.pos += 1
            node, depth = self.base()
            self.frames -= 1
            return Neg(node), self._level(depth + 1)
        m = _NUM_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group())), 1
        m = _NAME_RE.match(self.src, self.pos)
        if m:
            return self._name(m.group(), m.start())
        raise ExprSyntaxError(f"unexpected character '{ch}'", self.pos)

    def _name(self, name: str, start: int) -> tuple[Node, int]:
        if name in _FUNCS:
            self.pos = start + len(name)
            self._expect("(")
            self._open_group(5)
            node, depth = self.expr()
            self._expect(")")
            self.frames -= 5
            return Call(name, node), self._level(depth + 1)
        m = re.fullmatch(r"x(\d+)", name)
        if m is None:
            raise ExprSyntaxError(f"unknown identifier '{name}'", start)
        index = int(m.group(1))
        if not 1 <= index <= self.n:
            raise ExprSyntaxError(
                f"variable x{index} out of range for n={self.n}", start
            )
        self.pos = start + len(name)
        return Var(index), 1


def parse(source: str, n: int) -> Expr:
    """Parse `source` into an expression over x1..xn.

    Nesting that would hold more than _MAX_PARSE_FRAMES parser frames (more
    than 220 parentheses or 176 function calls), or a tree deeper than
    _MAX_DEPTH levels (such as a sum of more than _MAX_DEPTH terms), is
    rejected with ExprSyntaxError.
    """
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return Expr(_Parser(source, n).parse(), n)


# ---------------------------------------------------------------------------
# Printing (fully parenthesized; parse(to_source(parse(s))) == parse(s) while
# the parenthesized form stays within _MAX_PARSE_FRAMES)


def to_source(node: Node | Expr) -> str:
    if isinstance(node, Expr):
        node = node.root
    if isinstance(node, Num):
        r = repr(node.value)
        return f"({r})" if node.value < 0 else r
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Neg):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Pow):
        return f"{to_source(node.base)}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, _Quadratic):
        return to_source(node.source)
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Exact second-order evaluation


def eval2(expr: Expr, x) -> Jet2:
    """Evaluate value, gradient and Hessian of `expr` at the point `x`.

    Runs the expression's tape (see the module docstring), compiling it on
    the first call.  The jets are exact for polynomial input up to rounding:
    a folded quadratic is evaluated from its coefficients at the origin, so
    its value and gradient may differ from the node-by-node walk in the last
    bits, while its Hessian is the constant A.  Raises ExprDomainError on log
    of a nonpositive argument, division by zero, or 0 raised to a negative
    power, naming the subterm as written in the source.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (expr.n,):
        raise ValueError(f"point has shape {xv.shape}, expected ({expr.n},)")
    v, g, h = expr._tape.run(xv)
    g.flags.writeable = False  # fresh arrays, owned by this jet
    h.flags.writeable = False
    return Jet2(float(v), g, h)


# ---------------------------------------------------------------------------
# Structural degree analysis (no simplification: x1^3 - x1^3 has degree 3)
# and compilation


def _children(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _degree(node: Node, child_degrees: tuple) -> int | None:
    """Total degree of `node` from its children's degrees (None: not a
    polynomial).  The one degree rule of polynomial_degree and _compile."""
    if isinstance(node, Num):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Call) or None in child_degrees:
        return None
    if isinstance(node, Neg):
        return child_degrees[0]
    if isinstance(node, BinOp):
        da, db = child_degrees
        if node.op in "+-":
            return max(da, db)
        if node.op == "*":
            return da + db
        return da if db == 0 else None  # division only by a constant subtree
    if isinstance(node, Pow):
        d = child_degrees[0]
        if node.exponent < 0:
            return 0 if d == 0 else None
        return d * node.exponent
    raise TypeError(f"not an AST node: {node!r}")


def polynomial_degree(node: Node | Expr) -> int | None:
    """Total degree of a polynomial AST, or None if not polynomial."""
    if isinstance(node, Expr):
        node = node.root
    degrees = ()
    for child in _children(node):
        degrees += (polynomial_degree(child),)
    return _degree(node, degrees)


def _compile(node: Node, n: int) -> tuple[Node, int | None]:
    """One post-order walk: `node` with every maximal quadratic subtree below
    it folded, and the degree of `node`.  A subtree of degree at most 2 is
    returned as it is, to be folded whole by the first ancestor of higher or
    no degree, or by Expr._folded at the root."""
    compiled, degrees = (), ()
    for child in _children(node):
        c, d = _compile(child, n)
        compiled += (c,)
        degrees += (d,)
    degree = _degree(node, degrees)
    if not compiled or (degree is not None and degree <= 2):
        return node, degree
    folded = ()
    for c, d in zip(compiled, degrees):
        folded += (_fold(c, d, n),)
    if isinstance(node, Neg):
        return Neg(*folded), degree
    if isinstance(node, BinOp):
        return BinOp(node.op, *folded), degree
    if isinstance(node, Pow):
        return Pow(*folded, node.exponent), degree
    return Call(node.func, *folded), degree


def _fold(node: Node, degree: int | None, n: int) -> Node:
    """The leaf of a subtree of degree at most 2, or the subtree itself when
    it is a bare number or variable, of higher or no degree, or without a
    finite jet at the origin (e.g. x1/(2-2), which then raises as before)."""
    if degree is None or degree > 2 or isinstance(node, (Num, Var)):
        return node
    from .tape import Tape  # see Expr._tape

    try:
        c0, b, A = Tape(node, n).run(np.zeros(n))
    except ExprDomainError:
        return node
    if not (np.isfinite(c0) and np.isfinite(b).all() and np.isfinite(A).all()):
        return node
    b.flags.writeable = A.flags.writeable = False  # shared by every run of the tape
    return _Quadratic(float(c0), b, A, node)
