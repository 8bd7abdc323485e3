"""Shared fixtures, independent oracles and random instance generators.

Finite differences here work on expression *values* only, so they are an
oracle independent of the exact-derivative path they validate.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ccopkit import Problem, eval2, make_regularized, parse


def make_problem(n, s, f_src, h=(), g=()):
    return Problem(
        n, s, parse(f_src, n), tuple(parse(e, n) for e in h), tuple(parse(e, n) for e in g)
    )


def well_e1():
    """Minimum at (1,0); the origin is stationary with a vanishing multiplier."""
    return make_problem(2, 1, "(x1-1)^2 + x2^2")


def well_ones():
    """Three stationary points (1,0), (0,1), (0,0) with indices 0, 0, 1."""
    return make_problem(2, 1, "(x1-1)^2 + (x2-1)^2")


def well_ones_reg(c=(0.3, 0.7), eps=0.5, override=False):
    return make_regularized(well_ones(), c, eps, override=override)


# ---------------------------------------------------------------------------
# Finite-difference oracles (values only)


def fd_gradient(expr, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        out[i] = (eval2(expr, x + step).value - eval2(expr, x - step).value) / (2 * h)
    return out


def fd_hessian(expr, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (
                eval2(expr, x + ei + ej).value
                - eval2(expr, x + ei - ej).value
                - eval2(expr, x - ei + ej).value
                + eval2(expr, x - ei - ej).value
            ) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


# ---------------------------------------------------------------------------
# Random generators


def random_polynomial_source(rng, n, max_degree=4, max_terms=6) -> str:
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        coef = float(rng.uniform(-2.0, 2.0))
        factors = [f"({coef!r})"]
        degree = int(rng.integers(0, max_degree + 1))
        for _ in range(degree):
            factors.append(f"x{int(rng.integers(1, n + 1))}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def random_quadratic_source(rng, n) -> str:
    """Quadratic with diagonal terms bounded away from zero, random signs."""
    terms = []
    for i in range(1, n + 1):
        diag = float(rng.uniform(0.8, 2.0)) * (1.0 if rng.uniform() < 0.7 else -1.0)
        terms.append(f"({diag!r})*x{i}*x{i}")
        lin = float(rng.uniform(-2.0, 2.0))
        terms.append(f"({lin!r})*x{i}")
        for j in range(i + 1, n + 1):
            off = float(rng.uniform(-0.4, 0.4))
            terms.append(f"({off!r})*x{i}*x{j}")
    return " + ".join(terms)


def affine_source(a, d) -> str:
    parts = [f"({float(v)!r})*x{i + 1}" for i, v in enumerate(a)]
    parts.append(f"({float(d)!r})")
    return " + ".join(parts)


def random_sparse_point(rng, n, max_support):
    """Point with a random support of size <= max_support, entries away from 0."""
    k = int(rng.integers(0, max_support + 1))
    x = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x[support] = rng.uniform(0.5, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    return x


def random_c(rng, n):
    """Positive components with pairwise gaps far above tol_strict."""
    base = np.linspace(0.1, 0.9, n)
    return rng.permutation(base + rng.uniform(0.0, 0.4 / max(n, 2), size=n))


def random_instance_with_feasible_pair(rng, n_max=6):
    """Instance plus a feasible lifted point, for constraint-qualification tests.

    Constraints are built through a known sparse point so feasibility is
    guaranteed; y is drawn from several styles (structured, random interior,
    boundary-heavy) to exercise every activity pattern.
    """
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(0, n))
    x = random_sparse_point(rng, n, s)
    h_srcs = []
    for _ in range(int(rng.integers(0, 3))):
        a = rng.uniform(-1.5, 1.5, size=n)
        h_srcs.append(affine_source(a, -float(a @ x)))
    g_srcs = []
    for _ in range(int(rng.integers(0, 3))):
        b = rng.uniform(-1.5, 1.5, size=n)
        slack = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.1, 1.0))
        g_srcs.append(affine_source(b, -float(b @ x) + slack))
    pr = make_problem(n, s, random_quadratic_source(rng, n), h_srcs, g_srcs)
    eps = float(rng.uniform(0.3, 1.0)) / (n - s)
    rp = make_regularized(pr, random_c(rng, n), eps)

    zero = [i for i in range(n) if x[i] == 0.0]
    y = np.zeros(n)
    style = rng.integers(0, 3)
    if style == 0:
        # structured: n-s-1 at the upper bound, one mid component
        chosen = rng.permutation(zero)[: n - s]
        for i in chosen[:-1]:
            y[i] = 1.0 + eps
        y[chosen[-1]] = 1.0 - (n - s - 1) * eps
    elif style == 1:
        draw = rng.uniform(0.0, 1.0 + eps, size=len(zero))
        deficit = (n - s) - draw.sum()
        if deficit > 0:
            draw = np.clip(draw + deficit / len(zero) + 1e-3, 0.0, 1.0 + eps)
        y[zero] = draw
    else:
        take = max(n - s, int(rng.integers(n - s, len(zero) + 1)))
        for i in rng.permutation(zero)[:take]:
            y[i] = 1.0 + eps
    return rp, x, y


def random_quadratic_instance(rng, n_max=8):
    """Quadratic-affine instance for census and round-trip batteries."""
    n = int(rng.integers(2, n_max + 1))
    s = int(rng.integers(0, n))
    style = rng.uniform()
    h_srcs, g_srcs = [], []
    if style > 0.85:
        a = rng.uniform(-1.0, 1.0, size=n)
        h_srcs.append(affine_source(a, float(rng.uniform(-0.5, 0.5))))
    elif style > 0.6:
        b = rng.uniform(-1.0, 1.0, size=n)
        g_srcs.append(affine_source(b, float(rng.uniform(0.2, 1.0))))
    pr = make_problem(n, s, random_quadratic_source(rng, n), h_srcs, g_srcs)
    eps = float(rng.uniform(0.3, 1.0)) / (n - s)
    return make_regularized(pr, random_c(rng, n), eps)


def x_and_t_index(census) -> Counter:
    """The multiset of (x bits, T-index) of a T census's points."""
    points = census.t_points
    return Counter(zip((x.tobytes() for x in points.x), points.index))
