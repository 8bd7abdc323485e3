"""Property: on a fixed quadratic instance, the T census's counts by index
and its multiset of (x bits, T-index) are the same for every (c, eps) that
meets the parameter assumption; only the ys and ibar may move."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ccopkit import census_t_quadratic, make_regularized  # noqa: E402

from helpers import random_quadratic_instance, x_and_t_index  # noqa: E402

# n=6 draws of random_quadratic_instance: s=2 with one inequality, and s=3
# with one equality
SEEDS = (18, 7)


@functools.lru_cache(maxsize=None)
def _instance(seed: int):
    """The draw and what its own regularization's T census reports."""
    rp = random_quadratic_instance(np.random.default_rng(seed), n_max=6)
    census = census_t_quadratic(rp)
    return rp, census.by_index_t, x_and_t_index(census)


@st.composite
def _parameters(draw, n: int, s: int):
    """c positive with pairwise gaps of at least 1e-7 (ten times tol_strict),
    in any order, and 1e-6 <= eps <= 1/(n-s).  Below about tol_act/(n-s),
    eps puts 1+eps and 1-(n-s-1)*eps within tol_act of each other, and the
    census no longer tells the upper bound from the mid component."""
    steps = draw(st.lists(st.floats(1e-7, 1.0), min_size=n - 1, max_size=n - 1))
    c = draw(st.floats(1e-3, 10.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    order = draw(st.permutations(range(n)))
    eps = draw(st.floats(1e-6, 1.0 / (n - s)))
    return c[list(order)], eps


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_t_census_indices_hold_for_every_admissible_c_and_eps(data):
    for seed in SEEDS:
        rp, by_index, x_and_index = _instance(seed)
        c, eps = data.draw(_parameters(rp.n, rp.s))
        other = make_regularized(rp.base, c, eps)
        assert other.assumption1_ok
        census = census_t_quadratic(other)
        assert census.by_index_t == by_index
        assert x_and_t_index(census) == x_and_index
