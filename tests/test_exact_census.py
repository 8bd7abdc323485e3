"""The float census against an exact one (tests/exact_census.py): counts by
index, each point's index and the singular patterns, with no tolerance on
the exact side."""

import numpy as np
import pytest

from ccopkit import census_quadratic

from exact_census import exact_census
from helpers import coercive_counts, coercive_instance, make_problem, random_quadratic_instance, well_e1, well_ones


def _instances():
    for seed in range(20):  # n <= 5; seeds 1, 7, 8, 12, 13 and 19 draw an h, 5, 15 and 18 a g
        yield f"seed {seed}", random_quadratic_instance(np.random.default_rng(seed), n_max=5).base
    yield "well_e1", well_e1()  # its origin is degenerate (NDM3)
    yield "well_ones", well_ones()


def _agree(pr):
    """The exact census of pr, after checking that census_quadratic has its
    counts by index, a point within 1e-9 of each exact point with its index,
    and a skip note for each exactly singular pattern, in order."""
    exact, census = exact_census(pr), census_quadratic(pr)
    assert census.by_index_m == exact.by_index_m
    points = census.m_points
    X = np.array(points.x).reshape(len(points), pr.n)
    matched = set()
    for x, index in exact.points:
        x = np.array(x, dtype=float)
        near = np.flatnonzero(np.max(np.abs(X - x), axis=1) <= 1e-9 * (1.0 + np.max(np.abs(x))))
        assert len(near) == 1 and points.index[near[0]] == index, (x, index)
        matched.add(int(near[0]))
    assert len(matched) == len(points) == len(exact.points)
    skipped = [note for note in census.notes if note.startswith("skipped singular pattern")]
    assert skipped == [f"skipped singular pattern support={list(J)} active={list(act)}" for J, act in exact.singular]
    return exact


def test_the_quadratic_census_equals_the_exact_one():
    singular, counts = 0, {}
    for name, pr in _instances():
        exact = _agree(pr)
        singular += len(exact.singular)
        counts[name] = exact.by_index_m
    assert singular >= 9  # each of the 9 draws with an h or a g has a singular pattern on the empty support
    assert counts["well_e1"] == {0: 1, "degenerate": 1} and counts["well_ones"] == {0: 2, 1: 1}


@pytest.mark.parametrize("n", [4, 5])
def test_the_exact_census_of_the_coercive_family_has_its_closed_form(n):
    rp = coercive_instance(n)
    assert _agree(rp.base).by_index_m == coercive_counts(n, rp.s)[0]


def test_the_exact_census_decides_what_the_tolerances_hide():
    # (0, 1e-8) is a nondegenerate minimizer; its x2 lies within tol_act of
    # 0, so census_quadratic reads the point as degenerate and gives
    # {0: 1, 1: 1, "degenerate": 1}
    pr = make_problem(2, 1, "(x1-1)^2 + (x2-1e-8)^2")
    exact = exact_census(pr)
    assert exact.by_index_m == {0: 2, 1: 1}
    assert [(tuple(map(float, x)), index) for x, index in exact.points] == [
        ((0.0, 0.0), 1), ((1.0, 0.0), 0), ((0.0, 1e-8), 0)]
