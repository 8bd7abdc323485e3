import copy
import pickle

import numpy as np
import pytest

from ccopkit import (
    AssumptionError,
    Problem,
    Tolerances,
    certify_m,
    certify_t,
    check_cc_licq,
    check_feasible_r,
    check_mpoc_licq,
    check_y_structure,
    census_t_quadratic,
    lift,
    make_regularized,
    parse,
    to_source,
)

from ccopkit.regmpoc import companion_y

from helpers import (
    make_problem,
    random_instance_with_feasible_pair,
    random_quadratic_instance,
    well_e1,
    well_ones,
    well_ones_reg,
)

TOL = Tolerances()


def test_make_regularized_accepts_valid_parameters():
    rp = make_regularized(well_ones(), [0.3, 0.7], 0.5)
    assert rp.assumption1_ok  # eps bound is 1/(2-1) = 1


def test_make_regularized_flags_equal_components():
    rp = make_regularized(well_ones(), [0.5, 0.5], 0.5)
    assert not rp.assumption1_ok


def test_make_regularized_zero_parameters_need_override():
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0)
    assert not rp.assumption1_ok
    with pytest.raises(AssumptionError):
        certify_t(rp, [1.0, 0.0], [0.0, 1.0])
    rp_override = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    cert = certify_t(rp_override, [1.0, 0.0], [0.0, 1.0])
    assert cert.stationary


def test_checks_answer_where_certification_refuses_the_parameters():
    # c = 0, eps = 0 without override: certify_t raises, while
    # check_feasible_r and check_mpoc_licq return the fields of the
    # certificate that the same problem with override=True gets
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0)
    rp_override = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    # the last pair is infeasible by y_2 < -tol_feas, at which y_2 is still
    # active: its rows -e_3 (Ecal), e_4 (a10) and (0, 0, 1, 1) (sum) are dependent
    pairs = [([1.0, 0.0], [0.0, 1.0]), ([0.0, 0.0], [1.0, 1.0]), ([0.0, 0.0], [0.0, 0.0]),
             ([0.0, 0.0], [0.6, 0.8]), ([1.0, 1.0], [0.0, 0.0]), ([0.0, 0.5], [1.0, -5e-9])]
    seen = set()
    for x, y in pairs:
        with pytest.raises(AssumptionError):
            certify_t(rp, x, y)
        cert = certify_t(rp_override, x, y)
        assert check_feasible_r(rp, x, y, TOL) == (cert.feasible, cert.activity)
        assert check_mpoc_licq(rp, x, y, TOL) == cert.ndt[0]
        seen.add((cert.feasible, cert.ndt[0]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_make_regularized_eps_bound_scales_with_budget():
    pr = make_problem(3, 1, "x1^2 + x2^2 + x3^2")
    assert not make_regularized(pr, [0.2, 0.5, 0.8], 0.6).assumption1_ok  # 0.6 > 1/2
    assert make_regularized(pr, [0.2, 0.5, 0.8], 0.5).assumption1_ok


def test_feasibility_and_activity_pattern():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    ok, act = check_feasible_r(rp, [0.0, 0.0], [0.0, 1.0])
    assert ok
    assert act.a00 == (1,) and act.a01 == (2,) and act.a10 == ()
    assert act.Ecal == () and act.sum_active


def test_orthogonality_violation_is_infeasible():
    rp = well_ones_reg()
    ok, _ = check_feasible_r(rp, [1.0, 0.0], [1.0, 0.0])
    assert not ok


def test_upper_bound_membership():
    rp = well_ones_reg()
    ok, act = check_feasible_r(rp, [0.0, 2.0], [1.5, 0.0])
    assert ok
    assert act.a01 == (1,) and act.a10 == (2,) and act.Ecal == (1,)
    assert not act.sum_active


def test_mpoc_licq_explicit_rank_four():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    assert check_mpoc_licq(rp, [0.0, 0.0], [0.0, 1.0])


def test_mpoc_licq_matches_cc_licq_at_any_feasible_lift():
    rp = well_ones_reg()
    for y in ([0.0, 1.0], [1.0, 0.0], [0.7, 0.9], [1.5, 1.5]):
        assert check_mpoc_licq(rp, [0.0, 0.0], y) == check_cc_licq(well_ones(), [0.0, 0.0])


def test_mpoc_licq_refuses_a_y_of_the_wrong_shape():
    rp = well_ones_reg()
    for y in ([0.0, 1.0, 0.0], [[0.0], [1.0]], [1.0]):
        with pytest.raises(ValueError, match="y has shape"):
            check_mpoc_licq(rp, [0.0, 0.0], y)


def test_check_y_structure_refuses_a_y_of_the_wrong_shape():
    rp = well_ones_reg()
    for y in ([0.0, 1.0, 0.0], [[0.0], [1.0]], [1.0]):
        with pytest.raises(ValueError, match="^y has shape"):
            check_y_structure(rp, y)


def test_kept_y_profile_is_the_sorted_companion_y():
    rng = np.random.default_rng(41)
    problems = [random_quadratic_instance(rng, n_max=7) for _ in range(6)]
    problems = [rp for rp in problems if rp.n - rp.s >= 2]
    # override problems: zero parameters, and an eps above 1/(n-s-1), where
    # the component at ibar is negative and sorts first
    pr = make_problem(5, 2, "x1^2 + x2^2 + x3^2 + x4^2 + x5^2")
    problems += [make_regularized(pr, np.zeros(5), 0.0, override=True),
                 make_regularized(pr, [0.1, 0.2, 0.3, 0.4, 0.5], 0.7, override=True)]
    assert problems[-1]._y_profile[0] < 0.0
    for rp in problems:
        n, s = rp.n, rp.s
        want = np.sort(companion_y(rp, n - s, range(1, n - s)))
        assert rp._y_profile.tobytes() == want.tobytes()
        for y in (want[::-1], rng.permutation(want), want + 1e-12, np.roll(want, 1) + 0.1):
            got = np.sort(y)
            expected = (bool(np.all(np.abs(got - want) <= TOL.tol_act))
                        and abs(float(np.sum(y)) - (n - s)) <= TOL.tol_feas)
            assert check_y_structure(rp, y) == expected
        with pytest.raises(ValueError, match="^y has shape"):
            check_y_structure(rp, want[:-1])
        for twin in (pickle.loads(pickle.dumps(rp)), copy.deepcopy(rp)):
            assert twin._y_profile.tobytes() == want.tobytes()
            assert check_y_structure(twin, want[::-1]) == check_y_structure(rp, want[::-1])


def test_a_stack_of_ys_is_checked_as_each_y_alone():
    # one sort along the rows and one sum per row, whose bits must be those
    # of np.sum of the row: near the sum's tolerance the last bit decides
    rng = np.random.default_rng(43)
    verdicts = []
    for n in range(2, 40):
        s = int(rng.integers(0, n))
        pr = make_problem(n, s, " + ".join(f"x{i}^2" for i in range(1, n + 1)))
        rp = make_regularized(pr, np.arange(1.0, n + 1.0), 0.5 / (n - s))
        Y = np.array([rng.permutation(rp._y_profile) for _ in range(50)])
        Y += rng.choice([1e-10, -1e-10, 3e-10, 2e-8], size=Y.shape) * (rng.random(Y.shape) < 0.05)
        sums = np.array([np.sum(y) for y in Y])
        assert np.add.reduce(Y, axis=-1).tobytes() == sums.tobytes()
        assert np.sort(Y, axis=-1).tobytes() == np.array([np.sort(y) for y in Y]).tobytes()
        want = [bool(np.all(np.abs(np.sort(y) - rp._y_profile) <= TOL.tol_act))
                and abs(float(np.sum(y)) - (n - s)) <= TOL.tol_feas for y in Y]
        got = check_y_structure(rp, Y)
        assert got.dtype == bool and got.shape == (len(Y),) and got.tolist() == want
        assert [check_y_structure(rp, y) for y in Y] == want
        assert all(type(check_y_structure(rp, y)) is bool for y in Y[:2])
        for same in (np.asfortranarray(Y), Y.tolist(), Y[::-1][::-1]):
            assert check_y_structure(rp, same).tolist() == want
        assert check_y_structure(rp, np.empty((0, n))).shape == (0,)
        for wrong in (np.empty((2, n + 1)), np.empty((1, 2, n)), 1.0):
            with pytest.raises(ValueError, match="^y has shape"):
                check_y_structure(rp, wrong)
        verdicts += want
    assert len(verdicts) == 1900 and 300 <= sum(verdicts) <= len(verdicts) - 300


def test_mpoc_licq_fails_on_duplicated_equality_gradient():
    pr = make_problem(2, 1, "x1^2 + x2^2", h=["x1 + x2", "x1 + x2"])
    rp = make_regularized(pr, [0.3, 0.7], 0.5)
    assert not check_mpoc_licq(rp, [0.0, 0.0], [0.0, 1.0])


def test_certify_t_regression_vanishing_a01_multiplier():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    cert = certify_t(rp, [0.0, 0.0], [0.0, 1.0])
    assert cert.feasible and cert.stationary
    assert cert.mu3 == pytest.approx(0.7, abs=1e-8)
    assert cert.sigma1[2] == pytest.approx(0.0, abs=1e-8)
    assert cert.rho1[1] == pytest.approx(-2.0, abs=1e-8)
    assert cert.rho2[1] == pytest.approx(-0.4, abs=1e-8)
    assert cert.ndt[:4] == (True, True, True, True)
    assert not cert.ndt[4]
    assert cert.degenerate_reason == "NDT5"
    assert cert.quadratic_index == 0 and cert.biactive_index == 1 and cert.t_index == 1


def test_certify_t_nondegenerate_lift_of_saddle():
    rp = well_ones_reg()
    cert = certify_t(rp, [0.0, 0.0], [0.0, 1.0])
    assert cert.stationary and cert.nondegenerate and cert.ndt[4]
    assert cert.t_index == 1


def test_certify_t_minimizer_lift():
    rp = well_ones_reg()
    cert = certify_t(rp, [1.0, 0.0], [0.0, 1.0])
    assert cert.stationary and cert.nondegenerate
    assert cert.t_index == 0 and cert.biactive_index == 0
    assert cert.mu3 == pytest.approx(0.7, abs=1e-8)
    assert cert.sigma2[1] == pytest.approx(0.3 - 0.7, abs=1e-8)


def test_certify_t_unregularized_points_are_degenerate():
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    for x, y in (
        ([1.0, 0.0], [0.0, 1.0]),
        ([0.0, 1.0], [1.0, 0.0]),
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [0.6, 0.8]),
    ):
        cert = certify_t(rp, x, y)
        assert cert.stationary
        assert not (cert.nondegenerate and cert.ndt[4])


def test_non_stationary_lifted_point():
    rp = well_ones_reg()
    cert = certify_t(rp, [0.5, 0.0], [0.0, 1.0])
    assert cert.feasible and not cert.stationary


def test_y_structure_examples():
    rp1 = well_ones_reg()
    assert check_y_structure(rp1, [0.0, 1.0])
    assert not check_y_structure(rp1, [0.5, 0.5])

    pr3 = make_problem(3, 1, "x1^2 + x2^2 + x3^2")
    rp3 = make_regularized(pr3, [0.2, 0.5, 0.8], 0.4)
    assert check_y_structure(rp3, [1.4, 0.6, 0.0])
    assert check_y_structure(rp3, [0.0, 1.4, 0.6])
    assert not check_y_structure(rp3, [1.0, 1.0, 0.0])


def test_licq_equivalence_on_random_instances():
    rng = np.random.default_rng(23)
    agreements = 0
    for _ in range(40):
        rp, x, y = random_instance_with_feasible_pair(rng)
        feasible, _ = check_feasible_r(rp, x, y)
        if not feasible:
            continue
        assert check_cc_licq(rp.base, x) == check_mpoc_licq(rp, x, y)
        agreements += 1
    assert agreements >= 30


def test_restricted_hessians_share_inertia_after_lifting():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(12):
        rp, x, _ = random_instance_with_feasible_pair(rng, n_max=5)
        mcert = certify_m(rp.base, x)
        if not (mcert.stationary and mcert.nondegenerate):
            continue
        for y, tcert in lift(rp, x).companions:
            assert tcert.quadratic_index == mcert.quadratic_index
            assert check_y_structure(rp, y)
            checked += 1
    assert checked >= 1


def test_scaling_objective_scales_t_multipliers_and_keeps_indices():
    # The T-side of test_ccop.py::test_scaling_objective_scales_multipliers_only.
    # The lifted objective is f(x) + c'y and every stationarity direction lies
    # in the x- or the y-block, so scaling f alone scales the x-block
    # multipliers only, while scaling f and c together scales all of them.
    x_block, y_block = ("lam", "mu1", "sigma1", "rho1"), ("mu2", "sigma2", "rho2")
    rng = np.random.default_rng(61)
    checked = 0
    for k in range(8):
        rp = random_quadratic_instance(rng, n_max=6)
        t = (0.5, 1.3, 2.0)[k % 3]
        pr = rp.base
        scaled = Problem(pr.n, pr.s, parse(f"({t!r})*({to_source(pr.f)})", pr.n), pr.h, pr.g)
        for rq, y_factor in (
            (make_regularized(scaled, rp.c, rp.eps), 1.0),
            (make_regularized(scaled, t * rp.c, rp.eps), t),
        ):
            for x, y, tcert in census_t_quadratic(rp).t_points:
                got = certify_t(rq, x, y)
                for name in ("feasible", "stationary", "ndt", "t_index", "quadratic_index",
                             "biactive_index", "degenerate_reason"):
                    assert getattr(got, name) == getattr(tcert, name)
                assert got.mu3 == pytest.approx(y_factor * tcert.mu3, rel=1e-9, abs=1e-12)
                for names, factor in ((x_block, t), (y_block, y_factor)):
                    for name in names:
                        want = getattr(tcert, name)
                        assert set(getattr(got, name)) == set(want)
                        for i, v in want.items():
                            assert getattr(got, name)[i] == pytest.approx(factor * v, rel=1e-9, abs=1e-12)
                checked += 1
    assert checked >= 600
