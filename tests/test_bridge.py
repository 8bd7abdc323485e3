import dataclasses
import re

import numpy as np
import pytest

from ccopkit import (
    AssumptionError,
    BridgeError,
    NotStationaryError,
    Tolerances,
    census_quadratic,
    census_t_quadratic,
    certify_m,
    check_y_structure,
    lift,
    make_regularized,
    merge_censuses,
    project,
    verify_counts,
)
from ccopkit import bridge
from ccopkit.ccop import FrozenDict

from helpers import (
    affine_source,
    make_problem,
    random_c,
    random_quadratic_instance,
    random_quadratic_source,
    well_e1,
    well_ones,
    well_ones_reg,
)


def test_lift_origin_single_companion():
    rp = well_ones_reg()
    ls = lift(rp, [0.0, 0.0])
    assert ls.ibar == 2
    assert ls.expected_count == 1
    assert ls.count_applicable
    assert len(ls.companions) == 1
    y, tcert = ls.companions[0]
    assert np.allclose(y, [0.0, 1.0])
    assert tcert.t_index == 1 == ls.base_certificate.m_index
    assert tcert.nondegenerate and tcert.ndt[4]


def test_lift_with_active_budget_is_unique():
    rp = well_ones_reg()
    ls = lift(rp, [1.0, 0.0])
    assert ls.expected_count == 1
    assert len(ls.companions) == 1
    assert ls.companions[0][1].t_index == 0


def test_lift_enumerates_three_companions():
    pr = make_problem(5, 3, "(x1-3)^2 + (x2-1)^2 + (x3-1)^2 + (x4-1)^2 + (x5-1)^2")
    rp = make_regularized(pr, [0.15, 0.3, 0.45, 0.6, 0.75], 0.25)
    x = [3.0, 0.0, 0.0, 0.0, 0.0]
    base = certify_m(pr, x)
    assert base.nondegenerate and base.m_index == 2  # sparsity slack of two
    ls = lift(rp, x)
    assert ls.expected_count == 3 == len(ls.companions)
    seen = set()
    for y, tcert in ls.companions:
        assert check_y_structure(rp, y)
        assert tcert.nondegenerate and tcert.ndt[4]
        assert tcert.t_index == 2
        assert all(abs(y[i - 1]) <= 1e-12 for i in (1,))  # support stays clear
        seen.add(tuple(np.round(y, 9)))
    assert len(seen) == 3  # pairwise distinct lifts


def test_lift_requires_stationary_point():
    with pytest.raises(NotStationaryError):
        lift(well_ones_reg(), [0.5, 0.0])


def test_lift_refuses_degenerate_parameters():
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    with pytest.raises(AssumptionError):
        lift(rp, [1.0, 0.0])


def test_lift_of_degenerate_point_still_enumerates():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    ls = lift(rp, [0.0, 0.0])
    assert not ls.count_applicable
    assert len(ls.companions) == 1
    y, tcert = ls.companions[0]
    assert np.allclose(y, [0.0, 1.0])
    assert tcert.stationary and not tcert.ndt[4]


def test_project_flags_degenerate_image():
    rp = make_regularized(well_e1(), [0.3, 0.7], 0.5)
    mcert = project(rp, [0.0, 0.0], [0.0, 1.0])
    assert mcert.stationary
    assert mcert.gamma == {1: pytest.approx(-2.0), 2: pytest.approx(0.0)}
    assert mcert.degenerate_reason == "NDM3"
    assert mcert.m_index is None


def test_lift_then_project_round_trip():
    rp = well_ones_reg()
    original = certify_m(well_ones(), [0.0, 0.0])
    for y, _ in lift(rp, [0.0, 0.0]).companions:
        back = project(rp, [0.0, 0.0], y)
        assert back.m_index == original.m_index == 1
        assert back.gamma == pytest.approx(original.gamma)


def test_project_axis_minimizer():
    mcert = project(well_ones_reg(), [1.0, 0.0], [0.0, 1.0])
    assert mcert.m_index == 0


def test_project_requires_t_stationary():
    with pytest.raises(NotStationaryError):
        project(well_ones_reg(), [0.5, 0.0], [0.0, 1.0])
    with pytest.raises(NotStationaryError):
        project(well_ones_reg(), [1.0, 0.0], [1.0, 0.0])  # infeasible pairing


def test_verify_counts_on_complete_census():
    rp = well_ones_reg()
    merged = merge_censuses(census_quadratic(rp.base), census_t_quadratic(rp))
    report = verify_counts(rp, merged)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("companion-count") == 3
    assert "minimizer-count" in names and "mountain-pass" in names
    assert all(c.status == "pass" for c in report.checks)


def test_verify_counts_requires_both_sides():
    rp = well_ones_reg()
    report = verify_counts(rp, census_quadratic(rp.base))
    assert report.checks[0].status == "n/a"


def test_verify_counts_incomplete_census_not_asserted():
    rp = make_regularized(well_ones(), [0.0, 0.0], 0.0, override=True)
    merged = merge_censuses(census_quadratic(rp.base), census_t_quadratic(rp))
    report = verify_counts(rp, merged)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["companion-count"] == "n/a"
    assert statuses["minimizer-count"] == "n/a"
    assert report.ok  # nothing failed, exact counts simply not applicable


def test_lifts_of_nondegenerate_points_satisfy_all_conditions():
    rng = np.random.default_rng(31)
    lifted = 0
    for _ in range(10):
        rp = random_quadratic_instance(rng, n_max=5)
        census = census_quadratic(rp.base)
        for x, mcert in census.m_points:
            if not mcert.nondegenerate:
                continue
            ls = lift(rp, x)
            assert len(ls.companions) == ls.expected_count
            for y, tcert in ls.companions:
                assert tcert.nondegenerate and tcert.ndt[4]
                assert tcert.t_index == mcert.m_index
                lifted += 1
    assert lifted >= 20


def _close_pair_instance():
    """n=8, s=3 with one equality, where the nondegenerate roots of supports
    {2, 5, 6} (index 0) and {5, 6} (index 1) lie 3.2e-8 apart, closer than
    the merge radius."""
    f = (
        "(1.6987900543384304)*x1*x1 + (1.965628642956244)*x1 + (-0.23071381888433368)*x1*x2"
        " + (-0.07161953374475988)*x1*x3 + (0.3546300600844282)*x1*x4"
        " + (0.06416259573646066)*x1*x5 + (0.18860053876763294)*x1*x6"
        " + (0.08380080208764956)*x1*x7 + (-0.214927824503702)*x1*x8"
        " + (0.8654534837159624)*x2*x2 + (-0.5594747974517267)*x2"
        " + (-0.3263389366514319)*x2*x3 + (-0.2640704743445517)*x2*x4"
        " + (-0.011286950596976542)*x2*x5 + (-0.11585466967312669)*x2*x6"
        " + (0.049714426637055276)*x2*x7 + (-0.12536252508301476)*x2*x8"
        " + (1.4672690801891983)*x3*x3 + (1.4173141492055836)*x3"
        " + (-0.37318710134996824)*x3*x4 + (0.20061182042439218)*x3*x5"
        " + (-0.10104860468629423)*x3*x6 + (-0.20062387564609116)*x3*x7"
        " + (-0.3107779457991431)*x3*x8 + (-1.4465268463199394)*x4*x4"
        " + (1.9988204952759796)*x4 + (-0.1515798914201505)*x4*x5"
        " + (0.3858935016683612)*x4*x6 + (0.021567607461597027)*x4*x7"
        " + (0.3159265802698825)*x4*x8 + (0.9085930532147842)*x5*x5"
        " + (-0.24394663501912373)*x5 + (-0.3820237197259195)*x5*x6"
        " + (-0.15430193520114122)*x5*x7 + (-0.3759705424567324)*x5*x8"
        " + (1.782293552325268)*x6*x6 + (0.2132380959217106)*x6"
        " + (0.37481700743704705)*x6*x7 + (-0.02357001154980809)*x6*x8"
        " + (-1.172331770915551)*x7*x7 + (0.9577816480788237)*x7"
        " + (-0.29000493341992)*x7*x8 + (1.317346620765587)*x8*x8 + (1.2148389742727952)*x8"
    )
    h = (
        "(-0.9568308972028126)*x1 + (-0.4803537705915551)*x2 + (-0.4411799758107684)*x3"
        " + (-0.41696389374266574)*x4 + (-0.8396531655144066)*x5 + (0.4125310335452868)*x6"
        " + (-0.8542948778583249)*x7 + (0.7994936098785139)*x8 + (-0.34619271219249304)"
    )
    c = [0.816661817059987, 0.5889639532076969, 0.23529446926690453, 0.6927151510062394,
         0.9499297684066128, 0.3647083516492807, 0.12098921189431017, 0.4915888498888295]
    return make_regularized(make_problem(8, 3, f, [h]), c, 0.12869268804606815)


def test_companions_are_counted_by_their_root_not_by_distance():
    rp = _close_pair_instance()
    merged = merge_censuses(census_quadratic(rp.base), census_t_quadratic(rp))
    radius = 10.0 * Tolerances().tol_act
    points = merged.m_points
    close = [(a, b) for k, (xa, a) in enumerate(points) for xb, b in points[k + 1 :]
             if np.max(np.abs(xa - xb)) <= radius]
    assert len(close) == 1  # nondegenerate, 1 and 5 companions
    assert sorted((c.activity.x_norm0, c.m_index) for c in close[0]) == [(2, 1), (3, 0)]
    report = verify_counts(rp, merged)
    counts = [c for c in report.checks if c.name == "companion-count"]
    assert len(counts) == sum(c.nondegenerate for _, c in points) >= 90
    assert report.ok
    # the same checks, status and detail, on both sides' points as plain lists
    merged.m_points, merged.t_points = list(merged.m_points), list(merged.t_points)
    assert verify_counts(rp, merged).checks == report.checks


def test_companions_off_every_root_are_counted_within_the_radius():
    rp = well_ones_reg()
    merged = merge_censuses(census_quadratic(rp.base), census_t_quadratic(rp))
    # T-points whose x is a few ulps away from their M-point's: no bits match
    merged.t_points = [(np.nextafter(x, 2.0), y, c) for x, y, c in merged.t_points]
    report = verify_counts(rp, merged)
    counts = [c for c in report.checks if c.name == "companion-count"]
    assert counts and all(c.status == "pass" for c in counts)
    shifted = merged.t_points
    for shift, status in ((5e-8, "pass"), (1e-6, "fail")):  # within the radius of ten tol_act, and beyond it
        merged.t_points = [(x + shift, y, c) for x, y, c in shifted]
        counts = [c for c in verify_counts(rp, merged).checks if c.name == "companion-count"]
        assert counts and all(c.status == status for c in counts), shift


def _closed_form(rp, mcert, ibar, ebar):
    """The closed-form multipliers of the companion at Ebar of an
    M-stationary point whose maximizing index is ibar, as dicts by label in
    the order lift compares them."""
    c, gamma, i0 = rp.c, mcert.gamma, set(mcert.activity.I0)
    a01 = set(ebar) | {ibar}
    a00 = sorted(i0 - a01)
    return dict(lam=mcert.lam, mu1=mcert.mu, mu2={i: float(c[ibar - 1] - c[i - 1]) for i in ebar},
                mu3=float(c[ibar - 1]), sigma1={i: gamma[i] for i in sorted(a01)},
                sigma2={i: float(c[i - 1] - c[ibar - 1]) for i in range(1, rp.n + 1) if i not in i0},
                rho1={i: gamma[i] for i in a00}, rho2={i: float(c[i - 1] - c[ibar - 1]) for i in a00})


def _entries(want):
    """(index, value) of each entry of a closed form: a dict by index, or
    one number, whose index is None."""
    return list(want.items()) if isinstance(want, dict) else [(None, want)]


def _with(cert, label, i, value):
    """A copy of cert with entry i of the multipliers `label` set to value,
    or removed when value is None."""
    if i is not None:
        group = {**getattr(cert, label), i: value}
        value = FrozenDict((j, v) for j, v in group.items() if v is not None)
    return dataclasses.replace(cert, **{label: value})


def _nondegenerate_bases(count):
    """(rp, x, mcert) at nondegenerate M-points of quadratic instances with
    an equality or an inequality constraint, and of one with both, where
    lam and mu are both nonempty at some points."""
    rng = np.random.default_rng(5)
    rps = [random_quadratic_instance(rng, n_max=5) for _ in range(count)]
    rng = np.random.default_rng(0)
    h = [affine_source(rng.uniform(-1, 1, size=4), float(rng.uniform(-0.5, 0.5)))]
    g = [affine_source(rng.uniform(-1, 1, size=4), float(rng.uniform(-0.2, 0.2)))]
    pr = make_problem(4, 2, random_quadratic_source(rng, 4), h, g)
    rps.append(make_regularized(pr, random_c(rng, 4), 0.25))
    for rp in rps:
        if rp.base.h or rp.base.g:
            for x, mcert in census_quadratic(rp.base).m_points:
                if mcert.nondegenerate:
                    yield rp, x, mcert


def test_lift_names_the_first_closed_form_that_disagrees(monkeypatch):
    labels = set()
    for rp, x, mcert in _nondegenerate_bases(60):
        ls = lift(rp, x)
        certs = [tcert for _, tcert in ls.companions]
        for k, ebar in enumerate(ls.subsets):
            want = _closed_form(rp, mcert, ls.ibar, ebar)
            context = f"lift Ebar={ebar}: closed-form"
            first = None
            for label, expected in want.items():
                for i, v in _entries(expected):
                    name = label if i is None else f"{label}[{i}]"
                    first = first or (label, i, v, name)
                    labels.add(label)
                    cases = [(v + 1e-6, f"{context} {name}={v!r} vs solved {v + 1e-6!r}"),
                             (float("nan"), None)]  # a NaN entry passes, as abs(nan) > tol is false
                    if i is not None:
                        cases.append((None, f"{context} {name}={v!r} vs solved None"))
                    for bad, message in cases:
                        got = certs[:k] + [_with(certs[k], label, i, bad)] + certs[k + 1 :]
                        monkeypatch.setattr(bridge, "certify_t_pairs", lambda *args, got=got: got)
                        if message is None:
                            lift(rp, x)
                        else:
                            with pytest.raises(BridgeError) as raised:
                                lift(rp, x)
                            assert str(raised.value) == message
            # with every entry off, the first in label order is named
            bad = certs[k]
            for label, expected in want.items():
                for i, v in _entries(expected):
                    bad = _with(bad, label, i, v - 1e-6)
            got = certs[:k] + [bad] + certs[k + 1 :]
            monkeypatch.setattr(bridge, "certify_t_pairs", lambda *args, got=got: got)
            label, i, v, name = first
            with pytest.raises(BridgeError, match=re.escape(f"{context} {name}={v!r} vs solved {v - 1e-6!r}")):
                lift(rp, x)
            monkeypatch.undo()
    assert labels == {"lam", "mu1", "mu2", "mu3", "sigma1", "sigma2", "rho1", "rho2"}


def test_project_names_the_first_mapped_multiplier_that_disagrees(monkeypatch):
    labels = set()
    for rp, x, mcert in _nondegenerate_bases(60):
        for y, tcert in lift(rp, x).companions:
            mapped = {"lam": ("lam", mcert.lam), "mu1": ("mu", mcert.mu),
                      "sigma1": ("gamma", mcert.gamma), "rho1": ("gamma", mcert.gamma)}
            for label, (name, solved) in mapped.items():
                for i, v in getattr(tcert, label).items():
                    labels.add(label)
                    bad = _with(tcert, label, i, v + 1e-6)
                    monkeypatch.setattr(bridge, "certify_t", lambda *args, bad=bad: bad)
                    with pytest.raises(BridgeError) as raised:
                        project(rp, x, y)
                    assert str(raised.value) == f"project: closed-form {name}[{i}]={v + 1e-6!r} vs solved {solved[i]!r}"
                    monkeypatch.setattr(bridge, "certify_t", lambda *args: _with(tcert, label, i, float("nan")))
                    project(rp, x, y)
                    monkeypatch.undo()
            # with every mapped entry off, the first in label order is named
            bad = tcert
            for label in mapped:
                for i, v in getattr(tcert, label).items():
                    bad = _with(bad, label, i, v - 1e-6)
            label, (name, solved) = next((k, m) for k, m in mapped.items() if getattr(tcert, k))
            i, v = next(iter(getattr(tcert, label).items()))
            monkeypatch.setattr(bridge, "certify_t", lambda *args, bad=bad: bad)
            with pytest.raises(BridgeError) as raised:
                project(rp, x, y)
            assert str(raised.value) == f"project: closed-form {name}[{i}]={v - 1e-6!r} vs solved {solved[i]!r}"
            monkeypatch.undo()
            for i in mcert.gamma:
                short = _with(mcert, "gamma", i, None)
                monkeypatch.setattr(bridge, "certify_m", lambda *args, short=short: short)
                v = {**tcert.sigma1, **tcert.rho1}[i]
                with pytest.raises(BridgeError) as raised:
                    project(rp, x, y)
                assert str(raised.value) == f"project: closed-form gamma[{i}]={v!r} vs solved None"
                monkeypatch.undo()
    assert labels == set(("lam", "mu1", "sigma1", "rho1"))


def test_lift_raises_when_a_constructed_companion_fails_to_certify(monkeypatch):
    rp, certify = well_ones_reg(), bridge.certify_t_pairs
    cases = [({"stationary": False, "degenerate_reason": "NDT1"}, "reason=NDT1, residual="),
             ({"residual": 2e-8}, "reason=None, residual=2.000e-08)")]  # stationary, above _CROSS_TOL
    for change, message in cases:
        monkeypatch.setattr(bridge, "certify_t_pairs",
                            lambda *args, change=change: [dataclasses.replace(t, **change) for t in certify(*args)])
        with pytest.raises(BridgeError) as raised:
            lift(rp, [0.0, 0.0])
        assert str(raised.value).startswith("constructed companion failed to certify (Ebar=(), ")
        assert message in str(raised.value)


def test_project_raises_when_the_m_side_breaks_the_correspondence(monkeypatch):
    # (0, 0) lifts to one nondegenerate companion of T-index 1 with NDT5
    rp, x, y = well_ones_reg(), [0.0, 0.0], [0.0, 1.0]
    mcert = certify_m(rp.base, x)
    assert mcert.nondegenerate and mcert.m_index == 1
    cases = [
        (dataclasses.replace(mcert, stationary=False),
         "projection of a T-stationary point failed to be M-stationary"),
        (dataclasses.replace(mcert, ndm=(True, True, True, False), m_index=None, degenerate_reason="NDM4"),
         "nondegenerate input with nonvanishing a01 multipliers projected to a degenerate point (NDM4)"),
        (dataclasses.replace(mcert, m_index=2), "index not preserved under projection: 2 != 1"),
    ]
    for cert, message in cases:
        monkeypatch.setattr(bridge, "certify_m", lambda *args, cert=cert: cert)
        with pytest.raises(BridgeError) as raised:
            project(rp, x, y)
        assert str(raised.value) == message
    monkeypatch.undo()
    assert project(rp, x, y) is mcert
