"""Committed mutants: small faults in the library that the tests must catch.

Each entry of MUTANTS names a file under src/ccopkit, an exact text in it,
the text that replaces it, and the tests that must then fail.  For every
entry the script patches a temporary copy of src/, runs the entry's tests
with `pytest -x` against that copy, and reports the mutants whose tests
still pass: they survive, and a test is missing.

    python tests/mutants.py               # every mutant
    python tests/mutants.py lift project  # the mutants whose name contains a word given

It exits 1 if a mutant survives, and 2 if an entry no longer applies: its
old text is not found exactly once, or its tests do not run.  So a refactor
that moves or rewrites a mutated text must update the entry.  pytest does
not collect this file (like transcripts.py, its name does not start with
test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ccopkit
    old: str  # found exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids or files, relative to the repository root


LAYOUTS = "tests/test_layout_groups.py"
BRIDGE = "tests/test_bridge.py"
ORACLE = "tests/test_oracle.py"
CLI = "tests/test_cli.py"

MUTANTS = (
    # the layout-group certification (ccop._solve, _layouts, the sign conditions)
    Mutant(
        "Hessian terms of h and g subtracted in reverse order", "ccop.py",
        "    for c in range(nh + nq):  # grad h_p, then grad g_q",
        "    for c in reversed(range(nh + nq)):  # grad h_p, then grad g_q",
        (LAYOUTS,),
    ),
    Mutant(
        "> for >= in the M sign condition", "ccop.py",
        "stationary = feasible & residual_ok & (least >= -ts)",
        "stationary = feasible & residual_ok & (least > -ts)",
        (LAYOUTS,),
    ),
    Mutant(
        "> for >= in the T sign condition", "regmpoc.py",
        "signs, strict = least >= -ts, least > ts",
        "signs, strict = least > -ts, least > ts",
        (LAYOUTS,),
    ),
    Mutant(
        ">= for > in NDT3", "regmpoc.py",
        "biactive = np.logical_and.reduce(big[:, e5:e6] & (rho2 < -ts), axis=1)",
        "biactive = np.logical_and.reduce((rho1 >= ts) & (rho2 < -ts), axis=1)",
        (LAYOUTS,),
    ),
    Mutant(
        "groups keyed by shape instead of layout", "ccop.py",
        "        groups.setdefault(layout, []).append(k)",
        "        shaped = [g for g in groups if sum(g) == sum(layout)]  # the first layout of this shape\n"
        "        groups.setdefault(shaped[0] if shaped else layout, []).append(k)",
        (LAYOUTS,),
    ),
    Mutant(
        "a label slice one past its kind's end", "regmpoc.py",
        '"Ecal": lab[e1:e2],',
        '"Ecal": lab[e1:e2 + 1],',
        (LAYOUTS,),
    ),
    Mutant(
        "< for <= in the upper bound of y", "regmpoc.py",
        "[feas] * n + [1.0 + eps + feas] * n + [act] * a)",
        "[feas] * n + [np.nextafter(1.0 + eps + feas, 0.0)] * n + [act] * a)",
        (LAYOUTS,),
    ),
    Mutant(
        "a01 and a10 swapped", "regmpoc.py",
        "[3 * n], x0, y0, x0, x0])\n    right = np.concatenate([h, q0, 2 * n + i, [3 * n], y0, x0, y0, y0])",
        "[3 * n], y0, x0, x0, x0])\n    right = np.concatenate([h, q0, 2 * n + i, [3 * n], x0, y0, y0, y0])",
        (LAYOUTS,),
    ),
    # rank and inertia by blocks (ccop._solve)
    Mutant(
        "the rank cutoff read from the x-block only", "ccop.py",
        "(sing[:, :1] if ys is None else np.maximum(sing[:, :1], ys[:, :1]))",
        "sing[:, :1]",
        (LAYOUTS,),
    ),
    Mutant(
        "the zero count without the y-block's null space", "ccop.py",
        "[d - n - r for r in ry]",
        "[0 for r in ry]",
        (LAYOUTS,),
    ),
    Mutant(
        "rho1 among the y-columns", "regmpoc.py",
        "(0, 0, None, None, 0, None, -2 * n, None)",
        "(0, 0, None, None, 0, None, None, None)",
        (LAYOUTS,),
    ),
    # y-blocks ranked by layout (regmpoc._y_sing)
    Mutant(
        "the overlap of Ecal and a00 ignored", "regmpoc.py",
        "overlap = np.add.reduce(both, axis=1).tolist() if np.count_nonzero(both) else None",
        "overlap = None",
        (LAYOUTS,),
    ),
    Mutant(
        "the canonical y-block without its all-ones row", "regmpoc.py",
        "picked = [*range(ne), *[n] * sa, *range(start, start + n00 + n10)]",
        "picked = [*range(ne), *range(start, start + n00 + n10)]",
        (LAYOUTS,),
    ),
    Mutant(
        "the y singular values read from the x-block", "ccop.py",
        "np.add.reduce(ys > cut, axis=1).tolist()",
        "np.add.reduce(sing > cut, axis=1).tolist()",
        (LAYOUTS,),
    ),
    # the cheaper layout-group pass of a cold lift (regmpoc._plan, ccop._solve, _certified)
    Mutant(
        "a dropped point dedupe: an x-block per candidate", "ccop.py",
        "owner = [places.setdefault(a, (len(places), j))[0] for j, a in enumerate(at.tolist())]",
        "owner = [places.setdefault((a, j), (len(places), j))[0] for j, a in enumerate(at.tolist())]",
        ("tests/test_pointeval.py::test_a_cold_lift_does_each_piece_of_work_once_and_a_later_project_none",),
    ),
    Mutant(
        "the h rows left to the activity test", "regmpoc.py",
        "    sel[:, :nh] = True\n",
        "",
        (LAYOUTS,),
    ),
    Mutant(
        "the sum's activity without its shift", "regmpoc.py",
        "np.full(n, 1.0 + eps), [n - s], np.zeros(ng)])",
        "np.full(n, 1.0 + eps), [0.0], np.zeros(ng)])",
        (LAYOUTS,),
    ),
    Mutant(
        "Ecal read off y_i = 0", "regmpoc.py",
        "q0, 2 * n + i, [3 * n]",
        "q0, n + i, [3 * n]",
        (LAYOUTS,),
    ),
    Mutant(
        "eq8's first branch without the absolute value", "regmpoc.py",
        "eq8 = rho1 <= ts, rho2 <= ts",
        "eq8 = coeffs[:, e5:e6] <= ts, rho2 <= ts",
        (f"{LAYOUTS}::test_census_points_are_built_whole_on_first_read_as_the_reference_does",),
    ),
    Mutant(
        "a memo lookup that misses every held certificate", "ccop.py",
        "certs = [ref and ref() for ref in map(memo.data.get, keys)]",
        "certs = [None for ref in map(memo.data.get, keys)]",
        ("tests/test_pointeval.py::test_census_lift_and_project_certify_each_point_once",),
    ),
    Mutant(
        "mu3 skipped by lift's check", "bridge.py",
        ' ("mu3", cbar, tcert.mu3),',
        '',
        (f"{BRIDGE}::test_lift_names_the_first_closed_form_that_disagrees",),
    ),
    Mutant(
        "a01 and a10 without the negation of their right column", "regmpoc.py",
        "np.ones(2 * n, dtype=bool), np.zeros(2 * n, dtype=bool)])",
        "np.zeros(2 * n, dtype=bool), np.zeros(2 * n, dtype=bool)])",
        (LAYOUTS,),
    ),
    Mutant(
        "eq7 and eq8 on the signed rho1", "regmpoc.py",
        "(size := np.abs(coeffs)) > ts, size[:, e5:e6], coeffs[:, e6:]",
        "(size := np.abs(coeffs)) > ts, coeffs[:, e5:e6], coeffs[:, e6:]",
        (LAYOUTS,),
    ),
    Mutant(
        "NDT5 read off the rho1 columns", "regmpoc.py",
        "a01_ok = np.logical_and.reduce(big[:, e3:e4], axis=1).tolist()",
        "a01_ok = np.logical_and.reduce(big[:, e5:e6], axis=1).tolist()",
        (LAYOUTS,),
    ),
    Mutant(
        "a certified miss left out of the memo", "ccop.py",
        "certs[misses[k]] = memo[keys[misses[k]]] = block.build(row)",
        "certs[misses[k]] = block.build(row)",
        ("tests/test_pointeval.py::test_a_cold_lift_does_each_piece_of_work_once_and_a_later_project_none",),
    ),
    # the cross-checks of bridge.lift and bridge.project
    Mutant(
        "lam and mu1 swapped in lift", "bridge.py",
        "lam, mu1, gamma, cbar, vanish = mcert.lam.items(), mcert.mu.items(),",
        "mu1, lam, gamma, cbar, vanish = mcert.lam.items(), mcert.mu.items(),",
        (BRIDGE,),
    ),
    Mutant(
        "the rho2 pairs dropped from lift's check", "bridge.py",
        ',\n                            ("rho2", [(i, c[i - 1] - cbar) for i in a00], tcert.rho2))',
        ")",
        (BRIDGE,),
    ),
    Mutant(
        "lam and mu swapped in project", "bridge.py",
        'bad = _mismatch(("lam", tcert.lam.items(), mcert.lam), ("mu", tcert.mu1.items(), mcert.mu),',
        'bad = _mismatch(("lam", tcert.lam.items(), mcert.mu), ("mu", tcert.mu1.items(), mcert.lam),',
        (BRIDGE,),
    ),
    Mutant(
        "sigma1 and rho1 swapped in project", "bridge.py",
        '("gamma", tcert.sigma1.items(), mcert.gamma), ("gamma", tcert.rho1.items(), mcert.gamma))',
        '("gamma", tcert.rho1.items(), mcert.gamma), ("gamma", tcert.sigma1.items(), mcert.gamma))',
        (BRIDGE,),
    ),
    Mutant(
        "a NaN entry fails _mismatch", "bridge.py",
        "if gv is None or abs(gv - v) > _CROSS_TOL:",
        "if gv is None or not abs(gv - v) <= _CROSS_TOL:",
        (BRIDGE,),
    ),
    # what verify and the reports keep per problem and per type
    Mutant(
        "an unsorted y profile", "regmpoc.py",
        "profile = np.sort(_companion_ys(self, self.n - self.s - 1, np.arange(self.n - self.s - 1)[None])[0])",
        "profile = _companion_ys(self, self.n - self.s - 1, np.arange(self.n - self.s - 1)[None])[0]",
        ("tests/test_regmpoc.py",),
    ),
    Mutant(
        "the polynomial degree walked on every call", "exprcore.py",
        "        return node._poly_degree\n",
        "        return polynomial_degree(node.root)\n",
        ("tests/test_exprcore.py",),
    ),
    Mutant(
        "the array fast path without its dtype check", "cli.py",
        "    if value.ndim == 1 and value.dtype == np.float64:",
        "    if value.ndim == 1:",
        ("tests/test_report_format.py",),
    ),
    # the root search (oracle._kkt_matrix, _linear_roots)
    Mutant(
        "the gradient column of a KKT matrix without its minus sign", "oracle.py",
        "        M[:, :n, col] = -a\n",
        "        M[:, :n, col] = a\n",
        # the linear roots keep their bits; only their multipliers change sign
        (f"{ORACLE}::test_shared_kkt_matrix_is_pinned_by_certify_m_multipliers",
         f"{ORACLE}::test_lockstep_newton_roots_equal_one_start_at_a_time"),
    ),
    Mutant(
        "the singular-pattern cutoff relative to the least singular value", "oracle.py",
        "skip = sing[:, -1] <= tol.tol_rank * sing[:, 0]",
        "skip = sing[:, -1] <= tol.tol_rank * sing[:, -1]",
        (f"{ORACLE}::test_stacked_linear_roots_equal_one_solve_per_pattern",),
    ),
    Mutant(
        "patterns grouped by support size alone", "oracle.py",
        "groups.setdefault((len(J), act), []).append(k)",
        "groups.setdefault(len(J), []).append(k)",
        (f"{ORACLE}::test_stacked_linear_roots_equal_one_solve_per_pattern",),
    ),
    # the checks read the certificate (ccop.check_*, regmpoc.check_*)
    Mutant(
        "check_cc_licq reads NDM2", "ccop.py",
        "    return certify_m(pr, x, tol).ndm[0]\n",
        "    return certify_m(pr, x, tol).ndm[1]\n",
        (f"{LAYOUTS}::test_licq_checks_decide_as_the_certificates_do",),
    ),
    Mutant(
        "check_feasible_r through the guarded certify_t_pairs", "regmpoc.py",
        "    cert = _certify_pairs(rp, [(x, y)], tol)[0]\n",
        "    cert = certify_t_pairs(rp, [(x, y)], tol)[0]\n",
        ("tests/test_regmpoc.py::test_checks_answer_where_certification_refuses_the_parameters",),
    ),
    Mutant(
        "check_mpoc_licq through the guarded certify_t_pairs", "regmpoc.py",
        "    return _certify_pairs(rp, [(x, y)], tol)[0].ndt[0]\n",
        "    return certify_t_pairs(rp, [(x, y)], tol)[0].ndt[0]\n",
        ("tests/test_cli.py::test_check_licq_answers_without_override_on_parameters_that_violate_the_assumption",),
    ),
    # the jets kept with the roots (ccop._jets_many, _jets_at)
    Mutant(
        "_jets_many keeps a failed row", "ccop.py",
        "    for k in finite.nonzero()[0].tolist():\n",
        "    for k in range(len(xs)):\n",
        (f"{ORACLE}::test_roots_whose_jets_fail_are_evaluated_on_first_use",),
    ),
    Mutant(
        "_jets_many drops every row when one fails", "ccop.py",
        "        batches = [_jets_at(e, X)[:3] for e in (pr.f, *pr.h, *pr.g)]",
        "        batches = [eval2_many(e, X) for e in (pr.f, *pr.h, *pr.g)]",
        (f"{ORACLE}::test_roots_whose_jets_fail_are_evaluated_on_first_use",),
    ),
    Mutant(
        "a failed row of _jets_at holding zeros", "ccop.py",
        "nan = np.full(1, np.nan), np.full((1, n), np.nan), np.full((1, n, n), np.nan)",
        "nan = np.zeros(1), np.zeros((1, n)), np.zeros((1, n, n))",
        ("tests/test_pointeval.py::test_an_array_at_a_kept_root_carries_its_jets",),
    ),
    # read-only certificates
    Mutant(
        "a certificate mapping that accepts item assignment", "ccop.py",
        "    __init__ = __setitem__ = __delitem__ = __ior__",
        "    __init__ = __delitem__ = __ior__",
        ("tests/test_pointeval.py::test_mutating_a_certificate_changes_no_later_hit",),
    ),
    Mutant(
        "a certificate mapping whose __init__ refills it", "ccop.py",
        "    __init__ = __setitem__ = __delitem__ = __ior__",
        "    __setitem__ = __delitem__ = __ior__",
        ("tests/test_pointeval.py::test_init_on_a_frozen_dict_raises_and_changes_nothing",),
    ),
    Mutant(
        "a T-certificate that is not frozen", "regmpoc.py",
        "@dataclass(frozen=True)\nclass TCertificate:",
        "@dataclass\nclass TCertificate:",
        ("tests/test_pointeval.py::test_mutating_a_certificate_changes_no_later_hit",),
    ),
    # census points kept as columns, certificates built on first read (ccop._Block, oracle._Points)
    Mutant(
        "sigma1 and sigma2 swapped in the row builder", "regmpoc.py",
        '"sigma1": _frozen(pairs[e3:e4]), "sigma2": _frozen(pairs[e4:e5])',
        '"sigma1": _frozen(pairs[e4:e5]), "sigma2": _frozen(pairs[e3:e4])',
        (f"{LAYOUTS}::test_census_points_are_built_whole_on_first_read_as_the_reference_does",),
    ),
    Mutant(
        "a census that does not enter its rows in the memo", "ccop.py",
        "            held = memo[key] = _Row(block, row, memo, key)\n",
        "            held = _Row(block, row, memo, key)\n",
        ("tests/test_pointeval.py::test_census_lift_and_project_certify_each_point_once",),
    ),
    Mutant(
        "census points that build a new certificate on every read", "oracle.py",
        "cert = row.cert() if type(row := self._rows[k]) is _Row else row",
        "cert = row.block.build(row.row) if type(row := self._rows[k]) is _Row else row",
        ("tests/test_pointeval.py::test_unread_read_and_whole_certificates_pickle_copy_and_compare_alike",),
    ),
    Mutant(
        "a row's first readers each keeping the certificate they built", "ccop.py",
        "self.block.certs.setdefault(self.row, self.block.build(self.row))",
        "self.block.certs[self.row] = self.block.build(self.row)",
        ("tests/test_pointeval.py::test_threads_reading_one_unread_certificate_get_equal_groups",),
    ),
    Mutant(
        "the counts by index read off the quadratic index column", "oracle.py",
        "        index += [block.total[j] for block, j in flat]\n",
        "        index += [block.quadratic[j] for block, j in flat]\n",
        (ORACLE,),
    ),
    Mutant(
        "the census norm0 column read off the sparsity index", "oracle.py",
        "Y, norm0, keys = None, [rows[k][0].norm0 for k in kept],",
        "Y, norm0, keys = None, [rows[k][0].si for k in kept],",
        (f"{BRIDGE}::test_companions_are_counted_by_their_root_not_by_distance",),
    ),
    Mutant(
        "_Points.of taking norm0 from the wrong field", "oracle.py",
        "[c.activity.x_norm0 for c in certs])",
        "[c.sparsity_index for c in certs])",
        (f"{BRIDGE}::test_companions_are_counted_by_their_root_not_by_distance",),
    ),
    # one call shape between the certifiers and the memo (ccop._key, _certified, regmpoc._certify_pairs)
    Mutant(
        "a T key that ignores the bits of y", "ccop.py",
        "return (xbits, tol._astuple) if y is None else (xbits, y.tobytes(), tol._astuple)",
        "return (xbits, tol._astuple)",
        ("tests/test_pointeval.py::test_memo_key_is_the_point_bits_the_tolerances_and_the_problem",),
    ),
    Mutant(
        "keys without the tolerances", "ccop.py",
        "return (xbits, tol._astuple) if y is None else (xbits, y.tobytes(), tol._astuple)",
        "return (xbits,) if y is None else (xbits, y.tobytes())",
        ("tests/test_pointeval.py::test_memo_key_is_the_point_bits_the_tolerances_and_the_problem",),
    ),
    Mutant(
        "a T call that banks the xs of its held pairs too", "regmpoc.py",
        "        first: dict = {}  # bits of a missed x -> (its place among them, its PointEval)\n",
        "        first: dict = {}\n"
        "        for k, key in enumerate(keys):  # every x of the call\n"
        "            first.setdefault(key[0], (len(first), xs[k]))\n",
        ("tests/test_pointeval.py::test_a_call_evaluates_the_xs_of_its_missed_points_alone",),
    ),
    # one owner for each decision that the census and the certifiers share
    Mutant(
        "the M certifier writing 0 for no index", "ccop.py",
        "total = [q + si if st and all(ndm) else None for",
        "total = [q + si if st and all(ndm) else 0 for",
        (f"{ORACLE}::test_census_flags_degenerate_origin",),
    ),
    Mutant(
        "the T certifier writing 0 for no index", "regmpoc.py",
        "total = [q + n00 if st and all(ndt[:4]) else None for",
        "total = [q + n00 if st and all(ndt[:4]) else 0 for",
        (f"{ORACLE}::test_t_census_includes_degenerate_companions",),
    ),
    Mutant(
        "eq8's two branch columns swapped", "regmpoc.py",
        "eq8 = rho1 <= ts, rho2 <= ts",
        "eq8 = rho2 <= ts, rho1 <= ts",
        (f"{LAYOUTS}::test_census_points_are_built_whole_on_first_read_as_the_reference_does",),
    ),
    Mutant(
        "the mid and upper values of a companion y swapped", "regmpoc.py",
        "    Y[rows[:, None], subsets] = 1.0 + rp.eps\n    Y[rows, ibar] = 1.0 - (rp.n - rp.s - 1) * rp.eps\n",
        "    Y[rows[:, None], subsets] = 1.0 - (rp.n - rp.s - 1) * rp.eps\n    Y[rows, ibar] = 1.0 + rp.eps\n",
        ("tests/test_regmpoc.py",),
    ),
    Mutant(
        "the merge radius read as one activity tolerance", "oracle.py",
        "_MERGE_TOLS = 10.0",
        "_MERGE_TOLS = 1.0",
        (f"{BRIDGE}::test_companions_off_every_root_are_counted_within_the_radius",),
    ),
    Mutant(
        "a block's labels listed out of step with its multipliers", "ccop.py",
        "map(tuple, self.labels.tolist()), self.coeffs.tolist(),",
        "map(tuple, self.labels[::-1].tolist()), self.coeffs.tolist(),",
        (f"{LAYOUTS}::test_census_points_are_built_whole_on_first_read_as_the_reference_does",),
    ),
    Mutant(
        "census points compared by ==, which two equal arrays fail", "oracle.py",
        "        return _bits(self) == _bits(other)\n",
        "        return list(self) == list(other)\n",
        (f"{ORACLE}::test_a_census_pickles_and_deep_copies_to_equal_points",),
    ),
    # one copy of the tolerance names, the check row and the root-search notes
    Mutant(
        "the --tol-* flags built in reverse order", "cli.py",
        "    for name in _TOL_KEYS:\n        common.add_argument(",
        "    for name in reversed(_TOL_KEYS):\n        common.add_argument(",
        (f"{CLI}::test_certify_help_lists_the_tolerance_flags_in_field_order",),
    ),
    Mutant(
        "every tolerance validated by the first one's value", "numkern.py",
        "            value = getattr(self, f.name)\n",
        "            value = getattr(self, fields(self)[0].name)\n",
        (f"{CLI}::test_non_finite_tolerance_flags_exit_3",),
    ),
    Mutant(
        "a check row's status written as its detail", "cli.py",
        'checks.append(CountCheck("project-roundtrip", "pass" if ok else "fail", label))',
        'checks.append(CountCheck("project-roundtrip", label, "pass" if ok else "fail"))',
        ("tests/test_golden.py",),
    ),
    Mutant(
        "a check row's status key given its detail", "cli.py",
        'rep.add(f"check.{k}.status", c.status)',
        'rep.add(f"check.{k}.status", c.detail)',
        ("tests/test_golden.py",),
    ),
    Mutant(
        "verify's failures counted off the check details", "cli.py",
        'failures = sum(c.status == "fail" for c in checks)',
        'failures = sum(c.detail == "fail" for c in checks)',
        (f"{CLI}::test_verify_reports_a_lift_that_raises_as_a_failed_row",),
    ),
    Mutant(
        "the root search dropping its notes", "oracle.py",
        "for (J, x), jet in zip(roots, jets)], list(kept)",
        "for (J, x), jet in zip(roots, jets)], []",
        ("tests/test_exact_census.py",),
    ),
    # the guards of lift, project and the CLI that a test reaches by an injected certificate or error
    Mutant(
        "lift's companion check without its residual bound", "bridge.py",
        "if not tcert.stationary or tcert.residual > _CROSS_TOL:",
        "if not tcert.stationary:",
        (f"{BRIDGE}::test_lift_raises_when_a_constructed_companion_fails_to_certify",),
    ),
    Mutant(
        "project without its M-stationarity check", "bridge.py",
        "    if not mcert.stationary:\n        raise BridgeError(",
        "    if mcert.stationary is None:\n        raise BridgeError(",
        (f"{BRIDGE}::test_project_raises_when_the_m_side_breaks_the_correspondence",),
    ),
    Mutant(
        "project's nondegeneracy check read as stationarity", "bridge.py",
        "        if not mcert.nondegenerate:",
        "        if not mcert.stationary:",
        (f"{BRIDGE}::test_project_raises_when_the_m_side_breaks_the_correspondence",),
    ),
    Mutant(
        "project's index check with ==", "bridge.py",
        "if mcert.m_index != tcert.t_index:",
        "if mcert.m_index == tcert.t_index:",
        (f"{BRIDGE}::test_project_raises_when_the_m_side_breaks_the_correspondence",),
    ),
    Mutant(
        "project's handler without NotStationaryError", "cli.py",
        "        mcert = project(rp, pe, y, tol)\n    except (NotStationaryError, BridgeError) as exc:",
        "        mcert = project(rp, pe, y, tol)\n    except BridgeError as exc:",
        (f"{CLI}::test_project_of_a_point_that_is_not_t_stationary_exits_2",),
    ),
    Mutant(
        "verify's lift failure row passing", "cli.py",
        'checks.append(CountCheck("lift-roundtrip", "fail", f"{label}: {exc}"))',
        'checks.append(CountCheck("lift-roundtrip", "pass", f"{label}: {exc}"))',
        (f"{CLI}::test_verify_reports_a_lift_that_raises_as_a_failed_row",),
    ),
    Mutant(
        "python -m ccopkit not calling main", "__main__.py",
        'if __name__ == "__main__":',
        'if __name__ == "__main_":',
        (f"{CLI}::test_the_entry_points_run_main",),
    ),
    Mutant(
        "python -m ccopkit.cli not calling main", "cli.py",
        'if __name__ == "__main__":',
        'if __name__ == "__main_":',
        (f"{CLI}::test_the_entry_points_run_main",),
    ),
)

# Mutants that read the same as the original, so that no test can fail on
# them.  They are not run; their old texts are checked like the others.
EQUIVALENT = (
    # str and repr of an int are the same text
    Mutant("int formatted by repr", "cli.py", "    int: str,\n", "    int: repr,\n", ()),
)


def _patched(text: str, m: Mutant) -> str:
    if text.count(m.old) != 1:
        raise LookupError(f"{m.file}: the old text of {m.name!r} is found {text.count(m.old)} times, not once")
    return text.replace(m.old, m.new)


def _run(m: Mutant, src: Path, env: dict) -> str | None:
    """The summary line of the test that failed on m, or None if m survived;
    raises RuntimeError when the tests do not run."""
    path = src / "ccopkit" / m.file
    original = path.read_text()
    path.write_text(_patched(original, m))
    try:
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        path.write_text(original)
    if done.returncode not in (0, 1):  # 1: a test failed; anything else: they did not run
        raise RuntimeError(f"{m.name}: pytest exited {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    if done.returncode == 0:
        return None
    return next((line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "FAILED")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        try:
            for m in MUTANTS + EQUIVALENT:
                _patched((src / "ccopkit" / m.file).read_text(), m)
        except LookupError as exc:
            print(f"mutants: {exc}", file=sys.stderr)
            return 2
        # no bytecode: a mutant of the same size and second as the original
        # must not be served from a stale .pyc
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
        where = subprocess.run([sys.executable, "-c", "import ccopkit; print(ccopkit.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"mutants: the tests would import ccopkit from {where!r}, not from the copy", file=sys.stderr)
            return 2
        survivors = []
        for m in chosen:
            start = time.perf_counter()
            try:
                failed = _run(m, src, env)
            except RuntimeError as exc:
                print(f"mutants: {exc}", file=sys.stderr)
                return 2
            print(f"{time.perf_counter() - start:5.1f} s  {m.name}: {failed or 'SURVIVED'}", flush=True)
            if failed is None:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; {len(EQUIVALENT)} equivalent not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
