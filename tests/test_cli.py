import os
import re
import textwrap

import numpy as np
import pytest

import ccopkit.cli
from ccopkit.cli import LoadError, _build_parser, load_problem_file, main

from helpers import random_c, random_quadratic_source

DATA = os.path.join(os.path.dirname(__file__), "data")


def path(name):
    return os.path.join(DATA, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_load_problem_file_full_round_trip():
    pf = load_problem_file(path("well_ones.prob"))
    assert pf.problem.n == 2 and pf.problem.s == 1
    assert np.allclose(pf.c, [0.3, 0.7]) and pf.eps == 0.5
    assert not pf.override
    assert set(pf.points) == {"origin", "e1", "bad", "lifted_origin", "lifted_e1"}
    assert pf.points["lifted_origin"].size == 4


def test_load_problem_file_tolerance_overrides():
    pf = load_problem_file(path("constrained.prob"))
    assert pf.tol_overrides == {"tol_act": 1e-8}
    assert len(pf.problem.g) == 1


def test_the_documented_problem_files_load(tmp_path, capsys):
    # the examples of README "Problem files" and of the cli module docstring
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    docstring = re.search(r"comment line:\n\n((?:    .*\n|\n)+)", ccopkit.cli.__doc__).group(1)
    examples = {
        "readme": readme.split("### Problem files\n\n```\n", 1)[1].split("```", 1)[0],
        "docstring": textwrap.dedent(docstring),
    }
    for name, text in examples.items():
        assert "[points]" in text and "origin = " in text and "lifted = " in text, name
        file = tmp_path / f"{name}.prob"
        file.write_text(text)
        for argv in (["certify", str(file), "origin", "--side", "m"], ["check-licq", str(file), "lifted"]):
            code = main(argv)
            assert code != 3, (name, argv, capsys.readouterr().err)


def test_load_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("[problem]\nn = 2\n")  # missing s and f
    with pytest.raises(LoadError):
        load_problem_file(str(bad))
    bad.write_text("n = 2\n")
    with pytest.raises(LoadError, match="outside any section"):
        load_problem_file(str(bad))
    bad.write_text("[problem]\nn = 2\ns = 1\nf = \"x9\"\n")
    with pytest.raises(LoadError, match="out of range"):
        load_problem_file(str(bad))
    bad.write_text("[problem]\nn = 2\ns = 1\nf = \"x1\"\n[points]\np = [1, 2, 3]\n")
    with pytest.raises(LoadError, match="length 3"):
        load_problem_file(str(bad))
    # values of the wrong type are refused, naming the line, never coerced
    head = '[problem]\nn = 2\ns = 1\nf = "x1^2 + x2^2"\n'
    reg = '[regularization]\nc = [0.3, 0.7]\neps = 0.5\n'
    for text, line, what in [
        (head + reg + 'override = "false"\n', 8, "override must be true or false"),
        (head.replace("n = 2", "n = 2.7"), 2, "n must be an integer"),
        (head.replace("n = 2", "n = 1e400"), 2, "n must be a finite number"),
        (head.replace("s = 1", 's = "1"'), 3, "s must be a finite number"),
        (head + 'g = "x1"\n', 5, "g must be a list"),
        (head + 'h = ["x1", 2]\n', 5, "h must be a list"),
        (head.replace('f = "x1^2 + x2^2"', "f = 3"), 4, "f must be a quoted expression"),
        (head + "[points]\no = [true, 0]\n", 6, "point 'o' must be a finite number"),
        (head + "[points]\no = 0\n", 6, "point 'o' must be a list of numbers"),
        (head + reg.replace("0.3, 0.7", '"0.3", 0.7'), 6, "c must be a finite number"),
        (head + reg.replace("eps = 0.5", "eps = true"), 7, "eps must be a finite number"),
        (head + "[tolerances]\ntol_act = [1e-8]\n", 6, "tol_act must be a finite number"),
        (head + "s = 0\n", 5, "duplicate key 's' in \\[problem\\]"),
        (head + reg + "[points]\no = [0, 0]\n[points]\no = [1, 0]\n", 11, "duplicate key 'o'"),
        (head + reg.replace("eps = 0.5", "eps = 0.5\novveride = true"), 8,
         "unknown key 'ovveride' in \\[regularization\\]"),
        (head + "hh = []\n", 5, "unknown key 'hh' in \\[problem\\]"),
    ]:
        bad.write_text(text)
        with pytest.raises(LoadError, match=f"bad.prob:{line}: {what}"):
            load_problem_file(str(bad))


def test_certify_exit_codes(capsys):
    code, _ = run(capsys, "certify", path("well_ones.prob"), "e1", "--side", "m")
    assert code == 0
    code, _ = run(capsys, "certify", path("well_e1.prob"), "origin", "--side", "m")
    assert code == 1
    code, _ = run(capsys, "certify", path("well_ones.prob"), "bad", "--side", "m")
    assert code == 2
    code = main(["certify", path("well_ones.prob"), "missing", "--side", "m"])
    capsys.readouterr()
    assert code == 3


def test_undefined_expression_at_point_is_an_input_error(tmp_path, capsys):
    log_file = tmp_path / "log.prob"
    log_file.write_text(
        '[problem]\nn = 2\ns = 1\nf = "log(x1) + (x2-1)^2"\n'
        "[regularization]\nc = [0.3, 0.7]\neps = 0.5\n"
        "[points]\nzero = [0, 0]\nlifted_zero = [0, 0, 0, 1]\n"
    )
    for argv in (
        ["certify", str(log_file), "zero", "--side", "m"],
        ["certify", str(log_file), "lifted_zero", "--side", "t"],
        ["lift", str(log_file), "zero"],
        ["project", str(log_file), "lifted_zero"],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "ccopkit: log of a nonpositive value in subterm 'log(x1)'\n"


def test_non_finite_jets_are_an_input_error(tmp_path, capfd):
    """Overflowing values or derivatives exit 3 naming the expression; they
    once gave a "nondegenerate" verdict with residual inf, a nan residual, or
    LAPACK's DLASCL complaint on the process's own stderr."""
    well = open(path("well_ones.prob")).read()
    overflow = tmp_path / "overflow.prob"
    overflow.write_text(well + "far = [1e200, 0]\nfarther = [1e308, 0]\n"
                        "lifted_far = [1e200, 0, 0, 1]\nlifted_farther = [1e308, 0, 0, 1]\n")
    nan = tmp_path / "nan.prob"
    nan.write_text(well.replace("[regularization]", 'h = ["exp(x1)*x2"]\n[regularization]')
                   + "far = [1e200, 0]\nlifted_far = [1e200, 0, 0, 1]\n")
    for file, points in ((overflow, ("far", "farther")), (nan, ("far",))):
        for point in points:
            for argv in (
                ["certify", str(file), point, "--side", "m"],
                ["certify", str(file), f"lifted_{point}", "--side", "t"],
                ["check-licq", str(file), point],
                ["check-licq", str(file), f"lifted_{point}"],
            ):
                assert main(argv) == 3, argv
                captured = capfd.readouterr()
                assert captured.out == ""
                assert "DLASCL" not in captured.err
                assert captured.err.startswith("ccopkit: value or derivative not finite at the point")


def test_dense_quadratic_with_400_terms_loads_and_certifies(tmp_path, capsys):
    from ccopkit import eval2, parse

    from helpers import random_quadratic_source

    n, s = 27, 3
    f = random_quadratic_source(np.random.default_rng(3), n)  # n(n+3)/2 = 405 terms
    jet = eval2(parse(f, n), np.zeros(n))
    x = np.zeros(n)  # stationary on the support {1, 2, 3}
    x[:s] = np.linalg.solve(jet.hessian[:s, :s], -jet.gradient[:s])
    big = tmp_path / "dense.prob"
    big.write_text(
        f'[problem]\nn = {n}\ns = {s}\nf = "{f}"\n'
        f"[points]\np = [{', '.join(repr(float(v)) for v in x)}]\n"
    )
    code, out = run(capsys, "certify", str(big), "p", "--side", "m", "--format", "machine")
    assert code == 0
    assert "certificate.stationary = true" in out


def test_certify_t_side_regression(capsys):
    code, out = run(
        capsys, "certify", path("well_e1.prob"), "lifted_origin", "--side", "t",
        "--format", "machine",
    )
    assert code == 1
    assert 'certificate.reason = "NDT5"' in out
    assert "certificate.ndt.4 = true" in out
    assert "certificate.ndt.5 = false" in out


def test_certify_t_side_clean_point(capsys):
    code, out = run(
        capsys, "certify", path("well_ones.prob"), "lifted_origin", "--side", "t",
        "--format", "machine",
    )
    assert code == 0
    assert 'verdict = "nondegenerate"' in out
    assert "certificate.index.t = 1" in out


def test_certify_t_requires_regularization_section(tmp_path, capsys):
    plain = tmp_path / "plain.prob"
    plain.write_text('[problem]\nn = 2\ns = 1\nf = "x1^2 + x2^2"\n[points]\np = [0, 0, 0, 1]\n')
    code = main(["certify", str(plain), "p", "--side", "t"])
    capsys.readouterr()
    assert code == 3


def test_lift_and_project_commands(capsys):
    code, out = run(capsys, "lift", path("well_ones.prob"), "origin", "--format", "machine")
    assert code == 0
    assert "expected_count = 1" in out
    assert "companion.0.y = [0.0, 1.0]" in out
    code, _ = run(capsys, "lift", path("well_ones.prob"), "bad")
    assert code == 2
    code, out = run(capsys, "project", path("well_ones.prob"), "lifted_e1", "--format", "machine")
    assert code == 0
    assert "projected.index.m = 0" in out


def test_lift_reports_a_failed_cross_check_as_a_verdict(tmp_path, capsys):
    """A constraint coefficient of 1e-3 puts an M-point at x1 = 400 with
    multipliers near 1e6, where lift's multiplier cross-check fails; the
    command reports that as a verdict, not a traceback."""
    from ccopkit import census_quadratic

    from helpers import affine_source, random_c, random_quadratic_source

    n, s = 4, 1
    rng = np.random.default_rng(0)
    f = random_quadratic_source(rng, n)
    h = affine_source(np.array([1e-3, 0.8, -0.6, 0.9]), -0.4)
    c = ", ".join(repr(float(v)) for v in random_c(rng, n))
    prob = tmp_path / "tiny_coefficient.prob"
    prob.write_text(
        f'[problem]\nn = {n}\ns = {s}\nf = "{f}"\nh = ["{h}"]\n'
        f"[regularization]\nc = [{c}]\neps = {0.5 / (n - s)!r}\n"
    )
    points = [x for x, cert in census_quadratic(load_problem_file(str(prob)).problem).m_points
              if cert.nondegenerate]
    with prob.open("a") as out:
        out.write("[points]\n")
        for k, x in enumerate(points):
            out.write(f"p{k} = [{', '.join(repr(float(v)) for v in x)}]\n")
    verdicts = []
    for k in range(len(points)):
        code, out = run(capsys, "lift", str(prob), f"p{k}", "--format", "machine")
        verdicts.append((code, 'verdict = "correspondence-violated"' in out))
        if code == 1:
            assert 'reason = "lift Ebar=' in out
    assert (1, True) in verdicts and set(verdicts) <= {(0, False), (1, True)}


def test_lift_with_too_many_companions_is_an_input_error(tmp_path, capsys):
    """At x = 0 with n=70, s=35 the companion count binom(69, 34) exceeds
    64 bits; lift raises before it enumerates any companion, and the
    command exits 3 naming the count instead of printing a traceback."""
    n, s = 70, 35
    f = " + ".join(f"(x{i}-1)^2" for i in range(1, n + 1))
    c = ", ".join(repr(0.01 * i) for i in range(1, n + 1))
    prob = tmp_path / "wide.prob"
    prob.write_text(
        f'[problem]\nn = {n}\ns = {s}\nf = "{f}"\n'
        f"[regularization]\nc = [{c}]\neps = {1.0 / n!r}\n"
        f"[points]\nzero = [{', '.join(['0'] * n)}]\n"
    )
    assert main(["lift", str(prob), "zero"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ccopkit: companion count binom(69, 34) exceeds 64-bit range\n"


def test_census_command_and_verdict(capsys):
    code, out = run(capsys, "census", path("well_ones.prob"), "--format", "machine")
    assert code == 0
    assert "m.by_index.0 = 2" in out
    assert "m.by_index.1 = 1" in out
    assert "t.by_index.1 = 1" in out
    assert 'verdict = "ok"' in out


def test_census_quadratic_rejects_transcendental(tmp_path, capsys):
    cos_file = tmp_path / "cos.prob"
    cos_file.write_text('[problem]\nn = 2\ns = 1\nf = "(x1-1)^2 + cos(x2)"\n')
    code = main(["census", str(cos_file), "--side", "m", "--method", "quadratic"])
    capsys.readouterr()
    assert code == 4
    code, out = run(capsys, "census", str(cos_file), "--side", "m", "--method", "newton")
    assert code == 0


def test_census_override_fixture(capsys):
    code, out = run(
        capsys, "census", path("well_ones_relaxed.prob"), "--side", "t", "--format", "machine"
    )
    assert code == 0
    assert "complete = false" in out
    assert out.count('.reason = "NDT') >= 3


def test_census_refusals_name_cli_spellings(tmp_path, capsys):
    """A T census the parameters rule out is refused with exit 3, naming the
    option or file key to use, not a library call."""
    relaxed = path("well_ones_relaxed.prob")
    plain = tmp_path / "plain.prob"
    with open(relaxed, encoding="utf-8") as src:
        plain.write_text(src.read().replace("override = true", "override = false"))
    cases = [(relaxed, side, "newton", "--method quadratic") for side in ("t", "both")]
    cases += [(str(plain), side, "quadratic", "--override-assumption1") for side in ("t", "both")]
    for file, side, method, hint in cases:
        code = main(["census", file, "--side", side, "--method", method])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert hint in captured.err and "override = true" in captured.err
        assert "census_t_quadratic" not in captured.err and "override=True" not in captured.err


def test_certify_and_project_refusals_name_cli_spellings(tmp_path, capsys):
    """Certifying a lifted point on parameters that break the assumption is
    refused with exit 3 in the CLI's spellings; either spelling of override
    lets it through."""
    plain = tmp_path / "plain.prob"
    with open(path("well_ones_relaxed.prob"), encoding="utf-8") as src:
        plain.write_text(src.read().replace("override = true", "override = false"))
    for argv in (["certify", str(plain), "lifted_e1", "--side", "t"], ["project", str(plain), "lifted_e1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "override = true" in captured.err and "--override-assumption1" in captured.err
        assert "override=True" not in captured.err
        assert main(argv + ["--override-assumption1"]) != 3
        capsys.readouterr()
    assert main(["certify", path("well_ones_relaxed.prob"), "lifted_e1", "--side", "t"]) != 3


def test_consecutive_main_calls_carry_no_option_over(tmp_path, capsys):
    """The parser is built once per process, and a flag of one call is not
    a default of the next."""
    plain = tmp_path / "plain.prob"
    with open(path("well_ones_relaxed.prob"), encoding="utf-8") as src:
        plain.write_text(src.read().replace("override = true", "override = false"))
    certify = ["certify", str(plain), "lifted_e1", "--side", "t"]
    code, out = run(capsys, *certify, "--override-assumption1", "--format", "machine")
    assert code != 3 and out.startswith('schema = "ccopkit-report/1"')
    code = main(certify)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "--override-assumption1" in captured.err
    args = ("certify", path("well_ones.prob"), "e1", "--side", "m")
    _, human = run(capsys, *args, "--format", "human")
    _, machine = run(capsys, *args, "--format", "machine")
    _, default = run(capsys, *args)
    assert default == human != machine
    assert _build_parser() is _build_parser()


def test_check_licq_both_sides(capsys):
    code, out = run(capsys, "check-licq", path("well_ones.prob"), "origin")
    assert code == 0 and "holds = true" in out
    code, out = run(capsys, "check-licq", path("well_ones.prob"), "lifted_origin")
    assert code == 0 and "holds = true" in out


def test_check_licq_answers_without_override_on_parameters_that_violate_the_assumption(capsys, tmp_path):
    # certify and lift refuse c = 0, eps = 0 without override (exit 3);
    # check-licq answers as with override
    with open(path("well_ones_relaxed.prob")) as f:
        text = f.read()
    assert "override = true" in text
    file = tmp_path / "relaxed_no_override.prob"
    file.write_text(text.replace("override = true", "override = false"))
    code, out = run(capsys, "certify", str(file), "lifted_e1", "--side", "t")
    assert code == 3
    answers = []
    for name in (str(file), path("well_ones_relaxed.prob")):
        code, out = run(capsys, "check-licq", name, "lifted_e1", "--format", "machine")
        assert code in (0, 1)
        answers.append((code, [line for line in out.splitlines() if line.startswith("holds")]))
    assert answers[0] == answers[1]


def test_verify_command_green(capsys):
    code, out = run(capsys, "verify", path("well_ones.prob"), "--format", "machine")
    assert code == 0
    assert "failures = 0" in out


def test_verify_checks_every_stationary_y_in_one_call(capsys, monkeypatch):
    shapes, check = [], ccopkit.cli.check_y_structure

    def spy(rp, y, tol):
        shapes.append(np.shape(y))
        return check(rp, y, tol)

    monkeypatch.setattr(ccopkit.cli, "check_y_structure", spy)
    for name in ("well_ones.prob", "constrained.prob"):
        code, out = run(capsys, "verify", path(name), "--format", "machine")
        rows = out.count('name = "y-structure"')
        assert code == 0 and rows >= 1 and shapes.pop() == (rows, 2) and not shapes


def test_verify_at_the_papers_scale(capsys, tmp_path):
    # the seed-7 n=10, s=6 quadratic: 848 M-points, 7,937 T-points
    rng = np.random.default_rng(7)
    n, s = 10, 6
    f = random_quadratic_source(rng, n)
    c = ", ".join(repr(float(v)) for v in random_c(rng, n))
    prob = tmp_path / "n10.prob"
    prob.write_text(f'[problem]\nn = {n}\ns = {s}\nf = "{f}"\n\n'
                    f"[regularization]\nc = [{c}]\neps = {0.5 / (n - s)!r}\n")
    code, out = run(capsys, "verify", str(prob), "--format", "machine")
    rows = dict(line.split(" = ", 1) for line in out.splitlines())
    assert code == 0
    assert (rows["m.count"], rows["t.count"], rows["checks"], rows["failures"]) == ("848", "7937", "17579", "0")
    # the counts by index, so that a moved index fails and not only a moved total
    for side, counts in (("m", [7, 84, 245, 280, 168, 56, 8]), ("t", [7, 147, 875, 2205, 2709, 1617, 377])):
        got = {key: int(v) for key, v in rows.items() if key.startswith(f"{side}.by_index.")}
        assert got == {f"{side}.by_index.{k}": v for k, v in enumerate(counts)}


def test_reports_are_byte_identical_across_runs(capsys):
    args = ("census", path("well_ones.prob"), "--format", "machine")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    args = ("certify", path("well_e1.prob"), "lifted_origin", "--side", "t")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_machine_format_is_flat_key_value(capsys):
    _, out = run(
        capsys, "certify", path("well_ones.prob"), "e1", "--side", "m", "--format", "machine"
    )
    lines = [line for line in out.strip().splitlines()]
    assert all(" = " in line for line in lines)
    assert lines[0] == 'schema = "ccopkit-report/1"'
    assert "tolerances.tol_feas = 1e-09" in lines


@pytest.mark.parametrize("flag", ["--tol-feas", "--tol-act", "--tol-rank", "--tol-strict"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_flags_exit_3(flag, value, capsys):
    # as the same values in [tolerances] do; a NaN tolerance once read every
    # point as infeasible and reported an empty census with exit 0
    code = main(["census", path("well_ones.prob"), "--side", "m", flag, value])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    name = flag[2:].replace("-", "_")
    assert captured.err == f"ccopkit: {name} must be a finite number, got {float(value)!r}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        # each was once accepted: a NaN bound failed every start with exit 0,
        # an infinite one printed numpy warnings, the wide box overflowed
        # linspace and -3 points made an empty grid
        (["--grid-lo", "nan"], "--grid-lo must be a finite number, got nan"),
        (["--grid-hi", "inf"], "--grid-hi must be a finite number, got inf"),
        (["--grid-lo=1e308", "--grid-hi=-1e308"],
         "--grid-hi - --grid-lo must be a finite number, got -inf"),
        (["--grid-points", "-3"], "--grid-points must be nonnegative, got -3"),
    ],
)
@pytest.mark.parametrize("command", ["census", "verify"])
def test_invalid_grid_flags_exit_3(command, flags, message, capsys):
    argv = [command, path("well_e1.prob"), *flags]
    if command == "census":
        argv += ["--method", "newton"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"ccopkit: {message}\n"


def test_an_empty_grid_is_a_note(capsys):
    code, out = run(capsys, "census", path("well_e1.prob"), "--method", "newton", "--side", "m",
                    "--grid-points", "0", "--format", "machine")
    assert code == 0 and 'note.0 = "empty grid"' in out


def test_tolerance_flag_overrides_file(capsys):
    _, out = run(
        capsys, "certify", path("constrained.prob"), "origin", "--side", "m",
        "--tol-act", "1e-6", "--format", "machine",
    )
    assert "tolerances.tol_act = 1e-06" in out
