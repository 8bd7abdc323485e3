"""Property tests: no problem file makes the CLI fail with a traceback,
neither in `certify --side m` on arbitrary points nor in any of its six
subcommands on points named from the file's census."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ccopkit.cli import load_problem_file, main  # noqa: E402

_NUMBERS = ("0", "1", "2", "-1", "2.7", "0.5", "1e-8", "1e200", "-0.0")
_EXPRESSIONS = (
    "x1^2 + x2^2", "(x1-1)^2 + (x2-1)^2", "log(x1)", "x1/x2", "x1^-1", "exp(x1)*x2",
    "sin(x1) + cos(x2)", "x1 - 1", "x2",
)
_UNDEFINED_AT_0 = ("log(x1)", "x1/x2", "x1^-1")  # where x1 or x2 is 0
_SMOOTH = tuple(e for e in _EXPRESSIONS if e not in _UNDEFINED_AT_0)
_number = st.sampled_from(_NUMBERS)
_quoted = st.sampled_from(_EXPRESSIONS).map(lambda e: f'"{e}"')
_mostly_smooth = st.sampled_from(_SMOOTH * 3 + _UNDEFINED_AT_0).map(lambda e: f'"{e}"')
_bad = st.sampled_from(("1e400", "nan", "true", '"false"', '"x3"', '"x1 +"', '"sin(x1"'))
_any = st.one_of(_number, _quoted, _bad, st.just('"' + "-" * 300 + 'x1"'))


def _list(items, min_size, max_size):
    return st.lists(items, min_size=min_size, max_size=max_size).map(lambda v: f"[{', '.join(v)}]")


def _text(draw, entries, faults):
    """The file of entries, after one fault drawn from faults: a value of
    any type, a repeated key or header, or a missing key (None for none)."""
    k = draw(st.integers(0, len(entries) - 1))
    fault = draw(st.sampled_from(faults))
    if fault == "value":
        entries[k] = entries[k][:2] + (draw(_any | _list(_any, 0, 3)),)
    elif fault == "repeat":
        entries.append(entries[k])
    elif fault == "drop":
        del entries[k]
    lines, current = [], None
    for section, key, value in entries:
        if section != current or fault == "header":
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@st.composite
def _files(draw):
    """A mostly well-formed file with at most one fault: a value of any
    type, a repeated key or header, or a missing key."""
    n = draw(st.sampled_from((2, 3, 1)))
    entries = [
        ("problem", "n", str(n)),
        ("problem", "s", draw(st.sampled_from("01"))),
        ("problem", "f", draw(_quoted)),
        ("problem", "h", draw(_list(_quoted, 0, 1))),
        ("problem", "g", draw(_list(_quoted, 0, 1))),
        ("regularization", "c", draw(_list(_number, n, n))),
        ("regularization", "eps", draw(_number)),
        ("regularization", "override", draw(st.sampled_from(("false", "true")))),
        ("points", "p", draw(_list(_number, n, n) | _list(_number, 2 * n, 2 * n))),
        ("tolerances", "tol_act", draw(st.sampled_from(("1e-8", "1e-6", "0.5")))),
    ]
    return _text(draw, entries, (None, "value", "repeat", "drop", "header"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_files())
def test_any_problem_file_gives_an_exit_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.prob"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", str(path), "p", "--side", "m"])
    assert code in (0, 1, 2, 3, 4)


@st.composite
def _admissible_files(draw):
    """A file as _files draws it, but with a fault in four files of seven,
    f, h and g mostly smooth, and (c, eps) admissible nine times in ten; its
    points p (an x) and q (an (x, y)) are the placeholders @x and @xy,
    unless the fault hits them."""
    n = draw(st.sampled_from((2, 3)))
    if draw(st.sampled_from((True,) * 9 + (False,))):
        c = f"[{', '.join(draw(st.permutations(('0.2', '0.5', '0.8')))[:n])}]"  # positive, distinct
        eps = draw(st.sampled_from(("0.1", "0.25")))  # at most 1/(n - s) for n <= 3
    else:
        c, eps = draw(_list(_number, n, n)), draw(_number)
    entries = [
        ("problem", "n", str(n)),
        ("problem", "s", draw(st.sampled_from("01"))),
        ("problem", "f", draw(_mostly_smooth)),
        ("problem", "h", draw(_list(_mostly_smooth, 0, 1))),
        ("problem", "g", draw(_list(_mostly_smooth, 0, 1))),
        ("regularization", "c", c),
        ("regularization", "eps", eps),
        ("regularization", "override", draw(st.sampled_from(("false", "true")))),
        ("points", "p", "@x"),
        ("points", "q", "@xy"),
        ("tolerances", "tol_act", draw(st.sampled_from(("1e-8", "1e-6", "0.5")))),
    ]
    return n, _text(draw, entries, (None, None, None, "value", "repeat", "drop", "header"))


def _run(argv, codes):
    """main(argv)'s exit code, appended to codes, after checking that it is
    one of the documented codes and that an input error (3) is one named
    line on stderr and nothing on stdout; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    if code == 3:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("ccopkit: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    codes.append(code)
    return out.getvalue()


def _census_points(path, n, pick, codes):
    """The text of an x and of an (x, y) from the census of the file at path
    (by the quadratic method, else on a Newton grid of one start): the
    pick-th point of each side that the census lists, zeros for the others."""
    out = _run(["census", path, "--format", "machine"], codes)
    if codes[-1] == 4:
        out = _run(["census", path, "--method", "newton", "--grid-points", "1", "--format", "machine"], codes)
    rows = dict(line.split(" = ", 1) for line in out.splitlines())
    m, t = int(rows.get("m.count", 0)), int(rows.get("t.count", 0))
    x = rows[f"m.point.{pick % m}.x"] if m else _zeros(n)
    if not t:
        return x, _zeros(2 * n)
    return x, f"{rows[f't.point.{pick % t}.x'][:-1]}, {rows[f't.point.{pick % t}.y'][1:]}"


def _zeros(n):
    return f"[{', '.join(['0'] * n)}]"


def _write(path, text, x, xy):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace("@xy", xy).replace("@x", x))


def _every_subcommand(path, n, text, pick, codes):
    """Census of the file written to path with zero points, then, unless
    the loader refuses the file, certify on both sides, lift, project,
    check-licq and verify with the census's points."""
    _write(path, text, _zeros(n), _zeros(2 * n))
    points = _census_points(path, n, pick, codes)
    try:
        load_problem_file(path)
    except ValueError:  # every subcommand loads the file first, and refuses it as census did
        return
    _write(path, text, *points)
    for argv in (["certify", path, "p", "--side", "m"], ["certify", path, "q", "--side", "t"], ["lift", path, "p"],
                 ["project", path, "q"], ["check-licq", path, "p"], ["verify", path, "--grid-points", "1"]):
        _run(argv, codes)


@pytest.mark.hypothesis  # as @given marks a test: its draws are Hypothesis's
def test_every_subcommand_gives_an_exit_code_on_any_problem_file(tmp_path_factory):
    path = str(tmp_path_factory.getbasetemp() / "fuzz-all.prob")
    codes = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(drawn=_admissible_files(), pick=st.integers(0, 20))
    def every_subcommand(drawn, pick):
        _every_subcommand(path, *drawn, pick, codes)

    every_subcommand()
    verdicts = sum(code <= 2 for code in codes)  # 0 to 2: a verdict
    assert verdicts >= len(codes) / 2, (verdicts, len(codes))
