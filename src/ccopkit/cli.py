"""Command-line surface for certification, lifting, censuses and verification.

Problem files are plain UTF-8 text with bracketed section headers and
``key = value`` lines; expression strings are double quoted, vectors are
bracketed lists, and ``#`` starts a comment line:

    [problem]
    n = 2
    s = 1
    f = "(x1-1)^2 + (x2-1)^2"
    # optional equality (h) and inequality (g) constraints
    h = []
    g = []

    # optional
    [regularization]
    c = [0.3, 0.7]
    eps = 0.5
    override = false

    # named points: length n (x) or 2n (x, y)
    [points]
    origin = [0, 0]
    lifted = [0, 0, 0, 1]

    # optional overrides
    [tolerances]
    tol_feas = 1e-9

Reports come in two formats, both deterministic (byte-identical across runs
on the same input).  The machine format is a flat sequence of ``key = value``
lines: booleans are ``true``/``false``, missing values are ``none``, floats
use shortest round-trip notation, vectors are bracketed lists, strings are
double quoted.  The human format shows the same rows grouped per section.

Exit codes: 0 stationary and fully nondegenerate (for certify) or all
checks passed; 1 stationary but degenerate / some check failed; 2 not
stationary; 3 input error, including a file value of the wrong type, an
unknown key, and a point at which an expression is undefined (log of a
nonpositive value, division by zero) or has a non-finite value or
derivative; 4 quadratic census requested on a non-quadratic instance.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys

import numpy as np

from .bridge import BridgeError, CountCheck, NotStationaryError, _rounded, lift, project, verify_counts
from .ccop import MCertificate, Problem, _point, certify_m, check_cc_licq, evaluate
from .exprcore import ExprDomainError, ExprSyntaxError, parse
from .numkern import Tolerances
from .oracle import (
    CensusReport,
    GridSpec,
    census_newton,
    census_quadratic,
    census_t_quadratic,
    is_quadratic_affine,
    merge_censuses,
)
from .regmpoc import (
    AssumptionError,
    RegularizedProblem,
    TCertificate,
    certify_t,
    check_mpoc_licq,
    check_y_structure,
    make_regularized,
)

__all__ = ["main", "load_problem_file", "ProblemFile", "LoadError"]


class LoadError(ValueError):
    """Problem file malformed or inconsistent."""


@dataclasses.dataclass
class ProblemFile:
    problem: Problem
    c: np.ndarray | None
    eps: float | None
    override: bool
    points: dict[str, np.ndarray]
    tol_overrides: dict[str, float]


# ---------------------------------------------------------------------------
# Problem file parsing

_TOL_KEYS = tuple(f.name for f in dataclasses.fields(Tolerances))
# section -> the keys it may hold; any name is a key in [points]
_SECTIONS = {
    "problem": ("n", "s", "f", "h", "g"),
    "regularization": ("c", "eps", "override"),
    "points": None,
    "tolerances": _TOL_KEYS,
}


def _parse_scalar(raw: str, where: str):
    raw = raw.strip()
    if raw.startswith('"'):
        if not raw.endswith('"') or len(raw) < 2:
            raise LoadError(f"{where}: unterminated string {raw!r}")
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return float(raw)
    except ValueError:
        raise LoadError(f"{where}: cannot parse value {raw!r}") from None


def _parse_value(raw: str, where: str):
    raw = raw.strip()
    if not raw.startswith("["):
        return _parse_scalar(raw, where)
    if not raw.endswith("]"):
        raise LoadError(f"{where}: unterminated list {raw!r}")
    body = raw[1:-1].strip()
    if not body:
        return []
    items, quote, start = [], False, 0
    for k, ch in enumerate(body):
        if ch == '"':
            quote = not quote
        elif ch == "," and not quote:
            items.append(body[start:k])
            start = k + 1
    items.append(body[start:])
    return [_parse_scalar(item, where) for item in items]


def _read_sections(text: str, origin: str) -> dict[str, dict[str, tuple[object, str]]]:
    """Section -> key -> (value, "file:line"); a repeated key is an error."""
    sections: dict[str, dict[str, tuple[object, str]]] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{origin}:{lineno}"
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise LoadError(f"{where}: malformed section header {stripped!r}")
            current = stripped[1:-1].strip()
            if current not in _SECTIONS:
                raise LoadError(f"{where}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise LoadError(f"{where}: key outside any section")
        if "=" not in stripped:
            raise LoadError(f"{where}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if _SECTIONS[current] is not None and key not in _SECTIONS[current]:
            raise LoadError(f"{where}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise LoadError(f"{where}: duplicate key '{key}' in [{current}]")
        sections[current][key] = (_parse_value(raw, where), where)
    return sections


def _number(key: str, entry: tuple[object, str]) -> float:
    value, where = entry
    if not isinstance(value, float) or not np.isfinite(value):
        raise LoadError(f"{where}: {key} must be a finite number, got {value!r}")
    return value


def _integer(key: str, entry: tuple[object, str]) -> int:
    value = _number(key, entry)
    if not value.is_integer():
        raise LoadError(f"{entry[1]}: {key} must be an integer, got {value!r}")
    return int(value)


def _vector(key: str, entry: tuple[object, str]) -> np.ndarray:
    value, where = entry
    if not isinstance(value, list):
        raise LoadError(f"{where}: {key} must be a list of numbers, got {value!r}")
    return np.asarray([_number(key, (v, where)) for v in value], dtype=float)


def _expressions(key: str, entry: tuple[object, str]) -> list[str]:
    value, where = entry
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise LoadError(f"{where}: {key} must be a list of quoted expressions, got {value!r}")
    return value


def load_problem_file(path: str) -> ProblemFile:
    """Load and validate a problem file.

    Values must have their documented type: n and s integers, f a quoted
    expression, h and g lists of them, override a bare true/false, and every
    other value a finite number or a list of finite numbers.  A key that its
    section does not define is refused, naming the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from None
    sections = _read_sections(text, path)

    if "problem" not in sections:
        raise LoadError(f"{path}: missing [problem] section")
    prob = sections["problem"]
    for key in ("n", "s", "f"):
        if key not in prob:
            raise LoadError(f"{path}: [problem] requires {key}")
    n = _integer("n", prob["n"])
    s = _integer("s", prob["s"])
    f_src, where = prob["f"]
    if not isinstance(f_src, str):
        raise LoadError(f"{where}: f must be a quoted expression, got {f_src!r}")
    try:
        f = parse(f_src, n)
        h = tuple(parse(src, n) for src in _expressions("h", prob.get("h", ([], path))))
        g = tuple(parse(src, n) for src in _expressions("g", prob.get("g", ([], path))))
    except ExprSyntaxError as exc:
        raise LoadError(f"{path}: {exc}") from None
    try:
        problem = Problem(n, s, f, h, g)
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from None

    c = eps = None
    override = False
    if "regularization" in sections:
        reg = sections["regularization"]
        if "c" not in reg or "eps" not in reg:
            raise LoadError(f"{path}: [regularization] requires c and eps")
        c = _vector("c", reg["c"])
        if c.shape != (n,):
            raise LoadError(f"{path}: c has length {c.size}, expected {n}")
        eps = _number("eps", reg["eps"])
        override, where = reg.get("override", (False, path))
        if not isinstance(override, bool):
            raise LoadError(f"{where}: override must be true or false, got {override!r}")

    points: dict[str, np.ndarray] = {}
    for key, entry in sections.get("points", {}).items():
        vec = _vector(f"point '{key}'", entry)
        if vec.size not in (n, 2 * n):
            raise LoadError(f"{entry[1]}: point '{key}' has length {vec.size}, expected {n} or {2 * n}")
        points[key] = vec

    tol_overrides: dict[str, float] = {}
    for key, entry in sections.get("tolerances", {}).items():
        tol_overrides[key] = _number(key, entry)

    return ProblemFile(problem, c, eps, override, points, tol_overrides)


# ---------------------------------------------------------------------------
# Report rendering


def _fmt(value) -> str:
    """A report value as text: none, true/false, int, shortest round-trip
    float, quoted string, or a bracketed list of formatted items.

    The types a report row holds most are looked up by exact type first: a
    float, int, str, None or bool, and a 1-D float64 array, formatted as one
    repr per element of its tolist().  Every other value (numpy scalars,
    subclasses, other arrays, lists and tuples) goes through _fmt_any, where
    a subclass of int, float or str gets the text of its base type."""
    exact = _FMT_EXACT.get(type(value))
    return _fmt_any(value) if exact is None else exact(value)


def _fmt_any(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_fmt, value)) + "]"
    return f'"{value}"'


def _fmt_array(value: np.ndarray) -> str:
    if value.ndim == 1 and value.dtype == np.float64:
        return "[" + ", ".join(map(repr, value.tolist())) + "]"
    return _fmt_any(value)


_FMT_EXACT = {
    float: repr,
    int: str,
    str: '"{}"'.format,
    type(None): lambda _: "none",
    bool: lambda v: "true" if v else "false",
    np.ndarray: _fmt_array,
}


class Report:
    def __init__(self, kind: str, tol: Tolerances):
        self.rows: list[tuple[str, str]] = []
        self.add("schema", "ccopkit-report/1")
        self.add("kind", kind)
        for name in _TOL_KEYS:
            self.add(f"tolerances.{name}", getattr(tol, name))

    def add(self, key: str, value):
        self.rows.append((key, _fmt(value)))

    def render(self, fmt: str) -> str:
        if fmt == "machine":
            return "\n".join(f"{k} = {v}" for k, v in self.rows) + "\n"
        out = []
        previous = None
        for key, value in self.rows:
            head = key.split(".", 1)[0]
            if head != previous:
                if previous is not None:
                    out.append("")
                previous = head
            out.append(f"{key} = {value}")
        return "\n".join(out) + "\n"


def _add_certificate(rep: Report, prefix: str, cert: MCertificate | TCertificate):
    """Rows of an M- or a T-certificate, walked in the order its fields are
    declared (see MCertificate): activity, multiplier groups, flags, indices."""
    names = [f.name for f in dataclasses.fields(cert)]
    rep.add(f"{prefix}.feasible", cert.feasible)
    rep.add(f"{prefix}.stationary", cert.stationary)
    rep.add(f"{prefix}.residual", cert.residual)
    for f in dataclasses.fields(cert.activity):
        key = "E" if f.name == "Ecal" else f.name
        rep.add(f"{prefix}.activity.{key}", getattr(cert.activity, f.name))
    for name in names[names.index("activity") + 1 : names.index("residual")]:
        group = getattr(cert, name)
        if isinstance(group, dict):
            for i, v in group.items():
                rep.add(f"{prefix}.multipliers.{name}.{i}", v)
        else:
            rep.add(f"{prefix}.multipliers.{name}", group)
    rep.add(f"{prefix}.multipliers.unique", not cert.non_unique)
    flags = names[names.index("residual") + 1]
    for k, flag in enumerate(getattr(cert, flags), start=1):
        rep.add(f"{prefix}.{flags}.{k}", flag)
    for i, branches in getattr(cert, "eq8_branches", {}).items():
        rep.add(f"{prefix}.disjunction.{i}", list(branches))
    for name in names:
        if name.endswith("_index"):
            rep.add(f"{prefix}.index.{name.removesuffix('_index')}", getattr(cert, name))
    rep.add(f"{prefix}.reason", cert.degenerate_reason)


# ---------------------------------------------------------------------------
# Shared command plumbing


def _start(args) -> tuple[ProblemFile, Tolerances, Report]:
    """The problem file of a command, its tolerances (the file's, and the
    flags' over them), and its report, which begins with the file."""
    pf = load_problem_file(args.file)
    merged = dict(pf.tol_overrides)
    for name in _TOL_KEYS:
        flag = getattr(args, name)
        if flag is not None:
            merged[name] = flag
    tol = Tolerances(**merged)
    rep = Report(args.command, tol)
    rep.add("file", args.file)
    return pf, tol, rep


def _regularized(pf: ProblemFile, args, tol: Tolerances) -> RegularizedProblem:
    if pf.c is None:
        raise LoadError("this command needs a [regularization] section")
    override = pf.override or args.override_assumption1
    return make_regularized(pf.problem, pf.c, pf.eps, override=override, tol=tol)


def _refuse_uncertifiable(rp: RegularizedProblem, purpose: str) -> None:
    """Refuse parameters that break the (c, eps) assumption, in CLI spellings."""
    if not (rp.assumption1_ok or rp.override):
        raise AssumptionError(
            "regularization parameters violate the assumption; set override = true "
            f"or pass --override-assumption1 {purpose}"
        )


def _named_point(pf: ProblemFile, name: str) -> np.ndarray:
    if name not in pf.points:
        raise LoadError(f"no point named '{name}' in file (have: {sorted(pf.points)})")
    return pf.points[name]


def _split_xy(pf: ProblemFile, vec: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    n = pf.problem.n
    if vec.size != 2 * n:
        raise LoadError(f"point '{name}' has length {vec.size}; a lifted point needs {2 * n}")
    return vec[:n], vec[n:]


def _emit(rep: Report, args) -> None:
    sys.stdout.write(rep.render(args.format))


# ---------------------------------------------------------------------------
# Subcommands


def _bridge_failure(rep: Report, args, exc: Exception) -> int:
    """Verdict, reason and exit code of a lift or project that raised."""
    stationary = not isinstance(exc, NotStationaryError)
    rep.add("verdict", "correspondence-violated" if stationary else "not-stationary")
    rep.add("reason", str(exc))
    _emit(rep, args)
    return 1 if stationary else 2


def cmd_certify(args) -> int:
    pf, tol, rep = _start(args)
    vec = _named_point(pf, args.point)
    rep.add("point", args.point)
    rep.add("side", args.side)

    if args.side == "m":
        if vec.size != pf.problem.n:
            raise LoadError(f"point '{args.point}' has length {vec.size}; side m needs {pf.problem.n}")
        cert = certify_m(pf.problem, vec, tol)
        rep.add("x", vec)
        _add_certificate(rep, "certificate", cert)
        clean = cert.nondegenerate
    else:
        rp = _regularized(pf, args, tol)
        x, y = _split_xy(pf, vec, args.point)
        _refuse_uncertifiable(rp, "to certify anyway")
        cert = certify_t(rp, x, y, tol)
        rep.add("x", x)
        rep.add("y", y)
        _add_certificate(rep, "certificate", cert)
        clean = cert.nondegenerate and cert.ndt[4]

    if not cert.stationary:
        rep.add("verdict", "not-stationary" if cert.feasible else "infeasible")
        _emit(rep, args)
        return 2
    rep.add("verdict", "nondegenerate" if clean else "degenerate")
    _emit(rep, args)
    return 0 if clean else 1


def cmd_lift(args) -> int:
    pf, tol, rep = _start(args)
    rp = _regularized(pf, args, tol)
    vec = _named_point(pf, args.point)
    if vec.size != pf.problem.n:
        raise LoadError(f"point '{args.point}' has length {vec.size}; lift needs an x of length {pf.problem.n}")
    rep.add("point", args.point)
    rep.add("x", vec)
    try:
        ls = lift(rp, vec, tol)
    except (NotStationaryError, BridgeError) as exc:
        return _bridge_failure(rep, args, exc)
    _add_certificate(rep, "base", ls.base_certificate)
    rep.add("ibar", ls.ibar)
    rep.add("expected_count", ls.expected_count)
    rep.add("count_asserted", ls.count_applicable)
    rep.add("companions", len(ls.companions))
    for k, ((y, tcert), ebar) in enumerate(zip(ls.companions, ls.subsets)):
        rep.add(f"companion.{k}.Ebar", ebar)
        rep.add(f"companion.{k}.y", y)
        _add_certificate(rep, f"companion.{k}", tcert)
    rep.add("verdict", "ok")
    _emit(rep, args)
    return 0


def cmd_project(args) -> int:
    pf, tol, rep = _start(args)
    rp = _regularized(pf, args, tol)
    vec = _named_point(pf, args.point)
    x, y = _split_xy(pf, vec, args.point)
    rep.add("point", args.point)
    rep.add("x", x)
    rep.add("y", y)
    pe = evaluate(rp.base, x)
    _refuse_uncertifiable(rp, "to certify anyway")
    tcert = certify_t(rp, pe, y, tol)
    _add_certificate(rep, "lifted", tcert)
    try:
        mcert = project(rp, pe, y, tol)
    except (NotStationaryError, BridgeError) as exc:
        return _bridge_failure(rep, args, exc)
    _add_certificate(rep, "projected", mcert)
    rep.add("verdict", "ok")
    _emit(rep, args)
    return 0


def _add_census(rep: Report, census: CensusReport, sides: str):
    rep.add("instance", census.instance_id)
    rep.add("complete", census.complete)
    for side in sides:  # "m", then "t"
        points = getattr(census, f"{side}_points")  # read as columns
        rep.add(f"{side}.count", len(points))
        for label, count in getattr(census, f"by_index_{side}").items():
            rep.add(f"{side}.by_index.{label}", count)
        for k, (x, index, reason) in enumerate(zip(points.x, points.index, points.reasons())):
            rep.add(f"{side}.point.{k}.x", x)
            if side == "t":
                rep.add(f"t.point.{k}.y", points.y[k])
            rep.add(f"{side}.point.{k}.index", index)
            rep.add(f"{side}.point.{k}.reason", reason)
    for k, note in enumerate(census.notes):
        rep.add(f"note.{k}", note)


_GRID_FLAGS = {"points_per_axis": "--grid-points", "lo": "--grid-lo", "hi": "--grid-hi"}


def _grid(args) -> GridSpec:
    """The grid of the --grid-* flags; a refused grid names the flags."""
    try:
        return GridSpec(args.grid_points, args.grid_lo, args.grid_hi)
    except ValueError as exc:
        flags = re.sub(r"\b(points_per_axis|lo|hi)\b", lambda m: _GRID_FLAGS[m.group()], str(exc))
        raise LoadError(flags) from None


def _census(pr: Problem, rp, method: str, sides: str, args, tol: Tolerances) -> CensusReport:
    """Census of one instance by one method on `sides` ("m", "t" or "mt").
    The T census reuses the roots that the M census found on pr.  Parameters
    that break the assumption are refused up front, in the CLI's spellings."""
    grid = _grid(args)
    quadratic = method == "quadratic"
    if "t" in sides and not rp.assumption1_ok:
        if not quadratic:
            raise AssumptionError(
                "the Newton census on the lifted side requires the (c, eps) assumption; "
                "use --method quadratic with override = true or --override-assumption1 "
                "for the unregularized reformulation"
            )
        _refuse_uncertifiable(rp, "for the sampling census")
    found = []
    if "m" in sides:
        found.append(census_quadratic(pr, tol) if quadratic else census_newton(pr, grid, tol))
    if "t" in sides:
        found.append(census_t_quadratic(rp, tol) if quadratic else census_newton(rp, grid, tol))
    return merge_censuses(*found) if len(found) == 2 else found[0]


def _add_checks(rep: Report, checks: list[CountCheck]) -> None:
    for k, c in enumerate(checks):
        rep.add(f"check.{k}.name", c.name)
        rep.add(f"check.{k}.status", c.status)
        rep.add(f"check.{k}.detail", c.detail)


def cmd_census(args) -> int:
    pf, tol, rep = _start(args)
    rep.add("method", args.method)
    rep.add("side", args.side)

    if args.method == "quadratic" and not is_quadratic_affine(pf.problem):
        sys.stdout.write(rep.render(args.format))
        sys.stderr.write("census: quadratic method on a non-quadratic instance\n")
        return 4

    sides = {"m": "m", "t": "t", "both": "mt"}[args.side]
    rp = _regularized(pf, args, tol) if "t" in sides else None
    census = _census(pf.problem, rp, args.method, sides, args, tol)
    _add_census(rep, census, sides)
    ok = True
    if sides == "mt":
        counts = verify_counts(rp, census, tol)
        _add_checks(rep, counts.checks)
        ok = counts.ok
    rep.add("verdict", "ok" if ok else "failed")
    _emit(rep, args)
    return 0 if ok else 1


def cmd_check_licq(args) -> int:
    pf, tol, rep = _start(args)
    vec = _named_point(pf, args.point)
    rep.add("point", args.point)
    if vec.size == pf.problem.n:
        rep.add("side", "m")
        rep.add("x", vec)
        holds = check_cc_licq(pf.problem, vec, tol)
    else:
        rp = _regularized(pf, args, tol)
        x, y = _split_xy(pf, vec, args.point)
        rep.add("side", "t")
        rep.add("x", x)
        rep.add("y", y)
        holds = check_mpoc_licq(rp, x, y, tol)
    rep.add("holds", holds)
    rep.add("verdict", "ok" if holds else "failed")
    _emit(rep, args)
    return 0 if holds else 1


def cmd_verify(args) -> int:
    """Full battery: censuses both sides, counting identities, lift/project
    round trips for every nondegenerate M-point, and the y-structure of
    every T-stationary point."""
    pf, tol, rep = _start(args)
    rp = _regularized(pf, args, tol)

    method = "quadratic" if is_quadratic_affine(pf.problem) else "newton"
    if not (rp.assumption1_ok or (rp.override and method == "quadratic")):
        raise LoadError("verify needs certifiable regularization parameters")
    merged = _census(pf.problem, rp, method, "mt", args, tol)
    _add_census(rep, merged, "mt")

    checks = verify_counts(rp, merged, tol).checks
    if rp.assumption1_ok:
        points = merged.m_points  # read as columns; a census point is stationary
        for x, index, rounded in zip(points.x, points.index, _rounded(points.x, rp.n)):
            if index is None:  # degenerate
                continue
            label = f"x={rounded}"
            pe = _point(rp.base, x)  # evaluated only if a certificate is missing
            try:
                ls = lift(rp, pe, tol)
                ok = all(t.nondegenerate and t.ndt[4] and t.t_index == index for _, t in ls.companions)
                checks.append(CountCheck("lift-roundtrip", "pass" if ok else "fail",
                                         f"{label}: {len(ls.companions)} companions, index preserved={ok}"))
                for y, _ in ls.companions:
                    ok = project(rp, pe, y, tol).m_index == index
                    checks.append(CountCheck("project-roundtrip", "pass" if ok else "fail", label))
            except (BridgeError, NotStationaryError) as exc:
                checks.append(CountCheck("lift-roundtrip", "fail", f"{label}: {exc}"))
        ys = merged.t_points.y
        oks = check_y_structure(rp, ys, tol).tolist()
        checks += [CountCheck("y-structure", "pass" if ok else "fail", f"y={at}")
                   for ok, at in zip(oks, _rounded(ys, rp.n))]

    failures = sum(c.status == "fail" for c in checks)
    _add_checks(rep, checks)
    rep.add("checks", len(checks))
    rep.add("failures", failures)
    rep.add("verdict", "ok" if failures == 0 else "failed")
    _emit(rep, args)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name in _TOL_KEYS:
        common.add_argument("--" + name.replace("_", "-"), dest=name, type=float, default=None)
    common.add_argument("--override-assumption1", action="store_true")
    common.add_argument("--format", choices=("human", "machine"), default="human")

    parser = argparse.ArgumentParser(
        prog="ccopkit",
        description="certify stationary points of cardinality-constrained problems "
        "and their regularized continuous reformulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", parents=[common], help="certify one named point")
    p.add_argument("file")
    p.add_argument("point")
    p.add_argument("--side", choices=("m", "t"), required=True)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("lift", parents=[common], help="enumerate T-companions of an M-point")
    p.add_argument("file")
    p.add_argument("point")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("project", parents=[common], help="project a lifted point down")
    p.add_argument("file")
    p.add_argument("point")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("census", parents=[common], help="enumerate all stationary points")
    p.add_argument("file")
    p.add_argument("--method", choices=("quadratic", "newton"), default="quadratic")
    p.add_argument("--side", choices=("m", "t", "both"), default="both")
    p.add_argument("--grid-points", type=int, default=3)
    p.add_argument("--grid-lo", type=float, default=-2.0)
    p.add_argument("--grid-hi", type=float, default=2.0)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("check-licq", parents=[common], help="constraint qualification test")
    p.add_argument("file")
    p.add_argument("point")
    p.set_defaults(fn=cmd_check_licq)

    p = sub.add_parser("verify", parents=[common], help="full identity battery on one instance")
    p.add_argument("file")
    p.add_argument("--grid-points", type=int, default=3)
    p.add_argument("--grid-lo", type=float, default=-2.0)
    p.add_argument("--grid-hi", type=float, default=2.0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LoadError, AssumptionError, ExprSyntaxError, ExprDomainError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"ccopkit: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
