"""Command-line interface.

Commands: analyze, growth, khovanskii, structure, circuits, triangulate,
bounds, verify.  Input is a point set, either as JSON ({"dim": d, "points":
[[..], ..]}) or as plain text with one whitespace-separated integer vector
per line ('#' starts a comment).  Exit codes: 0 success, 1 bad input,
2 precondition violation, 3 budget exhausted (partial results are marked),
4 internal error (an invariant violation or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    BudgetExceededError,
    InputFormatError,
    InternalInvariantError,
    PreconditionError,
    SumsetLabError,
)
from .lattice import PointConfig, normalize_config
from .reporting import (
    Caps,
    bounds_report,
    build_analysis,
    circuits_report,
    growth_report,
    khovanskii_section,
    serialize,
    structure_section,
    triangulate_report,
)
from .selfcheck import run_checks
from .structure import structure_levels

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

COMMANDS = ("analyze", "growth", "khovanskii", "structure", "circuits",
            "triangulate", "bounds", "verify")


def _is_int(value) -> bool:
    """A JSON integer: json.loads gives bool for true/false, itself an int."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(path: str) -> PointConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict) or "points" not in data:
            raise InputFormatError("JSON input needs a 'points' field")
        points = data["points"]
        dim = data.get("dim")
        if not isinstance(points, list):
            raise InputFormatError("'points' must be a list of integer lists")
        if dim is not None and not _is_int(dim):
            raise InputFormatError("'dim' must be an integer")
        rows = []
        for row in points:
            if not isinstance(row, list) or not all(_is_int(v) for v in row):
                raise InputFormatError("points must be lists of integers")
            rows.append(tuple(row))
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                rows.append(tuple(int(tok) for tok in body.split()))
            except ValueError as exc:
                raise InputFormatError(
                    f"line {lineno}: expected whitespace-separated integers") from exc
        dim = None
    if not rows:
        raise InputFormatError("input contains no points")
    if dim is None:
        dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise InputFormatError("all points must have the same length")
    if len(set(rows)) != len(rows):
        raise InputFormatError("points must be pairwise distinct")
    try:
        return PointConfig(points=tuple(rows), dim=dim)
    except SumsetLabError as exc:
        raise InputFormatError(str(exc)) from exc


def _parse_pivot(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputFormatError("--pivot expects comma-separated integers") from exc


def _budget(text: str) -> int:
    """A budget option's value: a nonnegative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 1), in one line."""

    def error(self, message):
        raise InputFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sumsetlab",
        description="Exact iterated-sumset analysis of finite integer point sets.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="point set file (JSON or text)")
    parser.add_argument("--format", default="json", choices=("json", "csv", "text"))
    parser.add_argument("--max-n", type=_budget, default=None,
                        help="growth levels / verification window cap")
    parser.add_argument("--cap-points", type=_budget, default=10 ** 7,
                        help="lattice-scan budget (points per scan)")
    parser.add_argument("--cap-weight", type=_budget, default=None,
                        help="obstruction-scan weight budget")
    parser.add_argument("--route", default="auto",
                        choices=("auto", "formula", "interpolation"))
    parser.add_argument("--pivot", default=None,
                        help="extremal point to translate to the origin, e.g. '2' or '0,1'")
    parser.add_argument("--emit-points", action="store_true",
                        help="retain sumset points in growth output")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timings (non-deterministic)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls,
    and building it costs more than a small request."""
    return build_parser()


def run(args) -> tuple[dict, int]:
    config = load_config(args.input)
    caps = Caps(cap_points=args.cap_points, cap_weight=args.cap_weight,
                max_n=args.max_n)
    pivot = _parse_pivot(args.pivot)
    if pivot is not None and len(pivot) != config.dim:
        raise InputFormatError(
            f"--pivot has length {len(pivot)}, the input points have length {config.dim}")
    command = args.command
    if command == "analyze":
        report, partial = build_analysis(config, caps, route=args.route,
                                         pivot=pivot, with_timing=args.timing)
        return report, EXIT_BUDGET if partial else EXIT_OK
    if command == "growth":
        # the csv writer prints n,size only: it needs no decoded level
        report, partial = growth_report(
            config, caps, args.emit_points and args.format != "csv")
        return report, EXIT_BUDGET if partial else EXIT_OK
    normalized = normalize_config(config, pivot=pivot)
    if command == "khovanskii":
        section, partial = khovanskii_section(normalized, caps, args.route)
        return {"khovanskii": section, "partial": partial}, \
            EXIT_BUDGET if partial else EXIT_OK
    if command == "structure":
        if args.max_n is not None:
            reports = [{
                "n": rep.n,
                "holds": rep.holds,
                "missing": [list(p) for p in rep.missing],
                "extra": [list(p) for p in rep.extra],
            } for rep in structure_levels(normalized, args.max_n,
                                          cap_points=args.cap_points)]
            return {"structure_levels": reports, "partial": False}, EXIT_OK
        section, partial = structure_section(normalized, caps)
        return {"structure": section, "partial": partial}, \
            EXIT_BUDGET if partial else EXIT_OK
    if command == "circuits":
        return circuits_report(normalized), EXIT_OK
    if command == "triangulate":
        return triangulate_report(normalized), EXIT_OK
    if command == "bounds":
        return bounds_report(normalized), EXIT_OK
    if command == "verify":
        checks = run_checks(normalized, cap_points=args.cap_points,
                            cap_weight=args.cap_weight)
        report = {
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                       for c in checks],
            "ok": all(c.status == "ok" for c in checks),
        }
        if any(c.status == "fail" for c in checks):
            return report, EXIT_INTERNAL
        if any(c.status == "skipped" for c in checks):
            return report, EXIT_BUDGET
        return report, EXIT_OK
    raise InputFormatError(f"unknown command {command!r}")


def _pivot_joined(argv) -> list[str]:
    """``--pivot V`` as ``--pivot=V``: argparse takes a separate value that
    starts with "-" and is no plain number, such as -1,0, for an option."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--pivot" else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_pivot_joined(sys.argv[1:] if argv is None else argv))
        report, code = run(args)
        # a failed write (a full disk, a closed pipe) lands in the last handler
        sys.stdout.write(serialize(report, args.format))
        sys.stdout.flush()
    except InputFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:
        # Anything else is a defect or a bad environment, not bad input:
        # exit 1 belongs to input errors, so report it as internal.
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
