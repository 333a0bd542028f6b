"""Command-line driver: parse input files, dispatch pipelines, emit reports.

One subcommand per mechanism: `descend` runs the tower pipeline, `cyclic`
and `criteria` produce the growth diagnostics, `reduce` runs the support
reduction on a bare matrix, `cheeger`/`relsize`/`cover` expose the
expansion and covering machinery, and `echo` round-trips a presentation
file through its canonical form.

Only the heuristic Cheeger reads --seed (`cheeger --mode heuristic`): it
picks the start direction projected on the lambda_2 eigenspace and the
random sweep directions; `descend` and `reduce` accept it and ignore it.
Identical invocations produce byte-identical structured output.  Exit
codes: 0 on success, 2 on precondition errors, 3 on budget or
enumeration-cap exhaustion or when memory runs out, 4 when an internal
invariant check fails (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import tower
from .complexes import (
    _key_value_lines,
    _prime_line,
    build_presentation_complex,
    format_presentation,
    h1_cocycle_basis,
    h1_dimension,
    parse_presentation,
)
from .errors import EnumerationCapError, InvariantError, NotRapidlyDescendingError, ParseError
from .expansion import SkeletonGraph, cheeger_constant, relative_size
from .fplinalg import validate_prime
from .plotkin import reduce_to_dimension
from .tower import (
    CriteriaReport,
    DescentReport,
    GrowthReport,
    SeriesSpec,
    cyclic_growth_report,
    descent_parameters,
    largeness_criteria_report,
    run_descent,
)

__all__ = ["main", "emit_report", "parse_series_file", "parse_matrix_file", "parse_records_file"]


# ---------------------------------------------------------------------------
# input file formats (all share the `key = value` line discipline of the
# presentation format: blank lines and # comments ignored)


def parse_series_file(text: str) -> tuple[tuple[int, ...], ...]:
    """Explicit-series file: one `level = i j k` line per tower level.

    The integers index into the echelon cocycle basis of that level's
    complex, in file order.
    """
    levels = []
    for lineno, key, value in _key_value_lines(text):
        if key != "level":
            raise ParseError(f"line {lineno}: unknown key {key!r} in series file")
        try:
            picks = tuple(int(tok) for tok in value.split())
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not picks:
            raise ParseError(f"line {lineno}: level needs at least one class index")
        levels.append(picks)
    if not levels:
        raise ParseError("series file has no `level = ...` lines")
    return tuple(levels)


def parse_matrix_file(text: str) -> tuple[np.ndarray, int]:
    """Matrix file: a `p = <prime>` line plus `row = c0 c1 ...` lines."""
    p = None
    rows = []
    for lineno, key, value in _key_value_lines(text):
        if key == "p":
            p = _prime_line(lineno, value, p)
        elif key == "row":
            try:
                rows.append([int(tok) for tok in value.split()])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not rows[-1]:
                raise ParseError(f"line {lineno}: empty row")
            for x in rows[-1]:
                if not -(2**63) <= x < 2**63:
                    raise ParseError(f"line {lineno}: entry {x} does not fit in a 64-bit integer")
            if len(rows[-1]) != len(rows[0]):
                raise ParseError(f"line {lineno}: row length differs from first row")
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r} in matrix file")
    if p is None:
        raise ParseError("matrix file is missing `p = <prime>`")
    if not rows:
        raise ParseError("matrix file has no rows")
    return np.array(rows, dtype=np.int64), p


def parse_records_file(text: str) -> tuple[tuple[int, int], ...]:
    """Tower-prefix file: one `record = <index> <quotient_rank>` per level."""
    records = []
    for lineno, key, value in _key_value_lines(text):
        if key != "record":
            raise ParseError(f"line {lineno}: unknown key {key!r} in records file")
        toks = value.split()
        if len(toks) != 2:
            raise ParseError(f"line {lineno}: record needs `<index> <quotient_rank>`")
        try:
            records.append((int(toks[0]), int(toks[1])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not records:
        raise ParseError("records file has no `record = ...` lines")
    return tuple(records)


# ---------------------------------------------------------------------------
# report emission


def _fmt(x):
    """JSON-safe scalar: Fractions render as exact `n/d` strings."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _render_table(headers, rows) -> str:
    cells = [[str(h) for h in headers]]
    cells += [["-" if c is None else str(c) for c in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines)


def _scalar_lines(doc: dict, skip=()) -> list[str]:
    out = []
    for key, value in doc.items():
        if key in skip or isinstance(value, (list, dict)):
            continue
        out.append(f"{key}: {value}")
    return out


def _descent_document(report: DescentReport, lambda_estimate=None) -> dict:
    levels = [
        {
            "level": r.level,
            "index": r.index,
            "quotient_rank": r.quotient_rank,
            "d_p": r.dp,
            "supp": r.support_size,
            "edges": r.edge_count,
            "relsize_upper": _fmt(r.relsize_upper),
            "bound_factor": _fmt(r.bound_factor),
            "wedge_count": r.wedge_count,
        }
        for r in report.records
    ]
    return {
        "command": "descend",
        "p": report.p,
        "u": report.u,
        "lambda_estimate": _fmt(lambda_estimate),
        "uniform_factor": _fmt(report.uniform_factor),
        "verdict": report.verdict,
        "levels": levels,
        "notes": list(report.notes),
    }


def _criteria_document(report: CriteriaReport) -> dict:
    return {
        "command": "criteria",
        "entries": [list(e) for e in report.entries],
        "rank_ratios": [_fmt(r) for r in report.rank_ratios],
        "running_infimum": [_fmt(r) for r in report.running_infimum],
        "rank_ratio_min": _fmt(report.rank_ratio_min),
        "log_ratio_nondecreasing": report.log_ratio_nondecreasing,
        "disclaimer": report.disclaimer,
    }


def _growth_document(report: GrowthReport) -> dict:
    return {
        "command": "cyclic",
        "entries": [[order, dp, _fmt(ratio)] for order, dp, ratio in report.entries],
        "positive_limit_signal": report.positive_limit_signal,
        "limit_estimate": _fmt(report.limit_estimate),
        "disclaimer": report.disclaimer,
    }


def _document_table(doc: dict) -> str:
    command = doc.get("command")
    parts = []
    if command in ("descend", "cover"):
        # one column per key of the level dicts, in their order
        headers = list(doc["levels"][0])
        rows = [[lvl[c] for c in headers] for lvl in doc["levels"]]
        parts.append(_render_table(headers, rows))
    elif command == "criteria":
        headers = ("index", "quotient_rank", "rank_ratio", "running_inf")
        rows = [
            [*e, rr, ri]
            for e, rr, ri in zip(doc["entries"], doc["rank_ratios"], doc["running_infimum"])
        ]
        parts.append(_render_table(headers, rows))
    elif command == "cyclic":
        parts.append(_render_table(("order", "d_p", "ratio"), doc["entries"]))
    elif command == "reduce":
        parts.append(_render_table(("basis row",), [[" ".join(map(str, r))] for r in doc["basis"]]))
    parts.extend(_scalar_lines(doc, skip=("command",)))
    for note in doc.get("notes", ()):
        parts.append(f"note: {note}")
    return "\n".join([f"command: {doc['command']}"] + parts) + "\n"


def emit_report(doc: dict, format: str = "json") -> str:
    """Render a report document deterministically.

    doc is a command's document dict; format "json" gives the structured
    form, "table" a fixed-column text table.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"cannot emit report of type {type(doc).__name__}")
    if format == "json":
        return _json_text(doc)
    if format == "table":
        return _document_table(doc)
    raise ValueError(f"unknown output format {format!r}")


# ---------------------------------------------------------------------------
# command handlers, each returning (text, exit_code)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_presentation(args):
    pres, p = parse_presentation(_read(args.input))
    if getattr(args, "p", None) is not None:
        p = validate_prime(args.p)
    return pres, p


def _series_spec(args, p: int, default_depth: int) -> SeriesSpec:
    name = args.series
    depth = default_depth if args.depth is None else args.depth
    budget = args.budget
    if name == "derived":
        return SeriesSpec(kind="derived", p=p, depth=depth, cell_budget=budget)
    if name.startswith("rank:"):
        try:
            rank = int(name[len("rank:") :])
        except ValueError as exc:
            raise ValueError(f"bad series {name!r}: rank must be an integer") from exc
        return SeriesSpec(kind="rank", p=p, depth=depth, rank=rank, cell_budget=budget)
    if name.startswith("file:"):
        levels = parse_series_file(_read(name[len("file:") :]))
        if args.depth is None:
            depth = len(levels)
        elif depth > len(levels):
            raise ValueError(f"series file has {len(levels)} levels, --depth asks for {depth}")
        return SeriesSpec(kind="explicit", p=p, depth=depth, levels=levels, cell_budget=budget)
    raise ValueError(f"unknown series {name!r} (expected derived, rank:k, or file:PATH)")


def _default_u(pres, p: int) -> tuple[Fraction, int]:
    """Estimate (rate, u) from the level-1 prefix when --u is not given."""
    n1 = h1_dimension(build_presentation_complex(pres), p)
    try:
        return descent_parameters(pres, (), p, lam=Fraction(n1 - 2))
    except NotRapidlyDescendingError as exc:
        raise NotRapidlyDescendingError(f"{exc}; pass --u to run anyway") from None


def _cmd_descend(args):
    pres, p = _load_presentation(args)
    spec = _series_spec(args, p, default_depth=2)
    lam = None
    if args.u is None:
        lam, u = _default_u(pres, p)
    else:
        u = args.u
    report = run_descent(pres, spec, u)
    doc = _descent_document(report, lambda_estimate=lam)
    code = 3 if report.verdict == "budget-exhausted" else 0
    return emit_report(doc, args.format), code


def _cmd_cyclic(args):
    pres, p = _load_presentation(args)
    if args.weights is None:
        weights = [1] + [0] * (len(pres.generators) - 1)
    else:
        try:
            weights = [int(tok) for tok in args.weights.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad --weights {args.weights!r}: {exc}") from exc
        if len(weights) != len(pres.generators):
            raise ValueError(
                f"--weights needs {len(pres.generators)} integers, got {len(weights)}"
            )
    report = cyclic_growth_report(pres, weights, p, args.depth)
    doc = _growth_document(report)
    doc["p"] = p
    doc["weights"] = weights
    return emit_report(doc, args.format), 0


def _cmd_criteria(args):
    records = parse_records_file(_read(args.input))
    return emit_report(_criteria_document(largeness_criteria_report(records)), args.format), 0


def _cmd_reduce(args):
    rows, p = parse_matrix_file(_read(args.input))
    if getattr(args, "p", None) is not None:
        p = validate_prime(args.p)
    result = reduce_to_dimension(rows, p, args.u)
    doc = {
        "command": "reduce",
        "p": p,
        "ambient": int(rows.shape[1]),
        "input_dim": result.input_dim,
        "target_dim": args.u,
        "support_size": result.support_size,
        "chain_bound": _fmt(result.chain_bound),
        "uniform_bound": _fmt(result.uniform_bound),
        # every returned reduction is exact and checked: a failed check raises InvariantError
        "certified": True,
        "mode": "exact",
        "basis": [[int(x) for x in row] for row in result.basis],
    }
    return emit_report(doc, args.format), 0


def _cmd_cheeger(args):
    pres, p = _load_presentation(args)
    spec = _series_spec(args, p, default_depth=1)
    *_, last = tower.iter_levels(build_presentation_complex(pres), spec)
    if last.picks is not None:  # the last level picks classes only when over budget
        raise EnumerationCapError(last.note)
    K = last.complex
    graph = SkeletonGraph.from_complex(K)
    value = cheeger_constant(graph, mode=args.mode, seed=args.seed)
    doc = {
        "command": "cheeger",
        "mode": args.mode,
        "series": args.series,
        "level": last.level,
        "index": last.index,
        "vertices": K.num_vertices,
        "edges": K.num_edges,
        "cheeger": _fmt(value),
    }
    return emit_report(doc, args.format), 0


def _cmd_relsize(args):
    pres, p = _load_presentation(args)
    K = build_presentation_complex(pres)
    basis = h1_cocycle_basis(K, p)
    if not 0 <= args.class_index < len(basis):
        raise ValueError(
            f"--class-index {args.class_index} out of range (H^1 has rank {len(basis)})"
        )
    value = relative_size(K, basis[args.class_index], mode=args.mode)
    doc = {
        "command": "relsize",
        "p": p,
        "class_index": args.class_index,
        "mode": args.mode,
        "edges": K.num_edges,
        "support_size": int(value * K.num_edges),
        "relsize": _fmt(value),
    }
    return emit_report(doc, args.format), 0


def _cover_stats(lvl: tower.TowerLevel) -> dict:
    K = lvl.complex
    return {
        "level": lvl.level,
        "index": lvl.index,
        "vertices": K.num_vertices,
        "edges": K.num_edges,
        "faces": K.num_faces,
        "euler": K.euler_characteristic,
        "d_p": lvl.dp,
    }


def _cmd_cover(args):
    pres, p = _load_presentation(args)
    spec = _series_spec(args, p, default_depth=1)
    levels = list(tower.iter_levels(build_presentation_complex(pres), spec))
    note = levels[-1].note
    over = levels[-1].picks is not None  # the last level picks classes only when over budget
    doc = {
        "command": "cover",
        "p": p,
        "series": args.series,
        "verdict": "budget-exhausted" if over else "completed",
        "levels": [_cover_stats(lvl) for lvl in levels],
        "notes": [note] if note else [],
    }
    return emit_report(doc, args.format), 3 if over else 0


def _cmd_echo(args):
    pres, p = _load_presentation(args)
    return format_presentation(pres, p), 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_io_flags(sp, modes=None):
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--out", default=None, help="write output here instead of stdout")
    if modes:
        sp.add_argument("--mode", choices=modes, default=modes[0])


_SEED_IGNORED = "ignored here; only cheeger --mode heuristic reads --seed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdescent",
        description="Homology descent pipelines for group presentations mod p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("descend", help="run the descent pipeline on a presentation file")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None, help="override the file's prime")
    sp.add_argument("--series", default="derived", help="derived | rank:k | file:PATH")
    sp.add_argument("--depth", type=int, default=None, help="tower depth (default 2)")
    sp.add_argument("--u", type=int, default=None, help="family dimension (default: estimated)")
    sp.add_argument("--budget", type=int, default=tower.DEFAULT_CELL_BUDGET)
    sp.add_argument("--seed", type=int, default=0, help=_SEED_IGNORED)
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_descend)

    sp = sub.add_parser("cyclic", help="homology growth along cyclic covers")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--weights", default=None, help="comma-separated generator weights")
    sp.add_argument("--depth", type=int, default=8, help="largest cover order")
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_cyclic)

    sp = sub.add_parser("criteria", help="largeness-criteria diagnostics for a tower prefix")
    sp.add_argument("input", help="records file: `record = <index> <quotient_rank>` lines")
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_criteria)

    sp = sub.add_parser("reduce", help="support reduction on a matrix file")
    sp.add_argument("input", help="matrix file: `p = ...` plus `row = ...` lines")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--u", type=int, required=True, help="target dimension")
    sp.add_argument("--seed", type=int, default=0, help=_SEED_IGNORED)
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_reduce)

    sp = sub.add_parser("cheeger", help="Cheeger constant of an iterated cover's 1-skeleton")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--series", default="derived", help="derived | rank:k | file:PATH")
    sp.add_argument("--depth", type=int, default=None, help="cover iterations (default 1)")
    sp.add_argument("--budget", type=int, default=tower.DEFAULT_CELL_BUDGET)
    sp.add_argument(
        "--seed", type=int, default=0,
        help="heuristic mode: picks the start direction and the random sweep directions",
    )
    _add_io_flags(sp, modes=("exact", "heuristic"))
    sp.set_defaults(handler=_cmd_cheeger)

    sp = sub.add_parser("relsize", help="relative size of a cohomology class")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--class-index", type=int, default=0)
    _add_io_flags(sp, modes=("exact", "upper"))
    sp.set_defaults(handler=_cmd_relsize)

    sp = sub.add_parser("cover", help="build iterated covers and report cell statistics")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--series", default="derived", help="derived | rank:k | file:PATH")
    sp.add_argument("--depth", type=int, default=None, help="cover iterations (default 1)")
    sp.add_argument("--budget", type=int, default=tower.DEFAULT_CELL_BUDGET)
    _add_io_flags(sp)
    sp.set_defaults(handler=_cmd_cover)

    sp = sub.add_parser("echo", help="canonical form of a presentation file")
    sp.add_argument("input")
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_echo)

    return parser


def _attach_negative_weights(argv: list[str]) -> list[str]:
    """Rewrite `--weights -1,2` as `--weights=-1,2`.

    argparse reads a separate value that starts with `-` as an option
    unless it is a single number, so a weight list led by a negative
    weight would be rejected.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--weights" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--weights={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _main_parser().parse_args(_attach_negative_weights(argv))
    try:
        text, code = args.handler(args)
    except EnumerationCapError as exc:
        print(f"pdescent: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"pdescent: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"pdescent: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"pdescent: internal invariant failed: {exc}", file=sys.stderr)
        return 4
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
