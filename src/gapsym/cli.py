"""Command-line front end.

Exit codes: 0 success, 1 survey violation, 2 usage error (an unwritable
--out included), 3 invalid input data, 4 ambiguous inference.  JSON is the
machine format (integers only, stable key order); SVG is the figure format.
Each `cmd_*` returns its output text and exit code; `main` alone writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from .errors import Ambiguous, GapsymError, InconsistentInput, NotAGap
from .fundamental import fundamental_gaps
from .render import DEFAULT_LAYERS, LAYERS, render_svg
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import (
    is_lean,
    is_fixed_point,
    is_selfdual,
    is_symmetric_sm,
    lattice_path,
    make_semimodule,
    picard_orbit,
    syzygy_generators,
)
from .survey import CHECK_NAMES, run_survey
from .symmetry import (
    GapPartition,
    _grid_cells,
    _partition_rows,
    _size,
    _smaller_side,
    _symmetric_count,
    _walk_cells,
    cell_values,
    gap_conductor_partition,
    infer_semigroup,
    reconstruct_from_symmetric,
    triangle_r,
    triangle_u,
)

USAGE_ERROR, DATA_ERROR, AMBIGUOUS_ERROR = 2, 3, 4

# Largest sieve width a command accepts, in bits; every pair with alpha,
# beta up to 500 fits.
MAX_SIEVE_BITS = 1 << 18


def _check_width(gens):
    """Reject (exit 3) positive generators whose sieve width exceeds
    MAX_SIEVE_BITS.

    The width is (m-1)(max-1) + max + 2: the Schur bound the constructor
    sieves, plus one largest generator and two bits.  Runs before any
    semigroup is built; other invalid input is left to the constructors.
    """
    if gens and min(gens) > 0:
        m, big = min(gens), max(gens)
        width = (m - 1) * (big - 1) + big + 2
        if width > MAX_SIEVE_BITS:
            raise InconsistentInput(
                f"generators {m}..{big} need a {width}-bit sieve; "
                f"the limit is {MAX_SIEVE_BITS}"
            )


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _json_text(obj, indent=""):
    """`obj` as the text of `json.dumps(obj, indent=2)`, nested at `indent`.

    It exists because CPython 3.11 drops its C encoder when `indent` is set,
    and the pure-Python one took most of an `analyze --format json` run; it
    may be deleted once the C encoder handles `indent`.  It writes dict,
    list, tuple (as an array), int, str, bool and None, and raises TypeError
    on any other type and on a non-str dict key, which `_json_str` rejects.
    Strings are escaped by `_json_str`, as with `ensure_ascii`.  Scalars are
    written only at the tail; dict values and list items reach it by
    recursion.  Every list or tuple first tries `_int_rows_text`, which
    writes a flat list of exact ints, such as `analyze`'s gaps, or a list of
    flat int rows, such as `analyze`'s cell pairs, by one `%d` template,
    with no call per item.  A `_Lattice` writes itself as the array of its
    pair's lattice records.
    """
    kind = type(obj)
    if kind is _Lattice:
        return obj.text(indent)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        parts = [_json_str(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        text = _int_rows_text(obj, indent)
        if text is not None:
            return text
        parts = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if kind is str:
        return _json_str(obj)
    if kind is int:
        return f"{obj}"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _rows_template(fields, brackets, count, indent):
    """The `%` template of an array of `count` rows nested at `indent`, laid
    out as `json.dumps(indent=2)` does: each row holds `fields`, one a line,
    between the two `brackets`.  With no brackets, each row is its one
    field, as in a flat array."""
    inner = indent + "  "
    pad = "\n" + inner + "  "
    row = brackets[0] + pad + ("," + pad).join(fields) + "\n" + inner + brackets[1] if brackets else fields[0]
    return "[\n" + inner + (",\n" + inner).join([row] * count) + "\n" + indent + "]"


def _int_rows_text(items, indent):
    """`_json_text(items, indent)` for a non-empty list or tuple of exact
    ints or of flat int rows, else None.

    Flat int rows are all non-empty lists or tuples of the same length, and
    hold only exact ints; bool and float fail the type test and are left to
    `_json_text`.  All the values are formatted at once into a template of
    one `%d` per value (`_rows_template`); `%d` of an exact int is
    `int.__repr__`.
    """
    kinds = set(map(type, items))
    if kinds == {int}:
        return _rows_template(("%d",), "", len(items), indent) % tuple(items)
    if not kinds <= {list, tuple} or set(map(len, items)) != {len(items[0])}:
        return None
    values = tuple(chain.from_iterable(items))
    # empty rows hold no value, so this also leaves them to _json_text
    if set(map(type, values)) != {int}:
        return None
    return _rows_template(["%d"] * len(items[0]), "[]", len(items), indent) % values


class _Lattice:
    """`analyze`'s `lattice` entry, which `_json_text` writes as one record
    {a, b, value, wilf} per gap cell of T, in walk order: one `%d` template
    over the flat ints of `_grid_cells(T)`, so no dict or tuple is built per
    cell.  It is a plain class because a `NamedTuple` takes about
    0.2 ms to define at import."""

    __slots__ = ("T",)

    def __init__(self, T: TwoGen):
        self.T = T

    def text(self, indent):
        flat = tuple(chain.from_iterable(_grid_cells(self.T)))
        fields = ('"a": %d', '"b": %d', '"value": %d', '"wilf": %d')
        return _rows_template(fields, "{}", self.T.genus, indent) % flat


def _output(args, report, lines=None) -> str:
    """A command's output in its --format: the report as JSON, or as text
    from `lines()`, or one `key: value` line per report key when no lines
    are given.  The text lines are built only for text output."""
    if args.format == "json":
        return _json_text(report) + "\n"
    text = lines() if lines else (f"{k}: {v}" for k, v in report.items())
    return "\n".join(text) + "\n"


def cmd_analyze(args):
    _check_width([args.alpha, args.beta])
    T = TwoGen(args.alpha, args.beta)
    if args.format == "svg":
        layers = args.layers.split(",") if args.layers else DEFAULT_LAYERS
        return render_svg(T, layers), 0
    S = T.semigroup()
    # the verified blocks as row intervals; no block is built as a cell set
    blocks = _partition_rows(T)
    sizes = tuple(map(_size, blocks))
    side = _smaller_side(sizes[0], sizes[3])
    sg = list(_walk_cells(blocks[0] if side == "T_u" else blocks[3]))
    ssg = list(_walk_cells(blocks[2]))
    fg = fundamental_gaps(S)
    n_sym, n_fg = len(sg) + len(ssg), len(fg)
    report = {
        "alpha": T.alpha,
        "beta": T.beta,
        "conductor": S.conductor,
        "genus": S.genus,
        "gaps": list(S.gaps),
        "lattice": _Lattice(T),
        "sg": {"side": side, "cells": sg, "values": cell_values(T, sg)},
        "ssg": {"cells": ssg, "values": cell_values(T, ssg)},
        "partition": dict(zip(GapPartition._fields, sizes)),
        "fg": list(fg),
        "counts": {"sg_ssg": n_sym, "fg": n_fg},
    }
    return _output(args, report, lambda: [
        f"<{T.alpha},{T.beta}>: conductor {S.conductor}, {S.genus} gaps",
        f"gaps: {list(S.gaps)}",
        f"symmetric side {side}: {report['sg']['values']}",
        f"self-symmetric: {report['ssg']['values']}",
        f"partition blocks: {sizes}",
        f"fundamental gaps ({n_fg}): {list(fg)}",
        f"|SG u SSG| = {n_sym} {'<=' if n_sym <= n_fg else '>'} |FG| = {n_fg}",
    ]), 0


def cmd_semimodule(args):
    _check_width(args.gens)
    S = NumericalSemigroup(args.gens)
    if not args.module or any(v < 0 for v in args.module):
        raise InconsistentInput(f"module generators must be nonnegative, got {args.module}")
    d = make_semimodule(S, args.module)
    principal = d.ed < 2
    if principal:
        syz = None
    elif len(S.generators) == 2:
        syz = list(lattice_path(d).h_values)
    else:
        syz = syzygy_generators(d)
    orbit = None if principal else picard_orbit(d).cycle_length
    report = {
        "gens": list(S.generators),
        "module": list(args.module),
        "lean": is_lean(S, args.module),
        "min_generators": list(d.min_generators),
        "syzygy_generators": syz,
        "conductor": d.conductor,
        "delta": d.delta,
        "ed": d.ed,
        "wilf": d.wilf,
        "fixed_point": None if principal else is_fixed_point(d),
        "selfdual": is_selfdual(d),
        "symmetric": is_symmetric_sm(d),
        "orbit_cycle_length": orbit,
    }
    return _output(args, report), 0


_RECONSTRUCT_KEYS = {"alpha", "beta", "sg_side", "sg_cells", "sg_values", "ssg_cells", "ssg_values"}


def _load_reconstruct_input(path):
    # a JSONDecodeError, a file that is not UTF-8 and an integer past the
    # int-string digit limit are ValueErrors; deep nesting is a RecursionError
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InconsistentInput(f"cannot parse {path}: {exc}")
    if not isinstance(data, dict):
        raise InconsistentInput("top-level JSON value must be an object")
    unknown = set(data) - _RECONSTRUCT_KEYS
    if unknown:
        raise InconsistentInput(f"unknown keys {sorted(unknown)}")
    for prefix in ("sg", "ssg"):
        given = [k for k in (f"{prefix}_cells", f"{prefix}_values") if k in data]
        if len(given) != 1:
            raise InconsistentInput(f"need exactly one of {prefix}_cells or {prefix}_values")
    if ("alpha" in data) != ("beta" in data):
        raise InconsistentInput("alpha and beta must be given together")
    # JSON true/false load as bool, a subclass of int, so the integer checks
    # compare types exactly
    for key in ("alpha", "beta"):
        if key in data and type(data[key]) is not int:
            raise InconsistentInput(f"{key} must be an integer")
    if "sg_side" in data and data["sg_side"] not in ("T_u", "T_r"):
        raise InconsistentInput('sg_side must be "T_u" or "T_r"')
    for key in ("sg_cells", "ssg_cells"):
        if key in data:
            cells = data[key]
            ok = isinstance(cells, list) and all(
                isinstance(p, list) and len(p) == 2 and all(type(c) is int for c in p)
                for p in cells
            )
            if not ok:
                raise InconsistentInput(f"{key} must be a list of [a, b] integer pairs")
    for key in ("sg_values", "ssg_values"):
        if key in data:
            if not isinstance(data[key], list) or not all(type(v) is int for v in data[key]):
                raise InconsistentInput(f"{key} must be a list of integers")
    return data


def _cells_of(T, data, prefix):
    if f"{prefix}_cells" in data:
        return frozenset(tuple(p) for p in data[f"{prefix}_cells"])
    return frozenset(T.gap_to_lattice(v) for v in data[f"{prefix}_values"])


def cmd_reconstruct(args):
    data = _load_reconstruct_input(args.input)
    inferred = False
    if "alpha" in data:
        alpha, beta = data["alpha"], data["beta"]
    elif args.infer:
        values = set(data.get("sg_values", [])) | set(data.get("ssg_values", []))
        if not values:
            raise InconsistentInput("inference needs sg_values/ssg_values")
        # every gap of a pair within the limit lies below its sieve width
        if max(values) >= MAX_SIEVE_BITS:
            raise InconsistentInput(
                f"{max(values)} is no gap of any pair within the sieve limit of {MAX_SIEVE_BITS} bits"
            )
        max_beta = 4 * max(values) if args.max_beta is None else args.max_beta
        found = infer_semigroup(values, max_beta)
        if found is None:
            raise InconsistentInput(f"no pair up to beta={max_beta} matches {sorted(values)}")
        alpha, beta = found
        inferred = True
    else:
        raise InconsistentInput("alpha/beta missing; pass --infer to search for them")
    _check_width([alpha, beta])
    T = TwoGen(alpha, beta)
    sg = _cells_of(T, data, "sg")
    ssg = _cells_of(T, data, "ssg")
    side = data.get("sg_side")
    if side is None:
        if sg == triangle_u(T):
            side = "T_u"
        elif sg == triangle_r(T):
            side = "T_r"
        else:
            raise InconsistentInput("cells match neither triangle; supply sg_side")
    gaps = reconstruct_from_symmetric(alpha, beta, sg, side, ssg)
    report = {"alpha": alpha, "beta": beta, "inferred": inferred, "gaps": gaps}
    return _output(
        args, report, lambda: [f"<{alpha},{beta}>{' (inferred)' if inferred else ''}: {gaps}"]
    ), 0


def cmd_survey(args):
    # <N-1, N> needs the widest sieve of the sweep; a bound of 1 or less has
    # no positive pair and sweeps none
    _check_width([args.max_beta - 1, args.max_beta])
    results = run_survey(args.max_beta, args.checks.split(","))

    def listed(findings, limit, mark, noun):
        # the first `limit` findings, then a count of the rest
        yield from (mark + f for f in findings[:limit])
        if len(findings) > limit:
            yield f"  ... and {len(findings) - limit} more {noun}"

    def lines():
        for res in results:
            yield (
                f"{res.name}: pairs={res.pairs} violations={len(res.violations)} "
                f"warnings={len(res.warnings)}"
            )
            yield from listed(res.violations, 20, "  VIOLATION ", "violations")
            yield from listed(res.warnings, 10, "  warning: ", "warnings")

    return _output(args, None, lines), 1 if any(res.violations for res in results) else 0


def cmd_classes(args):
    _check_width(args.gens)
    S = NumericalSemigroup(args.gens)
    classes = gap_conductor_partition(S)
    report = {
        "gens": list(S.generators),
        "classes": [c._asdict() for c in classes],
    }

    def lines():
        yield f"<{','.join(map(str, S.generators))}>: {len(classes)} classes"
        for c in classes:
            yield (
                f"conductor {c.conductor}: members {list(c.members)} pairs {c.pairs}"
                + (f" self-symmetric {c.self_symmetric}" if c.self_symmetric is not None else "")
            )

    return _output(args, report, lines), 0


def cmd_fundamental(args):
    """The gaps, the fundamental gaps and their divisor closure, and for two
    generators |SG u SSG| against |FG|.

    The divisor closure D(FG) of the fundamental gaps is the gap set G, so
    it is written as `S.gaps` with no division.  Every divisor d of a gap h
    is a gap: were d in S, so would be its multiple h.  So D(FG) lies in G.
    Conversely, let h be a gap and k the largest integer with kh a gap;
    there is one, as every multiple of h past the conductor lies in S.
    Then 2kh and 3kh lie in S, so kh is a fundamental gap, and h divides it.
    `divisor_closure` stays the trial division, which `semigroup_from_fg`
    applies to sets that need not be fundamental gaps.
    """
    _check_width(args.gens)
    S = NumericalSemigroup(args.gens)
    fg = fundamental_gaps(S)
    report = {
        "gens": list(S.generators),
        "gaps": list(S.gaps),
        "fundamental_gaps": list(fg),
        "divisor_closure": list(S.gaps),
        "counts": {"gaps": S.genus, "fg": len(fg)},
    }
    if len(S.generators) == 2:
        n_sym = _symmetric_count(*S.generators)
        report["counts"]["sg_ssg"] = n_sym
        report["counts"]["inequality_holds"] = n_sym <= len(fg)
    return _output(args, report), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsym",
        description="Symmetry structure of numerical semigroup gaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("json", "text")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("analyze", help="full report for a two-generator semigroup")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--layers", default=None, help="comma list for SVG: " + ",".join(LAYERS))
    add_common(p, ("json", "text", "svg"))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("semimodule", help="diagnostics for one semimodule")
    p.add_argument("--gens", type=_int_list, required=True)
    p.add_argument("--module", type=_int_list, required=True)
    add_common(p)
    p.set_defaults(func=cmd_semimodule)

    p = sub.add_parser("reconstruct", help="rebuild all gaps from the symmetric sets")
    p.add_argument("--input", required=True, help="JSON file describing the symmetric sets")
    p.add_argument("--infer", action="store_true", help="search for alpha/beta when absent")
    p.add_argument(
        "--max-beta", type=int, default=None, dest="max_beta",
        help="largest beta --infer tries; the default, 4*max(values), already "
        "covers every matching pair, so this can only narrow the search",
    )
    add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("survey", help="verification sweeps over coprime pairs")
    p.add_argument("--max-beta", type=int, required=True, dest="max_beta")
    p.add_argument("--checks", default="all", help="comma list: " + ",".join(CHECK_NAMES + ("all",)))
    add_common(p, ("text",))
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("classes", help="gap classes sharing a module conductor")
    p.add_argument("--gens", type=_int_list, required=True)
    add_common(p)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("fundamental", help="fundamental gaps and determinacy counts")
    p.add_argument("--gens", type=_int_list, required=True)
    add_common(p)
    p.set_defaults(func=cmd_fundamental)
    return parser


# Built once per process: parse_args keeps no state between calls.
_PARSER = build_parser()
# each command's own parser, the object _PARSER hands the rest of argv to
_COMMANDS = next(action.choices for action in _PARSER._actions if action.dest == "command")


def _parse(argv):
    """`_PARSER.parse_args(argv)`, with each argument parsed once.

    When argv[0] names a command, _PARSER's one positional takes argv[0]
    and everything after it, `--` included: it sets `command`, hands the
    rest to that command's parser, and parse_args reports what that parser
    leaves over as unrecognized.  Its only options, -h and --help, cannot
    make a later argument ambiguous, so that pass cannot fail.  So the rest
    goes straight to the command's parser here, with the same namespace,
    help, errors and exit codes.  Any other argv, such as an empty one, an
    unknown command or a leading option, goes to _PARSER.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _COMMANDS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    args, extra = parser.parse_known_args(argv[1:])
    if extra:
        _PARSER.error("unrecognized arguments: " + " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command and write its output to --out or stdout; no other
    function writes.  The command's own parser reads its arguments
    (`_parse`), so argv is parsed once."""
    args = _parse(argv)
    try:
        text, code = args.func(args)
    except Ambiguous as exc:
        print(f"error: {exc} (matches: {exc.matches})", file=sys.stderr)
        return AMBIGUOUS_ERROR
    except (InconsistentInput, NotAGap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except GapsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
