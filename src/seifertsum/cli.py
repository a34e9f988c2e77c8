"""Command line front end.

One subcommand per computational surface. Reports are JSON on stdout
with sorted keys, two-space indent and a schema tag, streamed as they
are written; the table-shaped commands (genera, ym2) emit CSV. Exit
codes: 0 success, 2 refused precondition or unwritable report, 3 failed
certification or integrality, 64 usage error.

The algebra can be named either combined (--algebra A2) or split
(--series A --rank 2). A JSON config file can preload any subcommand
option by its dest name (--config path, accepted before or after the
subcommand); explicit flags win over the file, and a key that names no
option of any subcommand is a usage error. --output writes the
report to a file instead of stdout.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import itertools
import math
import os
import re
import sys
from pathlib import Path

from .errors import FRAMING_CONVENTIONS, CertificationError, PreconditionError

TYPE_CHECKING = False  # true for type checkers, which read the import below
if TYPE_CHECKING:
    from fractions import Fraction


class _Parser(argparse.ArgumentParser):
    # usage problems exit 64 so scripts can tell them from refusals
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


_ALGEBRA_RE = re.compile(r"^([A-Za-z])(\d*)$")


def _algebra_type(text: str) -> tuple[str, int | None]:
    m = _ALGEBRA_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            "algebra must look like A2 or A, got %r" % (text,))
    series = m.group(1).upper()
    rank = int(m.group(2)) if m.group(2) else None
    return series, rank


def _weight_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "weight must be comma separated integers, got %r" % (text,))


def _weights_type(text: str) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    return tuple(_weight_type(part) for part in text.split(";"))


def _floats_type(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        "expected comma separated finite numbers, got %r" % (text,))


def _points_type(text: str) -> tuple[tuple[float, ...], ...]:
    if not text:
        return ()
    return tuple(_floats_type(part) for part in text.split(";"))


def _ints_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma separated integers, got %r" % (text,))


def _fraction_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


class _ReportWriteError(Exception):
    """The report could not be written to the --output path."""

    def __init__(self, path: str, reason: OSError):
        super().__init__("cannot write report %s: %s" % (path, reason))


def _write_report(chunks, args) -> None:
    """Write the report, an iterable of str pieces, to the --output file
    or to stdout. A failed file write leaves no partial file."""
    output = getattr(args, "output", None)
    if not output:
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(output, "w")
    except OSError as exc:
        raise _ReportWriteError(output, exc) from exc
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException as exc:
        # remove a partial report, never a device or link named by --output
        target = Path(output)
        if target.is_file() and not target.is_symlink():
            target.unlink()
        if isinstance(exc, OSError):
            raise _ReportWriteError(output, exc) from exc
        raise


def _check_report_dir(output: str) -> None:
    """Refuse an --output path that names a directory or whose directory
    is missing or unwritable, before any computation and without creating
    the file."""
    parent = os.path.dirname(output) or "."
    if os.path.isdir(output):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _ReportWriteError(output, OSError(code, os.strerror(code), output))


def _emit_json(payload: dict, args) -> None:
    """Write json.dumps(payload + schema, sort_keys=True, indent=2) + newline,
    streamed piece by piece; complex arrays and numbers go out as nested
    [re, im] lists. json is loaded here, for _json_chunks, so that calls
    that write CSV or are refused never load it."""
    global json, _json_string
    import json
    from json.encoder import encode_basestring_ascii as _json_string
    payload = dict(payload)
    payload["schema"] = 1
    _write_report(itertools.chain(_json_chunks(payload, 0), ("\n",)), args)


def _json_chunks(obj, depth: int):
    """Pieces of json.dumps(obj, sort_keys=True, indent=2) for obj nested
    depth levels deep. With indent, json.dumps runs its pure-Python
    encoder, which takes seconds on a 57 MB S matrix; here a complex array
    goes through _complex_array_chunks, which formats each distinct float
    magnitude once and joins each row from its texts."""
    kind = type(obj)
    # the leaves json.dumps writes with these same calls
    if kind is float and math.isfinite(obj):
        yield float.__repr__(obj)
    elif kind is int:
        yield int.__repr__(obj)
    elif kind is str:
        yield _json_string(obj)
    elif isinstance(obj, dict):
        items = sorted(obj.items())
        if not all(isinstance(key, str) for key, _ in items):
            raise TypeError("report keys must be strings")
        yield from _container_chunks(
            "{}", [(_json_string(key) + ": ", _json_chunks(value, depth + 1))
                   for key, value in items], depth)
    elif isinstance(obj, list) or kind is tuple:
        yield from _container_chunks(
            "[]", [("", _json_chunks(value, depth + 1)) for value in obj], depth)
    elif isinstance(obj, tuple):
        # a record; json.dumps would write its fields as a bare list
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    elif isinstance(obj, complex):
        yield from _json_chunks([float(obj.real), float(obj.imag)], depth)
    elif _is_complex_array(obj):
        yield from _complex_array_chunks(obj, depth)
    else:
        # NaN, infinities, bools, None, str subclasses, numpy scalars
        yield json.dumps(obj)


def _is_complex_array(obj) -> bool:
    # no ndarray can exist before numpy is loaded, so the writer need not load it
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray) and np.iscomplexobj(obj)


def _container_chunks(brackets: str, entries, depth: int):
    """A dict or list whose entries, any iterable, are (key prefix, pieces
    of the value) pairs."""
    sep = brackets[0]
    inner = "\n" + "  " * (depth + 1)
    for prefix, chunks in entries:
        yield sep + inner + prefix
        yield from chunks
        sep = ","
    yield brackets if sep == brackets[0] else "\n" + "  " * depth + brackets[1]


# distinct floats formatted per batch, so that few str objects are alive
_REPR_BATCH = 4096
# bit patterns read per block of rows, both when the table of distinct
# magnitudes is gathered and when rows look their texts up: large enough
# that a block's sorted search walks the table in order, small enough that
# a block's index arrays stay near 128 kB each
_LOOKUP_KEYS = 1 << 14
# the bits of a binary64 other than its sign
_MAGNITUDE = (1 << 63) - 1


def _complex_array_chunks(arr: np.ndarray, depth: int):
    """A complex array as json.dumps writes its nested [re, im] lists.

    The entries of S are sums read from one table of exact phases, so
    equal values are bit-equal and S holds few distinct magnitudes (A2
    k=40: 63,495 among 1,482,642 floats). The sorted distinct magnitudes,
    bit patterns with the sign bit cleared, are gathered over blocks of at
    most _LOOKUP_KEYS bit patterns (_magnitude_table), so that no copy of
    the array's size is made. Each is formatted once with float.__repr__,
    which is what json writes for a finite float; repr(-x) is "-" +
    repr(x) for every finite x, -0.0 included, so one text serves both
    signs (_signed_texts). The rows are then read in blocks again: a
    block's magnitudes are sorted, found in the table by one sorted search
    and scattered back, so that lookups walk the table in order, and the
    sign bits pick each float's text. Each finite row is its texts joined
    between the pieces of its layout, and the rows stay lazy: only one
    block is alive at a time. Rows holding NaN or an infinity take the
    json path, which spells them NaN and Infinity.
    """
    import numpy as np

    if arr.ndim == 0 or not arr.size:
        yield from _json_chunks(arr.tolist(), depth)
        return
    if arr.ndim > 2:
        yield from _json_chunks(list(arr), depth)
        return
    rows = np.atleast_2d(arr)
    bits = np.ascontiguousarray(rows, dtype=np.complex128).view(np.int64)
    per_block = max(1, _LOOKUP_KEYS // bits.shape[1])
    table = _magnitude_table(bits, per_block)
    texts = _signed_texts(table)
    row_depth = depth + arr.ndim - 1
    # a row is its texts joined between the pieces of its layout: one
    # allocation of the row's size, where % formatting grows a buffer
    parts = list(_complex_row_pieces(rows.shape[1], row_depth))

    def row_chunks():
        """Each row's pieces, a block of rows at a time."""
        for i0 in range(0, len(bits), per_block):
            block = bits[i0:i0 + per_block]
            found = block & _MAGNITUDE
            keys = found.ravel()  # a view: the positions overwrite found's keys
            order = keys.argsort()
            keys[order] = np.searchsorted(table, keys[order])
            del keys, order
            signs = (block < 0).view(np.int8)
            finite = np.isfinite(rows[i0:i0 + per_block]).all(axis=1)
            for i, ok in enumerate(finite.tolist()):
                if ok:
                    parts[1::2] = texts[found[i], signs[i]].tolist()
                    yield ("", (b"".join(parts).decode("ascii"),))
                else:
                    yield ("", _json_chunks(rows[i0 + i].tolist(), row_depth))

    if arr.ndim == 1:
        yield from next(row_chunks())[1]
    else:
        yield from _container_chunks("[]", row_chunks(), depth)


def _magnitude_table(bits, per_block: int):
    """The sorted distinct magnitudes (bit patterns with the sign bit
    cleared) of a 2-D int64 array, read one block of rows at a time.

    Each block's magnitudes are appended to one buffer; when it is full,
    the whole is sorted and its repeats dropped in place (_settle), and it
    grows by doubling. Growing and the final trim are reallocations of
    that buffer, so no second table is made and the heap is not cut up by
    a table rebuilt at every size."""
    import numpy as np

    table = np.empty(0, dtype=np.int64)
    end = 0
    for i0 in range(0, len(bits), per_block):
        block = bits[i0:i0 + per_block]
        if end + block.size > len(table):
            end = _settle(table[:end])
            if 2 * (end + block.size) > len(table):
                # no view of table is alive here
                table.resize(2 * (end + block.size), refcheck=False)
        np.bitwise_and(block, _MAGNITUDE,
                       out=table[end:end + block.size].reshape(block.shape))
        end += block.size
    end = _settle(table[:end])
    table.resize(end, refcheck=False)
    return table


def _settle(run) -> int:
    """Sort run in place and move its distinct values to its head, a
    block at a time; return their number."""
    import numpy as np

    run.sort()
    heads = np.empty(len(run), dtype=bool)
    heads[:1] = True
    np.not_equal(run[1:], run[:-1], out=heads[1:])
    size = 0
    for i in range(0, len(run), _LOOKUP_KEYS):
        # each block is copied out before the writes, which end at or
        # before the block's own end
        distinct = run[i:i + _LOOKUP_KEYS][heads[i:i + _LOOKUP_KEYS]]
        run[size:size + len(distinct)] = distinct
        size += len(distinct)
    return size


def _signed_texts(table):
    """An (n, 2) bytes array over one buffer: [m, 0] is repr of the float
    with bits table[m], [m, 1] the same text after a minus sign. Each
    magnitude takes 25 bytes: the minus, then its repr (at most 23
    characters, 2.2250738585072014e-308) padded with zero bytes, so that
    column 0 starts one byte after column 1."""
    import numpy as np

    raw = np.zeros(25 * len(table), dtype=np.uint8)
    raw[::25] = ord("-")
    texts = np.ndarray((len(table), 2), dtype="S24", buffer=raw, offset=1,
                       strides=(25, -1))
    for i in range(0, len(table), _REPR_BATCH):
        texts[i:i + _REPR_BATCH, 0] = [
            repr(x) for x in table[i:i + _REPR_BATCH].view(np.float64).tolist()]
    return texts


@functools.lru_cache(maxsize=16)
def _complex_row_pieces(length: int, depth: int) -> tuple:
    """json.dumps layout of `length` [re, im] pairs at `depth`, cut at
    every float: the layout's pieces sit at the even places, a None at
    each odd place where a float's text goes."""
    inner = "\n" + "  " * (depth + 1)
    pair = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
    layout = ("[" + inner + ("," + inner).join([pair] * length)
              + "\n" + "  " * depth + "]").encode("ascii")
    pieces = [None] * (4 * length + 1)
    pieces[::2] = layout.split(b"%s")
    return tuple(pieces)


def _given(**kwargs) -> dict:
    """The options given on the command line or in the config; an option
    left out is left to the library's default."""
    return {name: value for name, value in kwargs.items() if value is not None}


def _root_system(args):
    from .lie import build_root_system

    series, rank = args.algebra or ("A", None)
    series = series if args.series is None else args.series
    rank = rank if args.rank is None else args.rank
    if rank is None:
        raise PreconditionError(
            "rank not specified; use --algebra A2 or --rank 2")
    return build_root_system(series, rank)


def _labels_from(args) -> tuple:
    from .lie import Weight

    return tuple(map(Weight, [*(args.labels or ()), *(args.label or ())]))


def _cmd_lie(args) -> int:
    from .lie import Weight, casimir, weyl_dimension

    rs = _root_system(args)
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "algebra_dimension": rs.dimension,
        "positive_roots": rs.num_positive_roots,
        "dual_coxeter": rs.dual_coxeter,
        "centre_order": rs.centre_order,
        "weyl_order": math.factorial(rs.rank + 1),
        "cartan_matrix": [list(row) for row in rs.cartan],
    }
    if args.weight is not None:
        w = Weight(args.weight)
        if len(w.coords) != rs.rank:
            raise PreconditionError("weight has %d coordinates, rank is %d"
                                    % (len(w.coords), rs.rank))
        out["weight"] = list(w.coords)
        out["dominant"] = w.is_dominant
        if w.is_dominant:
            out["irrep_dimension"] = weyl_dimension(rs, w)
            out["casimir"] = _fraction_str(casimir(rs, w))
            out["level"] = rs.level_of(w)
    _emit_json(out, args)
    return 0


def _cmd_modular(args) -> int:
    from .modular import central_charge, s_matrix

    rs = _root_system(args)
    md = s_matrix(rs, args.level, **_given(tol=args.tol))
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "level": args.level,
        "kappa": md.kappa,
        "weights": [list(w.coords) for w in md.weights],
        "central_charge": central_charge(rs, args.level),
        "precision_bits": md.precision_bits,
        "s": md.s,
        "t_canonical": md.t_canonical,
        "t_bare": md.t_bare,
        "conjugation": list(md.conjugation),
        "certificate": {k: (v if isinstance(v, bool) else float(v))
                        for k, v in sorted(md.certificate.items())},
    }
    _emit_json(out, args)
    return 0


def _cmd_verlinde(args) -> int:
    from .verlinde import verlinde_table

    rs = _root_system(args)
    labels = _labels_from(args)
    table = verlinde_table(rs, args.genus, args.levels, labels=labels)
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "genus": args.genus,
        "labels": [list(lab.coords) for lab in labels],
        "table": [{"k": k, "dimension": d} for k, d in table.rows],
        "monotone_nondecreasing": table.monotone_nondecreasing,
    }
    _emit_json(out, args)
    return 0


def _cmd_seifert(args) -> int:
    from .seifert import seifert_scan

    rs = _root_system(args)
    labels = _labels_from(args)
    if args.scan:
        grid = args.genera, args.degrees, args.levels
        missing = [flag for flag, values in zip(("--genera", "--degrees", "--levels"), grid)
                   if not values]
        if missing:
            sys.stderr.write("seifert: error: --scan needs %s\n" % ", ".join(missing))
            return 64
    elif args.level is None or args.genus is None or args.degree is None:
        sys.stderr.write(
            "seifert: error: --level, --genus and --degree are required "
            "unless --scan is given\n")
        return 64
    else:  # one cell is the one-cell scan
        grid = [args.genus], [args.degree], [args.level]
    framing = args.framing or "bare"
    cells = [{"genus": c.genus, "degree": c.degree, "level": c.level,
              "value_re": float(c.value.real), "value_im": float(c.value.imag),
              "modulus": c.modulus, "terms": c.term_count}
             for c in seifert_scan(rs, *grid, labels=labels, framing=framing,
                                   include_centre_factor=args.centre_factor)]
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "conventions": {"framing": framing, "centre_factor": bool(args.centre_factor)},
        "labels": [list(lab.coords) for lab in labels],
        **({"cells": cells} if args.scan else cells[0]),
    }
    _emit_json(out, args)
    return 0


def _cmd_kirillov(args) -> int:
    from .lie import CartanElement, Weight
    from .orbits import dh_weyl_sum, kirillov_check, orbit_fourier, orbit_from_highest_weight

    rs = _root_system(args)
    w = Weight(args.weight)
    points = list(args.points or ())
    if args.point is not None:
        points.append(args.point)
    if not points:
        sys.stderr.write("kirillov: error: give --point or --points\n")
        return 64
    orbit = orbit_from_highest_weight(rs, w)
    rows = []
    worst = 0.0
    for point in points:
        if len(point) != rs.rank:
            raise PreconditionError("point has %d coordinates, rank is %d"
                                    % (len(point), rs.rank))
        x = CartanElement(tuple(complex(c) for c in point))
        of, _ = orbit_fourier(orbit, x)
        dh, _ = dh_weyl_sum(orbit, x)
        residual = kirillov_check(rs, w, x)
        worst = max(worst, residual)
        rows.append({
            "point": [float(c) for c in point],
            "orbit_fourier": of,
            "stationary_phase_sum": dh,
            "residual": residual,
        })
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "weight": list(w.coords),
        "orbit_dimension": orbit.dimension,
        "table": rows,
        "max_residual": worst,
    }
    _emit_json(out, args)
    return 0


def _cmd_genera(args) -> int:
    from .genera import evaluate
    from .lie import CartanElement

    rs = _root_system(args)
    if not args.points:
        sys.stderr.write("genera: error: --points names no point\n")
        return 64
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x%d" % (i + 1) for i in range(rs.rank)] + ["re", "im"])
    for point in args.points:
        if len(point) != rs.rank:
            raise PreconditionError("point has %d coordinates, rank is %d"
                                    % (len(point), rs.rank))
        x = CartanElement(tuple(complex(c) for c in point))
        value = evaluate(rs, args.which, x, args.genus, **_given(c1_part=args.c1))
        writer.writerow([repr(float(c)) for c in point]
                        + [repr(value.real), repr(value.imag)])
    _write_report([buf.getvalue()], args)
    return 0


def _cmd_ym2(args) -> int:
    from .ym2 import ym2_epsilon_profile

    rs = _root_system(args)
    prof = ym2_epsilon_profile(rs, args.genus, args.epsilons, **_given(target_tol=args.tol))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["epsilon", "Z", "tail_bound"])
    for eps, value, bound in prof.rows:
        writer.writerow([repr(eps), repr(value), repr(bound)])
    _write_report([buf.getvalue()], args)
    return 0


def _cmd_pairings(args) -> int:
    from .quasipoly import pairing_report

    rs = _root_system(args)
    rep = pairing_report(rs, args.genus, args.kmin, args.kmax, labels=_labels_from(args),
                         **_given(max_period=args.max_period, horizon=args.horizon))
    out = {
        "series": rs.series,
        "rank": rs.rank,
        "genus": rep.genus,
        "labels": [list(lab) for lab in rep.labels],
        "levels": list(rep.levels),
        "values": list(rep.values),
        "period": rep.qp.period,
        "degree": rep.degree,
        "expected_degree": rep.expected_degree,
        "degree_matches": rep.degree_matches,
        "coefficients": [[_fraction_str(c) for c in cls]
                         for cls in rep.qp.coeffs],
        "leading_by_class": [_fraction_str(q) for q in rep.leading_by_class],
        "leading_pairing": _fraction_str(rep.leading_by_class[0]),
        "predictions": [list(p) for p in rep.predictions],
        "prediction_errors": list(rep.prediction_errors),
    }
    _emit_json(out, args)
    return 0


def _cmd_crosscheck(args) -> int:
    from .crosscheck import run_crosschecks

    report = run_crosschecks(**_given(mode=args.suite, seed=args.seed))
    for check in report.checks:
        sys.stderr.write("%-32s %s  residual=%g\n"
                         % (check.name, "PASS" if check.passed else "FAIL",
                            check.residual))
    _emit_json(report.to_json_dict(), args)
    return 0 if report.passed else 3


def _add_common_options(sub, algebra: bool = True):
    if algebra:
        sub.add_argument("--algebra", type=_algebra_type, default=None,
                         help="combined name like A2")
        sub.add_argument("--series", default=None, help="root system series")
        sub.add_argument("--rank", type=int, default=None)
    sub.add_argument("--output", default=None,
                     help="write the report to this file instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="seifertsum",
                     description="exact and certified sums for fibred "
                                 "three-manifold invariants")
    parser.add_argument("--config", default=None,
                        help="JSON file preloading option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lie", help="root system and representation facts")
    _add_common_options(p)
    p.add_argument("--weight", type=_weight_type, default=None)
    p.set_defaults(func=_cmd_lie)

    p = sub.add_parser("modular", help="certified modular matrices")
    _add_common_options(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_modular)

    p = sub.add_parser("verlinde", help="fusion dimension tables")
    _add_common_options(p)
    p.add_argument("--level", "--levels", dest="levels", type=_ints_type,
                   required=True, help="level or comma separated levels")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--labels", type=_weights_type, default=())
    p.add_argument("--label", type=_weight_type, action="append", default=[])
    p.set_defaults(func=_cmd_verlinde)

    p = sub.add_parser("seifert", help="fibred partition sums")
    _add_common_options(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--labels", type=_weights_type, default=())
    p.add_argument("--label", type=_weight_type, action="append", default=[])
    p.add_argument("--framing", choices=FRAMING_CONVENTIONS, default=None)
    p.add_argument("--centre-factor", action="store_true")
    p.add_argument("--scan", action="store_true",
                   help="evaluate a grid instead of a single point")
    p.add_argument("--genera", type=_ints_type, default=())
    p.add_argument("--degrees", type=_ints_type, default=())
    p.add_argument("--levels", type=_ints_type, default=())
    p.set_defaults(func=_cmd_seifert)

    p = sub.add_parser("kirillov", help="orbit transforms at sample points")
    _add_common_options(p)
    p.add_argument("--weight", type=_weight_type, required=True)
    p.add_argument("--point", type=_floats_type, default=None)
    p.add_argument("--points", type=_points_type, default=())
    p.set_defaults(func=_cmd_kirillov)

    p = sub.add_parser("genera", help="genus functions on sample points, CSV")
    _add_common_options(p)
    p.add_argument("--which", choices=("j", "ahat", "todd"), required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--c1", type=float, default=None,
                   help="degree pairing in the exponential factor")
    p.add_argument("--points", type=_points_type, required=True)
    p.set_defaults(func=_cmd_genera)

    p = sub.add_parser("ym2", help="heat kernel sums over couplings, CSV")
    _add_common_options(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--epsilons", type=_floats_type, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_ym2)

    p = sub.add_parser("pairings", help="quasi-polynomial level structure")
    _add_common_options(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--labels", type=_weights_type, default=())
    p.add_argument("--label", type=_weight_type, action="append", default=[])
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_pairings)

    p = sub.add_parser("crosscheck", help="consistency suites")
    _add_common_options(p, algebra=False)
    p.add_argument("--suite", choices=("quick", "full"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def _config_text(value) -> str:
    """A config value as its flag's text: ',' inside a weight or point, ';' between them."""
    if not isinstance(value, list):
        return str(value)
    return (";" if any(isinstance(v, list) for v in value) else ",").join(map(_config_text, value))


def _apply_config(parser: _Parser, config: dict, argv) -> None:
    """Preload the options of the subcommand in argv from config. A key that
    names an option of another subcommand is accepted, so that one file can
    serve every subcommand; a key that names none is a usage error."""
    # argparse runs an option's type only on a string default, so a typed
    # option's value goes in as its flag's text; a string default breaks the
    # append action, so an appended --label's items are typed here instead
    (choices,) = (action.choices for action in parser._subparsers._group_actions)
    unknown = sorted(set(config).difference(
        *({arg.dest for arg in p._actions if arg.default is not argparse.SUPPRESS}
          for p in choices.values())))
    if unknown:
        parser.error("config keys that name no option: %s" % ", ".join(unknown))
    sp = choices.get(next((a for a in argv if not a.startswith("-")), None))
    for arg in sp._actions if sp else ():
        if arg.dest in config:
            arg.required, value = False, config[arg.dest]
            if isinstance(arg, argparse._AppendAction) and value is not None:
                items = value if isinstance(value, list) else [value]
                try:
                    value = [arg.type(_config_text(item)) for item in items]
                except argparse.ArgumentTypeError as exc:
                    sp.error(str(argparse.ArgumentError(arg, str(exc))))
            elif arg.type and value is not None:
                value = _config_text(value)
            sp.set_defaults(**{arg.dest: value})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    # the pre-parse consumes --config wherever it sits, so the flag works
    # before or after the subcommand
    known, argv = pre.parse_known_args(argv)
    config = {}
    if known.config is not None:
        import json
        try:
            config = json.loads(Path(known.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sys.stderr.write("error: cannot read config %s: %s\n"
                             % (known.config, exc))
            return 2
        if not isinstance(config, dict):
            sys.stderr.write("error: config must be a JSON object\n")
            return 2
    parser = build_parser()
    try:
        if config:
            _apply_config(parser, config, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64
    try:
        if getattr(args, "output", None):
            _check_report_dir(args.output)
        return args.func(args)
    except PreconditionError as exc:
        sys.stderr.write("refused: %s\n" % (exc,))
        return 2
    except CertificationError as exc:
        sys.stderr.write("certification failed: %s\n" % (exc,))
        return 3
    except _ReportWriteError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
