"""Command line front end.

Subcommands: count, decompose, hstar, residues, verify, histogram,
cycles, rectangle, tile.  JSON goes to stdout wrapped in a fixed report
envelope (documented in docs/cli-schema.json) and written byte for byte as
json.dumps(report, sort_keys=True, indent=2) would write it; `decompose`
emits the bare {"mu": ..., "tau": ...} object.  CSV uses CRLF line
endings with fixed column orders.  The files of `tile` and `rectangle
--cells-csv` are complete before any report is printed.  Exit codes: 0
success, 1 verification failure, 2 input error (an export file that cannot
be opened or written among them, with nothing on stdout) or a stdout that
fails before all output is written, closed or full (one `error:` line on
stderr, no traceback).  A failed internal proof check (an AssertionError,
such as row_permutation finding a border jump that does not raise c_ls by
one) is a verification failure: exit 1, nothing on stdout, one `error:
internal check failed: ...` line on stderr.  All output is deterministic
for identical inputs.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as encode_str

from . import __version__
from .congruence import _non_witnessed, characterize
from .cranks import (
    _cycle_runs,
    c_ls,  # unused here; bench/test_bench.py traces this binding
    c_ls_histogram,
    c_ls_histograms,
    case_labels,
    closed_form_table,
    ehrhart_crank_closed_form,
    is_uniform,
    plan_crank,
    plan_for,
    plan_table,
    table_histogram,
)
from .ehrhart import box_decompose, fundamental_points, h_star, h_star_from_gf
from .partitions import check_partition
from .quasipoly import _METHODS, evaluate


def _render(doc, indent="\n"):
    """json.dumps(doc, sort_keys=True, indent=2), byte for byte, from the
    C-level leaf encoders: any indent sends json.dumps to its pure-Python
    encoder.  int.__repr__ keeps its limit on digits (ValueError)."""
    if isinstance(doc, str):
        return encode_str(doc)
    inner = indent + "  "
    if isinstance(doc, dict):
        text = ("," + inner).join([
            encode_str(key) + ": " + _render(doc[key], inner)
            for key in sorted(doc)])
        return "{" + inner + text + indent + "}" if text else "{}"
    if isinstance(doc, (list, tuple)):
        text = ("," + inner).join(
            map(int.__repr__, doc) if set(map(type, doc)) == {int}
            else [_render(item, inner) for item in doc])
        return "[" + inner + text + indent + "]" if text else "[]"
    if type(doc) is int:
        return int.__repr__(doc)
    if doc is None or doc is True or doc is False:
        return "null" if doc is None else "true" if doc else "false"
    return json.dumps(doc)  # floats and int subclasses


def _print_report(command, inputs, outcome, payload):
    doc = {"command": command, "inputs": inputs, "outcome": outcome,
           "payload": payload}
    try:
        text = _render(doc)
    except ValueError:  # an int past the interpreter's digit limit
        raise ValueError("input too large: a result has more than %d digits"
                         % sys.get_int_max_str_digits())
    print(text)


# The brute counter is O(n), two C-level range sums over the rows: under
# 0.1 s at this height.  Raising the cap would change `count` stdout.
_BRUTE_MAX_N = 10 ** 7


def cmd_count(args):
    if args.n < 0:
        raise ValueError("n must be non-negative, got %d" % args.n)
    brute_ok = args.n <= _BRUTE_MAX_N
    if args.method == "all":
        values = {name: evaluate(args.n, name).value for name in _METHODS
                  if brute_ok or name != "brute"}
        consistent = len(set(values.values())) == 1
        outcome = "success" if consistent else "failure"
        payload = {"values": values, "consistent": consistent}
        if not brute_ok:
            payload["notes"] = ["brute skipped: it is O(n) and runs only "
                                "for n <= %d" % _BRUTE_MAX_N]
        _print_report("count", {"n": args.n, "method": "all"}, outcome,
                      payload)
        return 0 if consistent else 1
    if args.method == "brute" and not brute_ok:
        raise ValueError("--method brute is O(n) and runs only for "
                         "n <= %d, got %d" % (_BRUTE_MAX_N, args.n))
    value = evaluate(args.n, args.method).value
    _print_report("count", {"n": args.n, "method": args.method}, "success",
                  {"value": value})
    return 0


def cmd_decompose(args):
    lam = check_partition((args.l1, args.l2, args.l3))
    mu, tau = box_decompose(lam)
    print(json.dumps({"mu": list(mu), "tau": list(tau)}, separators=(",", ":")))
    return 0


def cmd_hstar(args):
    census = h_star()
    alt = h_star_from_gf()
    symmetric = all(census[i] == census[18 - i] for i in range(3, 16))
    ok = census == alt
    _print_report("hstar", {}, "success" if ok else "failure",
                  {"h_star": census, "sum": sum(census),
                   "symmetric": symmetric, "gf_match": ok})
    return 0 if ok else 1


def cmd_residues(args):
    ch = characterize(args.m)
    payload = {
        "modulus": ch.modulus,
        "period": ch.period,
        "family": ch.family,
        "residues": sorted(ch.residues),
        "sqrt_minus3": list(ch.sqrt_minus3) if ch.sqrt_minus3 else None,
    }
    if ch.family == "plus_one":
        payload["non_witnessed"] = sorted(_non_witnessed(ch))
    _print_report("residues", {"m": args.m}, "success", payload)
    return 0


def cmd_verify(args):
    ch = characterize(args.m)
    n_max = args.max_n if args.max_n is not None else 60 * args.m
    if n_max < 0:
        raise ValueError("--max-n must be non-negative, got %d" % n_max)
    witnessed_skip = (_non_witnessed(ch) if ch.family == "plus_one"
                      else frozenset())
    # One pass: sum(hist) = p(n,3) gives the actual divisibility, the
    # spread of hist the uniformity.  On a mismatch the sweep stops and
    # reports no uniformity findings.
    mismatch = None
    uniformity_violations = []
    non_witnessed_hits = []
    for n, hist in c_ls_histograms(args.m, n_max):
        residue = n % ch.period
        divisible = residue in ch.residues
        if divisible != (sum(hist.counts) % args.m == 0):
            mismatch = n
            uniformity_violations, non_witnessed_hits = [], []
            break
        uniform = is_uniform(hist)
        if residue in witnessed_skip:
            if not uniform:
                non_witnessed_hits.append(n)
        elif uniform != divisible:
            uniformity_violations.append(n)
    notes = []
    if mismatch is None and witnessed_skip:
        notes.append("non-witnessed residues mod %d: %s (largest-minus-"
                     "smallest is not a crank there)"
                     % (ch.period, sorted(witnessed_skip)))
    ok = mismatch is None and not uniformity_violations
    payload = {
        "modulus": args.m,
        "family": ch.family,
        "max_n": n_max,
        "characterization_ok": mismatch is None,
        "first_mismatch": mismatch,
        "uniformity_violations": uniformity_violations,
        "notes": notes,
    }
    if ch.family == "plus_one":
        payload["non_witnessed_residues"] = sorted(witnessed_skip)
        payload["non_witnessed_nonuniform_heights"] = non_witnessed_hits
    _print_report("verify", {"m": args.m, "max_n": n_max},
                  "success" if ok else "failure", payload)
    return 0 if ok else 1


def cmd_histogram(args):
    if args.m <= 0:
        raise ValueError("m must be positive, got %d" % args.m)
    if args.crank == "cls":
        hist, tag = c_ls_histogram(args.n, args.m), "cls"
    else:
        if args.crank == "closed":
            crank, table, tag = (ehrhart_crank_closed_form,
                                 closed_form_table(), "closed")
        else:
            plan = plan_for(args.r_prime, args.m)
            crank, table = plan_crank(plan), plan_table(plan)
            tag = "plan:%s" % plan.r_label
        hist = table_histogram(args.n, args.m, table)
        if hist is None:
            # the table places no partition of n (table_histogram): the
            # crank names the first one the enumeration would reject
            crank((args.n - 2, 1, 1), args.m)
    uniform = is_uniform(hist)
    _print_report("histogram",
                  {"n": args.n, "m": args.m, "crank": tag},
                  "success",
                  {"counts": list(hist.counts), "uniform": uniform,
                   "total": sum(hist.counts)})
    if args.expect_uniform and not uniform:
        return 1
    return 0


# `cycles` writes a cycle at once, as json.dumps(report, sort_keys=True,
# indent=2) or csv.writer(lineterminator="\r\n") would: one pre-sized list
# of pieces, one join and one write.  Along a row run l1 and c_ls = l1 - t
# rise by one, l2 falls by one and lambda3 = t is fixed, so _lay fills each
# run's columns from one forward slice of each per-call table of decimal
# strings, separators fused in.  The CSV position comes from two 1000-entry
# tables (_position_pieces).  A cycle starts at a border (n-2t, t, t); m
# divides its size.
_CYCLES_HEAD = ('{\n  "command": "cycles",\n  "inputs": {\n    "m": %d,\n'
                '    "n": %d\n  },\n  "outcome": "success",\n'
                '  "payload": {\n    "cycles": [\n')
_CYCLES_TAIL = '\n    ],\n    "lengths": [\n%s\n    ]\n  }\n}\n'


def _lay(pieces, i, k, *columns):
    """Lay k rows of the columns into pieces from index i on, row after
    row (pieces[i + c j + col] = columns[col][j] for c columns), with one
    extended-slice assignment per column.  Returns the index past them."""
    step = len(columns)
    end = i + step * k
    for column in columns:
        pieces[i:end:step] = column
        i += 1
    return end


def _position_pieces(ci, pos, k, units, padded):
    """Two piece lists whose rows join to "ci,p" for p = pos .. pos + k - 1,
    split at the multiples of 1000: "ci," and units[p] below 1000, "ci,q"
    and padded[r] for p = 1000 q + r past it (units and padded hold "%d"
    and "%03d" of 0 .. 999)."""
    heads, digits = [], []
    for start in range(pos - pos % 1000, pos + k, 1000):
        q, a, b = start // 1000, max(pos - start, 0), min(pos + k - start, 1000)
        heads += ["%d,%d" % (ci, q) if q else "%d," % ci] * (b - a)
        digits += (padded if q else units)[a:b]
    return heads, digits


def cmd_cycles(args):
    n, m, as_json = args.n, args.m, args.format == "json"
    cycle_runs = _cycle_runs(n, m)  # checked before the first byte
    top = (n - 1) // 2  # the largest l2
    fmt1, fmt2, fmt3 = ((",\n          [\n            %d,\n            ",
                         "%d,\n            ", "%d\n          ]")
                        if as_json else (",%d,", "%d,", "%d,"))
    l1s = [fmt1 % l1 for l1 in range(n - 1)]
    l2s = [fmt2 % l2 for l2 in range(top, 0, -1)]
    cranks, units, padded = ([], [], []) if as_json else (
        ["%d\r\n" % (d % m) for d in range(n - 2)],
        list(map(str, range(1000))), ["%03d" % r for r in range(1000)])
    write = sys.stdout.write
    write(_CYCLES_HEAD % (m, n) if as_json else
          "cycle_index,position,lambda1,lambda2,lambda3,crank\r\n")
    sizes = [sum(run[2] for run in runs) for runs in cycle_runs]
    for ci, (runs, size) in enumerate(zip(cycle_runs, sizes)):
        # the JSON head, then 3 (JSON) or 6 (CSV) pieces a member, the tail
        pieces, i = [""] * ((3 if as_json else 6) * size + 2), 1
        for t, l2, k in runs:  # a CSV member's position is (i - 1) / 6
            a, b = n - t - l2, top - l2
            row = l1s[a:a + k], l2s[b:b + k], [fmt3 % t] * k
            i = (_lay(pieces, i, k, *row) if as_json else _lay(
                pieces, i, k, *_position_pieces(ci, i // 6, k, units, padded),
                *row, cranks[a - t:a - t + k]))
        if as_json:
            # m cranks on from the border's c_ls, n - 3t
            period = ",\n".join(["          %d" % (c % m) for c in range(
                n - 3 * runs[0][0], n - 3 * runs[0][0] + m)])
            pieces[0] = ('%s      {\n        "cranks": [\n%s\n        ],\n'
                         '        "length": %d,\n        "partitions": ['
                         % (",\n" if ci else "",
                            ",\n".join([period] * (size // m)), size))
            # the border member has no leading comma
            pieces[1], pieces[-1] = pieces[1][1:], "\n        ]\n      }"
        write("".join(pieces))
    if as_json:
        write(_CYCLES_TAIL % ",\n".join(["      %d" % k for k in sizes]))
    return 0


def _stepped(table, a, d, k):
    """table[a], table[a + d], .., table[a + (k-1) d]."""
    return (table[a:a + d * k if a + d * k >= 0 else None:d] if d
            else [table[a]] * k)


def cmd_rectangle(args):
    plan = plan_for(args.r_prime, args.m)
    label = plan.r_label
    n = plan.n_for(args.k_prime)
    if n < 0:
        raise ValueError("height n = 6mk'+r' must be non-negative, got %d"
                         % n)
    dims = plan.dims(args.k_prime)
    vacuous = dims[0] == 0 or dims[1] == 0
    report = plan.verify_cover(args.k_prime)
    payload = {
        "r_prime": label,
        "m": args.m,
        "k_prime": args.k_prime,
        "n": n,
        "width": dims[0],
        "height": dims[1],
        "vacuous": vacuous,
        "cover_ok": report.ok,
        "cells": report.cells,
        "detail": report.detail,
        "placements": [
            {"mu": list(mu), "size_offset": off,
             "matrix": [list(row) for row in mp.matrix],
             "offset": list(mp.offset)}
            for mu, off, mp in plan.placements
        ],
    }
    if args.cells_csv and report.ok and not vacuous:
        _write_file(args.cells_csv,
                    _cells_csv_chunks(plan, args.k_prime, n, dims[0]))
    _print_report("rectangle",
                  {"m": args.m, "k_prime": args.k_prime, "r_prime": label},
                  "success" if report.ok else "failure", payload)
    return 0 if report.ok else 1


def _cells_csv_chunks(plan, kprime, n, width):
    """rectangle --cells-csv in chunks: csv.writer's bytes, a row piece at a
    time, laid (_lay) from slices of per-call tables of decimal strings: x,
    lambda1 and lambda2 from one, lambda3 with the line end from the other."""
    commas = ["%d," % v for v in range(max(width, n + 1))]
    ends = ["%d\r\n" % v for v in range(n + 1)]
    yield "x,y,lambda1,lambda2,lambda3\r\n"
    for y, x, k, *lam in plan._rows(kprime):
        pieces = [""] * (5 * k)
        _lay(pieces, 0, k, commas[x:x + k], ["%d," % y] * k,
             *(_stepped(table, l, d, k) for table, l, d in zip(
                 (commas, commas, ends), lam, lam[3:])))
        yield "".join(pieces)


def _write_file(path, chunks):
    """Write the chunks to path.  A failed open or write is an input error,
    raised before any report is printed: exit 2 with nothing on stdout."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.writelines(chunks)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc))


# `tile` lays, joins and writes a block once it holds this many circles:
# a chunk per run costs a join and a write each, a whole group leaves cache
_TILE_BLOCK = 4096


def _tiling_chunks(n):
    """render_tiling_svg in chunks.  P(n,3) has the box remainders mu with
    |mu| <= n, |mu| = n mod 6 (|V3 tau| = 6 |tau|).  mu fixes l1 - l2 mod 6,
    so at each l1 its partitions are a run of l2 stepping by -6, added to
    the group's five columns as one forward slice of each per-call table of
    decimal strings.  Blocks of _TILE_BLOCK circles or more, and each
    group's last, are laid (_lay) and joined as one chunk each."""
    order = sorted(mu for h, pts in fundamental_points().items()
                   if h <= n and (n - h) % 6 == 0 for mu in pts)
    scale, radius, margin, legend_w = 18, 6, 40, 270
    top = (n - 1) // 2  # the largest l2
    xmax, ymax = max(top - 1, 0), max(n // 3, 1)  # the largest l2 - l3, l3
    width = 2 * margin + xmax * scale + legend_w
    height = 2 * margin + max((ymax - 1) * scale, 22 * max(1, len(order)))
    yield ('<?xml version="1.0" encoding="UTF-8"?>\n'
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="%d" height="%d" viewBox="0 0 %d %d">\n<title>partitions of '
           '%d into three parts, colored by box remainder</title>\n'
           % (width, height, width, height, n))
    cxs = ['<circle cx="%d" cy="' % (margin + x * scale)
           for x in range(xmax, -1, -1)]
    cys = ['%d" r="%d"><title>' % (margin + (ymax - l3) * scale, radius)
           for l3 in range(ymax + 1)]
    l1s = ["%d+" % l1 for l1 in range(n)]
    l2s = l1s[top:0:-1]
    l3s = ["%d</title></circle>\n" % l3 for l3 in range(ymax + 1)]
    for gi, mu in enumerate(order):
        color = "hsl(%d, 70%%, 45%%)" % ((gi * 360) // max(1, len(order)))
        yield '<g fill="%s">\n' % color
        columns = cx, cy, c1, c2, c3 = [], [], [], [], []
        size, last, d = 0, (n + 2) // 3, mu[0] - mu[1]
        for l1 in range(n - 2, last - 1, -1):
            hi, lo = l1 if 2 * l1 < n else n - l1 - 1, (n - l1 + 1) // 2
            l2 = hi - (hi - l1 + d) % 6  # the run's largest l2
            if l2 >= lo:
                k = (l2 - lo) // 6 + 1
                l3, ix = n - l1 - l2, xmax - (2 * l2 + l1 - n)
                cx += cxs[ix:ix + 12 * k:12]
                cy += cys[l3:l3 + 6 * k:6]
                c1 += [l1s[l1]] * k
                c2 += l2s[top - l2:top - l2 + 6 * k:6]
                c3 += l3s[l3:l3 + 6 * k:6]
            if len(cx) >= _TILE_BLOCK or l1 == last:
                k = len(cx)
                size, pieces = size + k, [""] * (5 * k)
                _lay(pieces, 0, k, *columns)
                yield "".join(pieces)
                for column in columns:
                    column.clear()
        lx, ly = 2 * margin + xmax * scale + 20, margin + gi * 22
        yield ('</g>\n<rect x="%d" y="%d" width="12" height="12" fill="%s"/>\n'
               '<text x="%d" y="%d" font-family="monospace" font-size="13">'
               'mu=(%d,%d,%d): %d partitions</text>\n'
               % (lx, ly - 10, color, lx + 18, ly, mu[0], mu[1], mu[2], size))
    yield '</svg>\n'


def render_tiling_svg(n):
    """Deterministic SVG: partitions of n at (l2-l3, l3), one color per
    box remainder, with a legend of remainders and group sizes."""
    return "".join(_tiling_chunks(n))


def cmd_tile(args):
    if args.n < 3:
        raise ValueError("need n >= 3 for a non-empty tiling, got %d" % args.n)
    _write_file(args.path, _tiling_chunks(args.n))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Parsing leaves it unchanged: no argument has a mutable default, and
    argparse makes each help formatter when it prints.  `commands` maps
    each subcommand name to that subcommand's parser.
    """
    parser = argparse.ArgumentParser(
        prog="triparts",
        description="partitions into three parts: counting, box decomposition, "
                    "divisibility and cranks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("count", help="evaluate p(n,3)")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=(*_METHODS, "all"), default="all")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("decompose", help="box decomposition of a partition")
    p.add_argument("l1", type=int)
    p.add_argument("l2", type=int)
    p.add_argument("l3", type=int)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("hstar", help="height census of the fundamental box")
    p.set_defaults(fn=cmd_hstar)

    p = sub.add_parser("residues", help="divisible residue classes for a modulus")
    p.add_argument("m", type=int)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("verify", help="check the characterization and c_ls uniformity")
    p.add_argument("m", type=int)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("histogram", help="crank histogram over P(n,3)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--crank", choices=("cls", "closed", "plan"), default="cls",
                   help="plan and closed (the 2m-2 closed form) count at any "
                        "height whose box remainders they place; uniform "
                        "only at n = 6mk'+r'")
    p.add_argument("--r-prime", default="2m-2",
                   help="progression label for --crank plan (e.g. %s)"
                        % ", ".join(case_labels()))
    p.add_argument("--fast", action="store_true",
                   help="accepted and ignored: c_ls counts by progressions "
                        "and plan/closed by row-class families, in O(m)")
    p.add_argument("--expect-uniform", action="store_true",
                   help="exit 1 if the histogram is not uniform")
    p.set_defaults(fn=cmd_histogram)

    p = sub.add_parser("cycles", help="cycle decomposition of the stepping permutation")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("rectangle", help="rectangle arrangement report")
    p.add_argument("m", type=int)
    p.add_argument("k_prime", type=int)
    p.add_argument("r_prime", help="progression label, one of %s"
                                   % ", ".join(case_labels()))
    p.add_argument("--cells-csv", default=None,
                   help="also write the cell-to-partition table to this path")
    p.set_defaults(fn=cmd_rectangle)

    p = sub.add_parser("tile", help="SVG of P(n,3) colored by box remainder")
    p.add_argument("n", type=int)
    p.add_argument("path")
    p.set_defaults(fn=cmd_tile)

    parser.commands = sub.choices
    return parser


def _parse_args(argv):
    """build_parser().parse_args(argv) at about half the cost: the named
    subcommand's parser, unless "--=x" (ambiguous at the top level)."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:],
                                        argparse.Namespace(cmd=argv[0]))
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None):
    args = _parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # stdout failed (EPIPE: the reader is gone, ENOSPC: a full device;
        # file paths fail as ValueError): send the exit-time flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before all output was written"
              if isinstance(exc, BrokenPipeError) else
              "error: cannot write to stdout: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("error: internal check failed: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        # sizes beyond what this machine can allocate or index
        print("error: input too large: %s" % (str(exc) or "out of memory"),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
