"""Command line surface: one subcommand per computation, JSON to stdout.

Every record carries the command echo, the alphabet, the input parameters,
the results with an error bound (a number or "exact-to-rounding") and a
method tag, and the wall time.  `--format csv` switches to CSV rows: the
curve and xi commands emit their natural tables, everything else emits
key,value rows.  Exit codes: 0 success, 1 no convergence (invert reached
its step cap before the tolerance), 2 usage, 3 target out of range,
4 insufficient input, 141 output pipe closed early (as in `levy ... | head`;
nothing goes to stderr).  `curve` exits 2 after the rows it has written when
two neighbouring rows have the same f to the 15 digits it prints, as letters
a few ulps apart give; in JSON the row list and the record are then closed,
so stdout is still one JSON document, with fewer rows than its count.

Handlers return the library's floats as they are; main rounds each
top-level float of params and results to the 15 significant digits printed
and rejects one that is not finite there, in one pass.  An input check
that the library makes is not repeated here: its one-line message is the
one printed.  The CLI checks only what has no library twin: fraction and
digit parsing, flag combinations, an -n past float range and a --word file
that cannot be read; it calls the library's tail_depth check early, before
any file is read.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import operator
import os
import sys
import time
from fractions import Fraction

from .errors import (
    InsufficientDigitsError,
    InvalidWordError,
    NoConvergenceError,
    TargetOutOfRangeError,
    TraceRangeError,
    TruncatedStreamError,
)
from .levy import (
    METHOD_RATIONAL,
    QuadPeriod,
    _farey_chunks,
    _check_tail_depth,
    f_irrational,
    farey_count,
    invert_f,
    levy_empirical,
    levy_quadratic,
    slope_point,
    sturmian_birkhoff,
    sturmian_logq,
    tail_spread,
    xi_oscillation,
)
from .words import (
    Alphabet,
    SlopeCF,
    christoffel,
    format_word,
    load_letters,
    parse_word,
)

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_USAGE = 2
EXIT_RANGE = 3
EXIT_INPUT = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, the shell's code for a closed output pipe


def _f15(x):
    """Round a float to 15 significant digits for stable printing."""
    return float(f"{x:.15g}")


def _error_bound_field(bound):
    return "exact-to-rounding" if bound is None else bound


@functools.cache
def build_parser():
    # Built on the first call, not at import, and then reused: main() runs
    # many times in one process, and argparse trees are costly to build.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-a", type=int, required=True, metavar="A", help="smaller alphabet letter")
    common.add_argument("-b", type=int, required=True, metavar="B", help="larger alphabet letter")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    ap = argparse.ArgumentParser(
        prog="levy",
        description="Levy constants of periodic and Sturmian continued fractions over {a, b}.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    quad = sub.add_parser("quad", help="Levy constant of a periodic continued fraction", parents=[common])
    quad.add_argument("--period", required=True, help="period word, comma-separated letters")
    quad.add_argument("--preperiod", default="", help="optional preperiod word (ignored by the value)")

    slope = sub.add_parser("slope", help="evaluate f at a rational or digit-given slope", parents=[common])
    slope.add_argument("fraction", nargs="?", help="rational slope p/q in [0, 1]")
    slope.add_argument("--cf", help="slope digits d1,d2,... (theta = [0; 1+d1, d2, ...])")
    slope.add_argument("--repeat", help="periodic digit tail appended after --cf digits")
    slope.add_argument("--depth", type=int, help="convergent index k for --cf slopes (default 20)")

    curve = sub.add_parser("curve", help="sample f over all reduced fractions with q <= qmax", parents=[common])
    curve.add_argument("--qmax", type=int, required=True)

    invert = sub.add_parser("invert", help="find a slope realizing a target Levy value", parents=[common])
    invert.add_argument("target", type=float)
    invert.add_argument("--tol", type=float, default=1e-8, help="enclosure width to reach")

    xi = sub.add_parser("xi", help="oscillation of log Q_{2^m}/2^m for the doubling-block word", parents=[common])
    xi.add_argument("--mmax", type=int, required=True)

    est = sub.add_parser("estimate", help="empirical Levy estimate from a letter stream", parents=[common])
    src = est.add_mutually_exclusive_group(required=True)
    src.add_argument("--word", help="file with comma-separated letters, one word per line")
    src.add_argument("--slope", help="Sturmian source: slope digits d1,d2,...")
    src.add_argument("--periodic", help="periodic source: one period word")
    est.add_argument("--repeat", help="periodic digit tail for --slope")
    est.add_argument("-n", type=int, required=True, help="number of partial quotients to use")
    est.add_argument("--method", choices=("logq", "birkhoff"), default="logq")
    est.add_argument("--tail-depth", type=int, default=40)

    return ap


def _parse_digits(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse digits {text!r}: {exc}") from None


def _parse_slope(digits, repeat):
    return SlopeCF(_parse_digits(digits), repeat=_parse_digits(repeat) if repeat else ())


def cmd_quad(args, alphabet):
    period = parse_word(args.period)
    preperiod = parse_word(args.preperiod)
    qp = QuadPeriod(period=period, preperiod=preperiod)
    res = levy_quadratic(qp)
    return {"preperiod": format_word(preperiod), "period": format_word(period)}, {
        "trace": qp.t,
        "period_length": qp.s,
        "value": res.value,
        "mu": qp.mu,
        "error_bound": _error_bound_field(res.error_bound),
        "method": res.method,
    }


def cmd_slope(args, alphabet):
    if (args.fraction is None) == (args.cf is None):
        raise ValueError("give exactly one of a p/q fraction or --cf digits")
    if args.fraction is not None:
        if args.repeat is not None:
            raise ValueError("--repeat is a digit tail for --cf; a p/q fraction does not read it")
        if args.depth is not None:
            raise ValueError("--depth is a convergent index for --cf; a p/q fraction does not read it")
        try:
            p_str, q_str = args.fraction.split("/")
            p, q = int(p_str), int(q_str)
        except ValueError:
            raise ValueError(f"cannot parse fraction {args.fraction!r}, expected p/q") from None
        if q == 0:
            raise ValueError("denominator must be nonzero")
        frac = Fraction(p, q)
        if (frac.numerator, frac.denominator) != (p, q):
            print(f"warning: reduced {p}/{q} to {frac}", file=sys.stderr)
        sp = slope_point(frac, alphabet)
        return {"p": frac.numerator, "q": frac.denominator}, {
            "word": format_word(christoffel(frac, alphabet)),
            "trace": sp.trace,
            "f": sp.f_value,
            "x": sp.x_value,
            "error_bound": "exact-to-rounding",
            "method": METHOD_RATIONAL,
        }
    slope = _parse_slope(args.cf, args.repeat)
    depth = 20 if args.depth is None else args.depth
    try:
        res, p_k, q_k = f_irrational(slope, depth, alphabet)
    except TraceRangeError as exc:
        raise TraceRangeError(f"--depth {depth}: {exc}") from None
    return {"cf": list(slope.digits), "repeat": list(slope.repeat), "depth": depth}, {
        "p_k": p_k,
        "q_k": q_k,
        "f": res.value,
        "tail_spread": tail_spread(alphabet),
        "error_bound": _error_bound_field(res.error_bound),
        "method": res.method,
    }


def cmd_curve(args, alphabet):
    chunks = _farey_chunks(args.qmax, alphabet)  # qmax and both ends are checked here, before any row is written
    count = farey_count(args.qmax)
    return {"qmax": args.qmax}, {"count": count, "rows": _curve_rows(chunks, count)}


def _curve_rows(chunks, count):
    """Each chunk of (p, q, f, x) rows as (ps, qs, f_texts, x_texts), checked as it streams past the writer.

    Each value is formatted once with .15g.  Two rows with the same f text,
    which letters a few ulps apart give, raise InvalidWordError; an f not
    above the one before raises AssertionError.  Either is raised after the
    rows before it were yielded.  Comparing texts for ties and the floats
    themselves for order raises what comparing the floats of the texts
    would: .15g rounds monotonically, so f rising gives a text at least as
    large, and a text that differs is then larger.
    """
    prev_f, prev_text, last, n = -math.inf, None, None, 0
    for ps, qs, fs, xs in chunks:
        f_texts = list(map(format, fs, itertools.repeat(".15g")))
        x_texts = list(map(format, xs, itertools.repeat(".15g")))
        if not (all(map(operator.lt, [prev_f, *fs], fs)) and not any(map(operator.eq, [prev_text, *f_texts], f_texts))):
            for i, (p, q, f, f_text) in enumerate(zip(ps, qs, fs, f_texts)):
                if f_text == prev_text:
                    error = InvalidWordError(f"f at {p}/{q} equals f at {last} to the 15 digits that curve prints")
                    break
                if not prev_f < f:
                    error = AssertionError(f"f not strictly increasing at {p}/{q}")
                    break
                prev_f, prev_text, last = f, f_text, f"{p}/{q}"
            if i:
                yield ps[:i], qs[:i], f_texts[:i], x_texts[:i]
            raise error
        prev_f, prev_text, last, n = fs[-1], f_texts[-1], f"{ps[-1]}/{qs[-1]}", n + len(ps)
        yield ps, qs, f_texts, x_texts
    if n != count:
        raise AssertionError(f"{n} rows, expected the Farey count {count}")


def cmd_invert(args, alphabet):
    res = invert_f(args.target, alphabet, args.tol)
    return {"target": args.target, "tol": args.tol}, {
        "lower": str(res.lower),
        "upper": str(res.upper),
        "mediant": str(res.mediant),
        "f_lower": res.f_lower,
        "f_upper": res.f_upper,
        "width": res.width,
        "cf_digits": list(res.cf_digits),
        "exact": res.exact,
        "steps": res.steps,
    }


def cmd_xi(args, alphabet):
    osc = xi_oscillation(alphabet, args.mmax)
    verdict = "no Levy constant" if osc.gap > 3.0 * osc.noise_floor else "inconclusive"
    return {"mmax": args.mmax}, {
        "points": [[m, _f15(u)] for m, u in osc.points],
        "acc_even": osc.acc_even,
        "acc_odd": osc.acc_odd,
        "predicted_even": osc.predicted_even,
        "predicted_odd": osc.predicted_odd,
        "gap": osc.gap,
        "predicted_gap": osc.predicted_gap,
        "noise_floor": osc.noise_floor,
        "verdict": verdict,
    }


def cmd_estimate(args, alphabet):
    try:
        float(args.n)  # each estimate divides by n, so it is checked before any letter or digit is read
    except OverflowError:
        raise ValueError("-n is past float range, about 1.8e308") from None
    if args.repeat is not None and args.slope is None:
        raise ValueError("--repeat is a digit tail for --slope; no other source reads it")
    birkhoff = args.method == "birkhoff"
    if birkhoff:
        _check_tail_depth(args.tail_depth)  # before any letter or digit is read, as -n's float range is
    period = slope = None
    try:
        if args.word is not None:
            flag, source = "--word", {"word_file": args.word}
            try:
                letters = load_letters(args.word)
            except OSError as exc:
                raise ValueError(f"cannot read --word file: {exc.strerror}: {args.word}") from None
        elif args.slope is not None:
            slope = _parse_slope(args.slope, args.repeat)
            flag, source = "--slope", {"slope_cf": list(slope.digits), "repeat": list(slope.repeat)}
        else:
            word = parse_word(args.periodic)
            letters, period = word, len(word)
            flag, source = "--periodic", {"periodic": format_word(word)}
        if slope is None:
            res = levy_empirical(letters, args.n, method=args.method, tail_depth=args.tail_depth, period=period)
        elif birkhoff:
            res = sturmian_birkhoff(slope, args.n, alphabet, args.tail_depth)
        else:
            res = sturmian_logq(slope, args.n, alphabet)
    except OverflowError as exc:
        raise OverflowError(f"the {flag} letters are too large for the float estimators ({exc})") from None
    results = {
        "n": args.n,
        "value": res.value,
        "error_bound": _error_bound_field(res.error_bound),
        "method": res.method,
    }
    if birkhoff:
        results["tail_depth"] = args.tail_depth
    return {**source, "n": args.n, "method": args.method}, results


HANDLERS = {
    "quad": cmd_quad,
    "slope": cmd_slope,
    "curve": cmd_curve,
    "invert": cmd_invert,
    "xi": cmd_xi,
    "estimate": cmd_estimate,
}


def _emit_csv(record, out, start):
    """Write the record's CSV rows, with wall_time_s counted from start where a key,value table prints it."""
    command = record["command"]
    if command == "curve":
        out.write("p,q,slope,f,x\n")
        for ps, qs, fs, xs in record["results"]["rows"]:
            out.write("".join([f"{p},{q},{p}/{q},{f},{x}\n" for p, q, f, x in zip(ps, qs, fs, xs)]))
        return
    if command == "xi":
        out.write("m,u\n")
        for m, u in record["results"]["points"]:
            out.write(f"{m},{u:.15g}\n")
        for key in ("acc_even", "acc_odd", "predicted_even", "predicted_odd", "gap", "predicted_gap", "noise_floor", "verdict"):
            out.write(f"# {key}={record['results'][key]}\n")
        return
    out.write("key,value\n")
    for section in ("params", "results"):
        for key, value in record[section].items():
            out.write(f"{section}.{key},{value}\n")
    out.write(f"wall_time_s,{time.perf_counter() - start}\n")


def _json_floats(texts):
    """The .15g texts of a chunk as json.dumps writes their floats: repr(float(text)) each.

    A text with a '.' and no exponent is that repr already.  float(text) is
    the double nearest the decimal D of text, and repr gives the shortest
    decimal that rounds to it, the nearest if several do.  Distinct decimals
    of at most 15 significant digits round to distinct normal doubles (DBL_DIG
    is 15), so D is the only candidate of 15 digits or fewer: repr has D's
    digits.  Both .15g and repr write D positionally at its exponent, in
    -4..14 here, and repr adds '.0' only where D is integral.  Subnormals
    keep fewer than 15 digits, so the argument fails for them, but curve
    never meets one: its f is above 0.48 (f(0/1) = asinh(a/2) with a >= 1) and
    its x at least 1.  Integral texts, such as x = 1 at 0/1 when a = 1, and
    texts with an exponent go through float.
    """
    joined = "".join(texts)  # every text holds at most one '.'
    if "e" not in joined and joined.count(".") == len(texts):
        return texts
    return [text if "." in text and "e" not in text else repr(float(text)) for text in texts]


def _emit_json(record, out, start):
    """Write the record as print(json.dumps(record, indent=2)) does, with wall_time_s counted from start.

    curve's rows are lazy: json.dumps writes the envelope around an empty row
    list, and the rows stream into it a chunk at a time, so no row list is
    built.  Its wall_time_s is taken after the last row, so it covers the
    walk.  A row stream that raises still closes the row list and the record.
    """
    results = record["results"]
    if record["command"] != "curve":
        out.write(json.dumps({**record, "wall_time_s": time.perf_counter() - start}, indent=2) + "\n")
        return
    envelope = json.dumps({**record, "results": {**results, "rows": []}, "wall_time_s": None}, indent=2)
    head, tail = envelope.rsplit("[]", 1)  # tail closes results and holds "wall_time_s": null
    out.write(head + "[")
    sep = ""
    try:
        for ps, qs, fs, xs in results["rows"]:
            # each row as json.dumps(record, indent=2) writes it inside results.rows, rows joined by commas
            out.write(sep + ",".join([
                f'\n      {{\n        "p": {p},\n        "q": {q},\n        "f": {f},\n        "x": {x}\n      }}'
                for p, q, f, x in zip(ps, qs, _json_floats(fs), _json_floats(xs))
            ]))
            sep = ","
    finally:
        out.write("\n    ]" + tail.replace("null", json.dumps(time.perf_counter() - start)) + "\n")


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's int-to-str digit limit while a record is written.

    Exact traces pass the default 4300 digits from about q = 15,000 on.  The
    old limit is restored afterwards, because main() also runs in process.
    Interpreters without the limit (before 3.10.7) need nothing.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # a bad -a/-b pair (ValueError) or a letter past float range (OverflowError) exits 2
        alphabet = Alphabet(args.a, args.b)
        params, results = HANDLERS[args.command](args, alphabet)
        for fields in (params, results):  # each float is printed to 15 digits; JSON has no inf or NaN
            for key, value in fields.items():
                if isinstance(value, float):
                    fields[key] = value = _f15(value)  # .15g can round up past float max
                    if not math.isfinite(value):
                        raise OverflowError(f"{key} is past float range at the 15 digits printed")
    except TargetOutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"valid interval: [{exc.low:.15g}, {exc.high:.15g}]", file=sys.stderr)
        return EXIT_RANGE
    except (TruncatedStreamError, InsufficientDigitsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NoConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    record = {
        "command": args.command,
        "alphabet": {"a": alphabet.a, "b": alphabet.b},
        "params": params,
        "results": results,
    }
    try:
        with _int_digits_unlimited():
            (_emit_json if args.format == "json" else _emit_csv)(record, sys.stdout, start)
        sys.stdout.flush()
    except InvalidWordError as exc:  # a curve row that the table cannot print (_curve_rows)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed the pipe early (`levy ... | head`).  Point stdout
        # at devnull so that the interpreter's final flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
