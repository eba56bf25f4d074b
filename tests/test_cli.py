import argparse
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources

import jsonschema
import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levycf
import levycf.cli
from levycf import (
    Alphabet,
    Mat2,
    QuadPeriod,
    ScaledMat2,
    SlopeCF,
    christoffel,
    f_irrational,
    invert_f,
    levy_empirical,
    parse_word,
    slope_point,
    trace,
    xi_oscillation,
)
from levycf.cli import main
from levycf.levy import _farey_chunks
from levycf.errors import NoConvergenceError
from levycf.words import standard_sequence

CLI = [sys.executable, "-m", "levycf.cli"]
HUGE = str(10**400)  # a letter past float range, written out
# the child imports the same levycf as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(levycf.__file__))
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=CLI_ENV, timeout=timeout)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout, parse_constant=_not_json)  # rejects Infinity, -Infinity and NaN


@pytest.fixture(scope="module")
def schema():
    with resources.files("levycf").joinpath("schema/output.schema.json").open() as fh:
        return json.load(fh)


class TestQuad:
    def test_golden_value(self, schema):
        record = run_json("quad", "--period", "1", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        assert record["results"]["value"] == 0.481211825059603
        assert record["results"]["trace"] == 1
        assert record["results"]["error_bound"] == "exact-to-rounding"

    def test_mu_field(self, schema):
        record = run_json("quad", "--period", "1,2", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        assert abs(record["results"]["mu"] - math.sqrt(2)) < 1e-12

    def test_preperiod_invariance(self):
        bare = run_json("quad", "--period", "1,2", "-a", "1", "-b", "2")
        with_pre = run_json("quad", "--period", "1,2", "--preperiod", "3", "-a", "1", "-b", "2")
        assert bare["results"]["value"] == with_pre["results"]["value"]

    @pytest.mark.parametrize("letters", [40, 3])
    def test_period_folds_once(self, letters, monkeypatch, capsys):
        # QuadPeriod.t folds the period once; the value, the trace field and mu all read it
        import levycf.levy

        folds = []
        fold = levycf.levy.trace
        monkeypatch.setattr(levycf.levy, "trace", lambda w: folds.append(len(w)) or fold(w))
        period = ",".join("2" if i % 3 == 0 else "1" for i in range(letters))
        assert main(["quad", "--period", period, "-a", "1", "-b", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["trace"] == trace(parse_word(period))
        assert folds == [letters]

    def test_parse_failure_exits_2(self):
        proc = run_cli("quad", "--period", "1,x", "-a", "1", "-b", "2")
        assert proc.returncode == 2

    def test_missing_alphabet_exits_2(self):
        proc = run_cli("quad", "--period", "1")
        assert proc.returncode == 2

    def test_letter_past_float_range_names_mu(self, capsys):
        # mu = r - 1/r with r = exp(L) reads the trace only through L, so a trace past float range still
        # gives mu: checked against r = lam^(1/s), lam = (t + sqrt(t^2 - (-1)^s 4))/2, at 60 digits, to
        # mu's bound 4 (L + 1) 2^-53 (test_levy.py, TestMuMean) plus the rounding to 15 printed digits
        alternating = ",".join(str(10**11 if i % 2 == 0 else 10**12) for i in range(30))
        for period in (f"1,{HUGE}", alternating):
            assert main(["quad", "--period", period, "-a", "1", "-b", "2"]) == 0
            mu = json.loads(capsys.readouterr().out)["results"]["mu"]
            w = parse_word(period)
            t, s = trace(w), len(w)
            with mpmath.workdps(60):
                r = ((t + mpmath.sqrt(mpmath.mpf(t) ** 2 - (-1) ** s * 4)) / 2) ** (mpmath.mpf(1) / s)
                ref, big_l = r - 1 / r, float(mpmath.log(r))
                assert abs(mu - ref) <= (4 * (big_l + 1) * 2**-53 + 5e-15) * ref
        # one letter of 10^400: r = 10^400 itself is past float range
        assert main(["quad", "--period", HUGE, "-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: mu is past float range"]


class TestSlope:
    def test_rational(self, schema):
        record = run_json("slope", "2/5", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        assert record["results"]["trace"] == 23
        assert record["results"]["word"] == "1,1,2,1,2"

    def test_x_at_zero_slope(self):
        record = run_json("slope", "0/1", "-a", "1", "-b", "2")
        assert record["results"]["x"] == 1.0

    def test_unreduced_warns_and_reduces(self):
        proc = run_cli("slope", "2/4", "-a", "1", "-b", "2")
        assert proc.returncode == 0
        assert "reduced" in proc.stderr
        record = json.loads(proc.stdout)
        assert record["params"] == {"p": 1, "q": 2}

    def test_zero_denominator_exits_2(self):
        proc = run_cli("slope", "1/0", "-a", "1", "-b", "2")
        assert proc.returncode == 2

    def test_cf_slope_error_bound(self, schema):
        record = run_json("slope", "--cf", "1", "--repeat", "1", "--depth", "15", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        g = record["results"]["tail_spread"]
        q_k = record["results"]["q_k"]
        assert q_k == 1597
        assert abs(record["results"]["error_bound"] - 5 * g / q_k) < 1e-12

    def test_cf_depth_past_float_range_exits_2(self, capsys):
        # q_k, or the trace's bit count, past float range: f = log T / q is no float, and the exact trace never ended
        bit_count = "the trace's bit count at convergent 1470"
        for argv, what in ((["--depth", "1500", "-a", "1", "-b", "2"], "the denominator q_1500"),
                           (["--depth", "1470", "-a", "1000", "-b", "1001"], bit_count)):
            assert main(["slope", "--cf", "1", "--repeat", "1", *argv]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            [line] = out.err.splitlines()
            assert line.startswith(f"error: --depth {argv[1]}: {what} is past float range")

    def test_cf_deep_depth_exits_before_its_convergent(self, capsys):
        # q_1475 is past float range whatever the digits, so no depth walks further
        assert main(["slope", "--cf", "1", "--repeat", "1", "--depth", "10000000", "-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: --depth 10000000: the denominator q_10000000 is past float range, "
                                        "as q_1475 already is (about 2^1024), so f = log T / q is no float"]
        # digits that stop short still exit 4 with the first missing digit, before any step
        assert main(["slope", "--cf", "1,2", "--depth", "100000", "-a", "1", "-b", "2"]) == 4
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: slope digit d_3 unknown (only 2 given)"]

    def test_cf_depth_1000(self, capsys):
        # a trace of about 10^209 letters, read from BoundedInts of 128 + 695 bits
        assert main(["slope", "--cf", "1", "--repeat", "1", "--depth", "1000", "-a", "1", "-b", "2"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["f"] == 0.621702332555042 and results["q_k"].bit_length() == 695

    def test_cf_record_reads_one_convergent(self, monkeypatch, capsys):
        # p_k, q_k and f come from one computation of the k-th convergent
        calls, convergent = [], SlopeCF.convergent
        monkeypatch.setattr(SlopeCF, "convergent", lambda slope, k: calls.append(k) or convergent(slope, k))
        assert main(["slope", "--cf", "2", "--repeat", "1,3", "--depth", "9", "-a", "1", "-b", "2"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert calls == [9]
        assert (results["p_k"], results["q_k"]) == convergent(SlopeCF((2,), repeat=(1, 3)), 9)
        f = slope_point(Fraction(results["p_k"], results["q_k"]), Alphabet(1, 2)).f_value
        assert results["f"] == levycf.cli._f15(f)

    def test_cf_slope_with_huge_letter(self):
        # a*b*(a*b + 4) is past float range, though each letter is not
        record = run_json("slope", "--cf", "1", "--repeat", "1", "--depth", "5", "-a", "1", "-b", str(10**200))
        assert record["results"]["tail_spread"] == 1e200
        assert abs(record["results"]["error_bound"] - 5e200 / 13) <= 1e-14 * 5e200 / 13
        # 5 G alone passes float range from G = max / 5 on, where 5 G / q_5 is still a float
        record = run_json("slope", "--cf", "1", "--repeat", "1", "--depth", "5", "-a", "1", "-b", str(10**308))
        assert record["results"]["error_bound"] == 3.84615384615385e307

    @pytest.mark.parametrize("b, depth, err", [
        (10**308, "1", "error_bound is past float range at the 15 digits printed"),
        (int(sys.float_info.max), "1", "tail_spread is past float range at the 15 digits printed"),
        (int(sys.float_info.max), "5", "tail_spread is past float range at the 15 digits printed"),
        (int(sys.float_info.max) + 2**970 - 1, "1", "tail_spread is past float range at the 15 digits printed"),
    ], ids=["bound", "spread-printed-at-q1", "spread-printed", "spread"])
    def test_cf_value_past_float_range_exits_2(self, b, depth, err, capsys):
        # JSON has no Infinity: a quantity past float range, or whose 15 digits round past it, exits 2
        assert main(["slope", "--cf", "1", "--repeat", "1", "--depth", depth, "-a", "1", "-b", str(b)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {err}"]

    def test_cf_digits_exhausted_exits_4(self):
        proc = run_cli("slope", "--cf", "1,1", "--depth", "15", "-a", "1", "-b", "2")
        assert proc.returncode == 4

    def test_depth_on_a_fraction_exits_2(self, capsys):
        assert main(["slope", "1/3", "--depth", "5", "-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: --depth is a convergent index for --cf; a p/q fraction does not read it"]
        # without --depth, --cf still reads the 20th convergent and echoes it
        assert main(["slope", "--cf", "1", "--repeat", "1", "-a", "1", "-b", "2"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["params"]["depth"] == 20
        assert record["results"]["q_k"] == 17711

    def test_x_past_float_range_names_the_slope(self, capsys):
        # f(1) = L(b) is about 921, so x = exp(f) - exp(-f) is past float range; at 1/2 it is not
        assert main(["slope", "1/1", "-a", "1", "-b", HUGE]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: x at slope 1/1 is past float range (f = 921.0340371976182)"]
        assert main(["slope", "1/2", "-a", "1", "-b", HUGE]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert (results["f"], results["x"]) == (460.517018598809, 9.99999999999965e199)


def _listed_curve(points, qmax, alphabet, fmt, wall_time_s):
    """curve's stdout as it was written from a list of rows: dicts through json.dumps(indent=2), or CSV f-strings.

    points maps each fraction to its slope_point; those with q <= qmax are the rows.
    """
    f15 = lambda v: float(f"{v:.15g}")
    rows = [{"p": fr.numerator, "q": fr.denominator, "f": f15(sp.f_value), "x": f15(sp.x_value)}
            for fr, sp in sorted(points.items()) if fr.denominator <= qmax]
    if fmt == "csv":
        return "p,q,slope,f,x\n" + "".join(
            f"{row['p']},{row['q']},{row['p']}/{row['q']},{row['f']:.15g},{row['x']:.15g}\n" for row in rows
        )
    record = {
        "command": "curve",
        "alphabet": {"a": alphabet.a, "b": alphabet.b},
        "params": {"qmax": qmax},
        "results": {"count": len(rows), "rows": rows},
        "wall_time_s": wall_time_s,
    }
    return json.dumps(record, indent=2) + "\n"


class TestCurve:
    def test_bytes_match_the_listed_rows(self, capsys):
        for ab in (Alphabet(1, 2), Alphabet(2, 5), Alphabet(3, 4)):
            fracs = {Fraction(p, q) for q in range(1, 61) for p in range(q + 1)}
            points = {fr: slope_point(fr, ab) for fr in fracs}
            for qmax in range(1, 61):
                for fmt in ("json", "csv"):
                    assert main(["curve", "--qmax", str(qmax), "-a", str(ab.a), "-b", str(ab.b), "--format", fmt]) == 0
                    out = capsys.readouterr().out
                    wall = json.loads(out)["wall_time_s"] if fmt == "json" else None
                    assert out == _listed_curve(points, qmax, ab, fmt, wall), (ab, qmax, fmt)

    def test_qmax_1000_streams_in_little_memory(self):
        # peak RSS of the child, which held every row (253 MB as CSV, 437 MB as JSON) before rows streamed
        probe = (
            "import resource, subprocess, sys; subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True);"
            " print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        argv = CLI + ["curve", "--qmax", "1000", "-a", "1", "-b", "2", "--format", "csv"]
        proc = subprocess.run([sys.executable, "-c", probe] + argv, capture_output=True, text=True, env=CLI_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 60 * 1024  # kB

    def test_qmax_above_bound_exits_2(self, capsys):
        for qmax in ("10001", str(10**12)):
            assert main(["curve", "--qmax", qmax, "-a", "1", "-b", "2"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.splitlines() == [f"error: qmax must be in 1..10000, got {qmax}"]
        # letters this large hold the walk's stack of traces to 733
        assert main(["curve", "--qmax", "734", "-a", "1", "-b", str(10**300)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: qmax must be in 1..733, got 734"]

    @staticmethod
    def _inject_chunks(monkeypatch, rows, size):
        # the rows, in chunks of `size`, as the walk hands them to the writer
        chunks = [[list(column) for column in zip(*rows[i:i + size])] for i in range(0, len(rows), size)]
        monkeypatch.setattr(levycf.cli, "_farey_chunks", lambda qmax, alphabet: iter(chunks))

    def test_broken_invariant_raises_after_partial_output(self, monkeypatch, capsys):
        # 1/1 breaks the order in mid-chunk (one chunk of 3) and as the first row of a chunk (chunks of 2);
        # two of the three rows that the count promises break the count
        rows = [(0, 1, 0.5, 1.0), (1, 2, 0.7, 2.0), (1, 1, 0.6, 3.0)]
        order = "f not strictly increasing at 1/1"
        for walk, size, message in ((rows, 3, order), (rows, 2, order), (rows[:2], 2, "2 rows, expected the Farey count 3")):
            self._inject_chunks(monkeypatch, walk, size)
            for fmt, written, unwritten in (("json", '"q": 2', '"q": 1,\n        "f": 0.6'), ("csv", "\n1,2,1/2,0.7,2\n", "1/1")):
                with pytest.raises(AssertionError, match=message):
                    main(["curve", "--qmax", "2", "-a", "1", "-b", "2", "--format", fmt])
                out = capsys.readouterr().out
                assert written in out and unwritten not in out, (size, fmt)

    def test_tie_raises_after_partial_output_in_any_chunk(self, monkeypatch, capsys):
        # 1/2 ties 0/1 at 15 digits in mid-chunk (one chunk of 3) and as the first row of a chunk (chunks of 1)
        rows = [(0, 1, 0.5, 1.0), (1, 2, 0.5000000000000001, 2.0), (1, 1, 0.6, 3.0)]
        for size in (3, 1):
            self._inject_chunks(monkeypatch, rows, size)
            assert main(["curve", "--qmax", "2", "-a", "1", "-b", "2", "--format", "csv"]) == 2
            out = capsys.readouterr()
            assert out.out == "p,q,slope,f,x\n0,1,0/1,0.5,1\n"
            assert out.err.splitlines() == ["error: f at 1/2 equals f at 0/1 to the 15 digits that curve prints"]

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (1, 10**200), (1, 3)], ids=["1,2", "2,3", "1,10^200", "1,3"])
    def test_bytes_at_chunk_boundaries(self, monkeypatch, capsys, a, b):
        # qmax 10 has 33 rows: one chunk of 33, chunks of 11 (33 on a boundary), 16 (one row after it) and 17
        # (one row before it).  {1, 10^200} prints x in e+ form, and a = 1 prints x = 1 at 0/1
        ab = Alphabet(a, b)
        points = {fr: slope_point(fr, ab) for fr in {Fraction(p, q) for q in range(1, 11) for p in range(q + 1)}}
        for size in (33, 11, 16, 17):
            monkeypatch.setattr(levycf.levy, "CURVE_CHUNK", size)
            for fmt in ("json", "csv"):
                assert main(["curve", "--qmax", "10", "-a", str(a), "-b", str(b), "--format", fmt]) == 0
                out = capsys.readouterr().out
                wall = json.loads(out)["wall_time_s"] if fmt == "json" else None
                assert out == _listed_curve(points, 10, ab, fmt, wall), (size, fmt)
        assert ("e+" in out) == (b == 10**200)
        assert ("\n0,1,0/1,0.481211825059603,1\n" in out) == (a == 1)

    def test_bytes_around_the_real_chunk_size(self, capsys):
        # 3,327 rows at qmax 104 end one row before a boundary of 256-row chunks, 18,177 at qmax 244 one row after
        assert levycf.levy.CURVE_CHUNK == 256
        ab = Alphabet(1, 2)
        fracs = {Fraction(p, q) for q in range(1, 245) for p in range(q + 1)}
        points = {fr: slope_point(fr, ab) for fr in fracs}
        for qmax, count in ((104, 3327), (244, 18177)):
            assert count % 256 in (255, 1)
            for fmt in ("json", "csv"):
                assert main(["curve", "--qmax", str(qmax), "-a", "1", "-b", "2", "--format", fmt]) == 0
                out = capsys.readouterr().out
                wall = json.loads(out)["wall_time_s"] if fmt == "json" else None
                assert out == _listed_curve(points, qmax, ab, fmt, wall), (qmax, fmt)

    @pytest.mark.parametrize("fmt, written", [("json", '"q": 1,'), ("csv", "p,q,slope,f,x\n0,1,0/1,34.5387763949107,999999999999999\n")])
    def test_letters_too_close_for_15_digits_exit_2(self, capsys, fmt, written):
        # f at 1/3 and at 0/1 agree to the 15 digits the table prints; rows before it stay written
        argv = ["curve", "--qmax", "3", "-a", str(10**15), "-b", str(10**15 + 1), "--format", fmt]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert written in out.out
        assert out.err.splitlines() == ["error: f at 1/3 equals f at 0/1 to the 15 digits that curve prints"]

    def test_letters_too_close_still_close_the_json(self, capsys):
        # the rows before the tie are written, then the row list and the record are closed
        assert main(["curve", "--qmax", "3", "-a", str(10**15), "-b", str(10**15 + 1)]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert [(row["p"], row["q"]) for row in results["rows"]] == [(0, 1)]
        assert len(results["rows"]) < results["count"] == 5

    def test_x_past_float_range_names_the_slope(self, capsys):
        assert main(["curve", "--qmax", "2", "-a", "1", "-b", HUGE]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: x at slope 1/1 is past float range (f = 921.0340371976182)"]

    def test_farey_5_row_count(self, schema):
        record = run_json("curve", "--qmax", "5", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        rows = record["results"]["rows"]
        assert record["results"]["count"] == 11
        assert rows[0] == {"p": 0, "q": 1, "f": 0.481211825059603, "x": 1.0}
        assert rows[-1]["p"] == 1 and rows[-1]["q"] == 1
        assert abs(rows[-1]["f"] - math.log((2 + math.sqrt(8)) / 2)) < 1e-12

    def test_monotone_f_column_q40(self):
        record = run_json("curve", "--qmax", "40", "-a", "1", "-b", "2")
        fs = [row["f"] for row in record["results"]["rows"]]
        assert all(a < b for a, b in zip(fs, fs[1:]))

    def test_csv_format(self):
        proc = run_cli("curve", "--qmax", "5", "-a", "1", "-b", "2", "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "p,q,slope,f,x"
        assert len(lines) == 12
        assert lines[1].startswith("0,1,0/1,")

    def test_bad_qmax_exits_2(self):
        proc = run_cli("curve", "--qmax", "0", "-a", "1", "-b", "2")
        assert proc.returncode == 2

    def test_qmax_1_rows_are_the_endpoints(self):
        record = run_json("curve", "--qmax", "1", "-a", "2", "-b", "5")
        assert [(row["p"], row["q"]) for row in record["results"]["rows"]] == [(0, 1), (1, 1)]
        assert record["results"]["rows"][1]["x"] == 5.0


# Normal floats only: the shortcut rests on distinct decimals of at most 15 significant digits rounding to
# distinct doubles (DBL_DIG), which fails for subnormals, whose precision is below 15 digits.  Their .15g
# texts hold an exponent, so they go through float anyway, and curve's f and x are never that small.
NORMAL_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


class TestJsonFloats:
    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(v=NORMAL_FLOATS)
    def test_a_positional_text_is_its_float_repr(self, v):
        text = f"{v:.15g}"
        assert levycf.cli._json_floats([text]) == [repr(float(text))]
        if "." in text and "e" not in text:
            assert text == repr(float(text))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.one_of(NORMAL_FLOATS, st.integers(-10**16, 10**16).map(float)), max_size=40))
    def test_a_chunk_matches_float_repr_per_text(self, values):
        # integral values print without a '.' under .15g, and mix into a chunk with positional ones
        texts = [f"{v:.15g}" for v in values]
        assert levycf.cli._json_floats(texts) == [repr(float(text)) for text in texts]


class TestInvert:
    def test_khinchin_levy_target(self, schema):
        target = repr(math.pi**2 / (12 * math.log(2)))
        record = run_json("invert", target, "-a", "1", "-b", "3", "--tol", "1e-8")
        jsonschema.validate(record, schema)
        res = record["results"]
        assert res["width"] < 1e-8
        assert res["f_lower"] <= float(target) <= res["f_upper"]

    def test_endpoint_target(self):
        # exact float repr of the lower endpoint value
        target = repr(math.log((1 + math.sqrt(5)) / 2))
        record = run_json("invert", target, "-a", "1", "-b", "2")
        assert record["results"]["mediant"] == "0"
        assert record["results"]["exact"] is True

    def test_out_of_range_exits_3_with_interval(self):
        proc = run_cli("invert", "99.0", "-a", "1", "-b", "2")
        assert proc.returncode == 3
        assert "valid interval" in proc.stderr
        assert "0.481211825059603" in proc.stderr
        assert "0.881373587019543" in proc.stderr


    def test_non_finite_tol_exits_2(self):
        for tol in ("nan", "inf"):
            proc = run_cli("invert", "0.6", "-a", "1", "-b", "2", "--tol", tol)
            assert proc.returncode == 2
            assert proc.stderr.splitlines() == [f"error: tol must be positive and finite, got {tol}"]
            assert len(proc.stderr.splitlines()) == 1

    def test_nan_target_exits_2(self, capsys):
        assert main(["invert", "nan", "-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: target must be a number, got nan"]

    def test_tol_at_float_spacing_exits_2(self, capsys):
        # only f_lower == f_upper could meet such a tol
        for tol in ("1e-17", repr(math.ulp(0.7))):
            assert main(["invert", "0.7", "-a", "1", "-b", "2", "--tol", tol]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.splitlines() == [f"error: tol must exceed the float spacing at the target, {math.ulp(0.7)!r}, got {float(tol)}"]

    def test_long_endpoint_runs_in_a_child(self):
        # a same-side run of about 370,000 nodes toward 0/1, and one that reaches the step cap
        proc = run_cli("invert", "0.481212825059603", "-a", "1", "-b", "2", "--tol", "1e-9", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["steps"] == 369640
        proc = run_cli("invert", "0.481211825069603", "-a", "1", "-b", "2", timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: no enclosure of width 1e-08 within 1000000 steps"]

    def test_trace_budget_exits_1(self):
        # a --tol a few ulps wide, which ran for minutes: the descent stops before its traces pass the budget
        proc = run_cli("invert", "0.7", "-a", "1", "-b", "2", "--tol", "3e-16", timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: no enclosure of width 3e-16 within the trace budget of 16777216 bits (73 steps)"
        ]

    def test_no_convergence_exits_1(self, monkeypatch, capsys):
        def capped(*args):
            raise NoConvergenceError("max_steps reached")

        monkeypatch.setattr(levycf.cli, "invert_f", capped)
        assert main(["invert", "0.6", "-a", "1", "-b", "2"]) == levycf.cli.EXIT_NO_CONVERGENCE == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: max_steps reached"]


class TestXi:
    def test_verdict_and_schema(self, schema):
        record = run_json("xi", "--mmax", "12", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        assert record["results"]["verdict"] == "no Levy constant"
        assert len(record["results"]["points"]) == 12

    def test_mmax_too_small_exits_2(self):
        proc = run_cli("xi", "--mmax", "3", "-a", "1", "-b", "2")
        assert proc.returncode == 2

    def test_mmax_40_runs(self):
        # 2^40 letters: the block product never builds them
        record = run_json("xi", "--mmax", "40", "-a", "1", "-b", "2")
        assert len(record["results"]["points"]) == 40

    def test_mmax_1000_reaches_predicted_points(self):
        record = run_json("xi", "--mmax", "1000", "-a", "1", "-b", "2")
        la, lb = math.asinh(0.5), math.asinh(1.0)  # L(c) = log((c + sqrt(c^2 + 4))/2)
        assert abs(record["results"]["acc_even"] - (2 * la + lb) / 3) < 1e-15
        assert abs(record["results"]["acc_odd"] - (la + 2 * lb) / 3) < 1e-15

    def test_mmax_above_bound_exits_2(self):
        proc = run_cli("xi", "--mmax", "1001", "-a", "1", "-b", "2")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: m_max must be in 4..1000, got 1001"]

    def test_letter_past_float_range_exits_2(self, capsys):
        assert main(["xi", "--mmax", "5", "-a", "1", "-b", HUGE]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: letter b is past float range for xi's block products"]

    def test_csv_table(self):
        proc = run_cli("xi", "--mmax", "6", "-a", "1", "-b", "2", "--format", "csv")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "m,u"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 7


class TestEstimate:
    def test_periodic_matches_quad(self, schema):
        est = run_json("estimate", "--periodic", "1,2", "-n", "1000", "-a", "1", "-b", "2")
        jsonschema.validate(est, schema)
        quad = run_json("quad", "--period", "1,2", "-a", "1", "-b", "2")
        assert abs(est["results"]["value"] - quad["results"]["value"]) < 1e-10

    def test_word_file_source(self, tmp_path, schema):
        path = tmp_path / "letters.txt"
        path.write_text("1,2,1,1,2\n2,1,2\n" * 40)
        record = run_json("estimate", "--word", str(path), "-n", "300", "-a", "1", "-b", "2")
        jsonschema.validate(record, schema)
        assert record["results"]["method"] == "empirical-logq"

    def test_short_word_file_exits_4(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1,2,1\n")
        proc = run_cli("estimate", "--word", str(path), "-n", "100", "-a", "1", "-b", "2")
        assert proc.returncode == 4

    def test_short_word_file_with_huge_n_exits_4(self, tmp_path):
        # a sized source allocates no more than its own letters
        path = tmp_path / "short.txt"
        path.write_text("1,2,1\n")
        proc = run_cli("estimate", "--word", str(path), "-n", "1000000000000", "-a", "1", "-b", "2")
        assert proc.returncode == 4
        assert len(proc.stderr.splitlines()) == 1

    def test_short_digit_list_with_huge_n_exits_4(self):
        # an endless-looking stream is read in pieces, so digits that fix only
        # 4 letters fail on the missing digit, not on an 8 TB allocation
        proc = run_cli("estimate", "--slope", "1,1", "-n", "1000000000000", "-a", "1", "-b", "2")
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == ["error: slope digit d_3 unknown (only 2 given)"]

    @pytest.mark.parametrize("method", ["logq", "birkhoff"])
    def test_letter_past_float_range_exits_2(self, method, capsys):
        # the exact routes take such a letter; the float kernel cannot
        argv = ["estimate", "--periodic", f"1,{HUGE}", "-n", "10", "--method", method, "-a", "1", "-b", "2"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: the --periodic letters are too large for the float estimators (int too large to convert to float)"
        ]

    def test_birkhoff_bound_past_float_range_exits_2(self, capsys):
        # the truncation bound is float max, whose 15 digits round past it: no Infinity reaches the JSON
        b = str(int(sys.float_info.max))
        argv = ["estimate", "--periodic", f"1,{b}", "-n", "10", "--method", "birkhoff", "--tail-depth", "2"]
        assert main([*argv, "-a", "1", "-b", b]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: error_bound is past float range at the 15 digits printed"]

    def test_birkhoff_with_huge_letter_in_float_range(self):
        # the truncation's tail spread over {1, 10^200} takes the float fallback
        record = run_json("estimate", "--periodic", f"1,{10**200}", "-n", "100", "--method", "birkhoff", "-a", "1", "-b", "2")
        assert abs(record["results"]["value"] - 100 * math.log(10)) < 1e-9

    @pytest.mark.parametrize("text, n, code, err", [
        ("1,2,1\n\n2,1,2\n\n", "4", 0, []),
        ("1,2,1\r\n2,1,2\r\n", "4", 0, []),
        ("1,2,1,\n2\n", "4", 2, ["error: cannot parse word '1,2,1,': invalid literal for int() with base 10: ''"]),
        ("1,x,3\n", "1", 2, ["error: cannot parse word '1,x,3': invalid literal for int() with base 10: 'x'"]),
        ("1,2\n1,0,3\n", "1", 2, ["error: letters must be positive integers, got 0"]),
        (f"1,2,{HUGE},1\n", "4", 2,
         ["error: the --word letters are too large for the float estimators (int too large to convert to float)"]),
        (f"1,2,1,2\n{HUGE}\n", "2", 2,  # the whole file is converted, also past the letters that -n reads
         ["error: the --word letters are too large for the float estimators (int too large to convert to float)"]),
        ("", "4", 4, ["error: need 4 letters, got 0"]),
        ("1,2,1\n", "4", 4, ["error: need 4 letters, got 3"]),
        ("1,2,1\n", "1000000000000", 4, ["error: need 1000000000000 letters, got 3"]),
    ], ids=["blank-lines", "crlf", "trailing-comma", "not-a-number", "letter-0", "past-float-range",
            "past-float-range-unread", "empty", "short", "short-huge-n"])
    def test_word_file_lines(self, tmp_path, capsys, text, n, code, err):
        # blank lines are skipped and line ends stripped; anything else that is not a positive integer exits 2
        path = tmp_path / "letters.txt"
        path.write_bytes(text.encode())
        assert main(["estimate", "--word", str(path), "-n", n, "-a", "1", "-b", "2"]) == code
        out = capsys.readouterr()
        assert out.err.splitlines() == err
        if code == 0:
            plain = tmp_path / "plain.txt"
            plain.write_text("1,2,1\n2,1,2\n")
            assert main(["estimate", "--word", str(plain), "-n", n, "-a", "1", "-b", "2"]) == 0
            assert json.loads(out.out)["results"] == json.loads(capsys.readouterr().out)["results"]

    @pytest.mark.parametrize("method", ["logq", "birkhoff"])
    def test_word_file_of_many_digit_letters(self, tmp_path, capsys, method):
        # letters of several digits go through the line parser, with LF and CRLF line ends alike
        rng = random.Random(4)
        letters = [rng.choice((10, 123, 7, 10**14 + 1)) for _ in range(3000)]
        argv = ["estimate", "-n", "2900", "--method", method, "-a", "10", "-b", "123"]
        path = tmp_path / "letters.txt"
        path.write_text("\n".join(",".join(map(str, letters[i : i + 70])) for i in range(0, 3000, 70)))
        assert main(argv + ["--word", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)["results"]
        expect = levy_empirical(letters, 2900, method)
        assert record["value"] == float(f"{expect.value:.15g}")
        path.write_text(path.read_text().replace("\n", "\r\n"))
        assert main(argv + ["--word", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == record

    @pytest.mark.parametrize("n", [2, 500])
    def test_birkhoff_word_file_of_the_letters_its_windows_cover(self, tmp_path, capsys, n):
        # n depth-40 windows cover letters 1..n + 39: a file of exactly those is read whole, one letter fewer exits 4
        rng = random.Random(n)
        letters = [rng.choice((1, 2, 5)) for _ in range(n + 39)]
        logs = []
        for i in range(n):
            t = float(letters[i + 39])
            for j in range(i + 38, i - 1, -1):
                t = letters[j] + 1.0 / t
            logs.append(math.log(t))
        path = tmp_path / "letters.txt"
        argv = ["estimate", "--word", str(path), "-n", str(n), "--method", "birkhoff", "-a", "1", "-b", "5"]
        path.write_text(",".join(map(str, letters)) + "\n")
        assert main(argv) == 0
        assert abs(json.loads(capsys.readouterr().out)["results"]["value"] - math.fsum(logs) / n) < 1e-12
        path.write_text(",".join(map(str, letters[:-1])) + "\n")
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == [f"error: need {n + 39} letters, got {n + 38}"]

    def test_tail_depth_checked_before_the_word_file(self, tmp_path, capsys):
        argv = ["estimate", "--word", str(tmp_path / "absent.txt"), "-n", "10", "-a", "1", "-b", "2"]
        assert main(argv + ["--method", "birkhoff", "--tail-depth", "2049"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: tail_depth must be in 2..2048, got 2049"]
        assert main(argv + ["--tail-depth", "2049"]) == 2  # logq ignores the flag
        assert capsys.readouterr().err.startswith("error: cannot read --word file: No such file or directory")

    def test_sturmian_birkhoff_at_huge_n(self, capsys):
        # the windows are summed over the Ostrowski digits of the prefix, so n = 10^18 reads no letter
        argv = ["estimate", "--slope", "1", "--repeat", "1", "-n", str(10**18), "-a", "1", "-b", "2"]
        assert main(argv + ["--method", "birkhoff"]) == 0
        birkhoff = json.loads(capsys.readouterr().out)["results"]
        assert main(argv) == 0
        logq = json.loads(capsys.readouterr().out)["results"]
        assert birkhoff["tail_depth"] == 40
        assert abs(birkhoff["value"] - logq["value"]) <= birkhoff["error_bound"]

    def test_missing_word_file_exits_2(self, tmp_path):
        path = tmp_path / "absent.txt"
        proc = run_cli("estimate", "--word", str(path), "-n", "100", "-a", "1", "-b", "2")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: cannot read --word file: No such file or directory: {path}"]

    def test_sturmian_source_birkhoff(self, schema):
        record = run_json(
            "estimate", "--slope", "1", "--repeat", "1", "-n", "2000",
            "--method", "birkhoff", "-a", "1", "-b", "2",
        )
        jsonschema.validate(record, schema)
        assert record["results"]["tail_depth"] == 40
        assert abs(record["results"]["value"] - 0.6180) < 0.05

    def test_periodic_logq_ignores_tail_depth(self, capsys):
        # the logq difference form reads one period; --tail-depth is birkhoff's alone
        argv = ["estimate", "--periodic", "1,2", "-n", "10", "-a", "1", "-b", "2"]
        assert main(argv) == 0
        want = json.loads(capsys.readouterr().out)["results"]
        tracemalloc.start()
        try:
            assert main(argv + ["--tail-depth", "1000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["results"] == want
        assert peak < 1_000_000  # a 10^6-letter source alone would take 8 MB

    def test_periodic_logq_at_huge_n(self):
        # the difference form reads one period, whatever n is
        record = run_json("estimate", "--periodic", "1,2", "-n", "1000000000000000000", "-a", "1", "-b", "2")
        assert record["results"]["value"] == 0.658478948462408

    def test_periodic_logq_past_2_63(self):
        # n enters the periodic logq only through min(n, PERIODIC_LOGQ_START), so no index holds it
        record = run_json("estimate", "--periodic", "1,2", "-n", str(2**63), "-a", "1", "-b", "2")
        assert record["results"]["value"] == 0.658478948462408  # as at -n 9223372036854775000

    @pytest.mark.parametrize("source", [["--slope", "1", "--repeat", "1"], ["--periodic", "1,2", "--method", "birkhoff"]])
    def test_n_past_float_range_exits_2(self, source, capsys):
        # every letter is small; -n itself is checked before any letter or digit is read
        assert main(["estimate", *source, "-n", str(10**400), "-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: -n is past float range, about 1.8e308"]

    @pytest.mark.parametrize("argv, line", [
        (["estimate", "--periodic", "1,2", "--repeat", "3", "-n", "10"],
         "error: --repeat is a digit tail for --slope; no other source reads it"),
        (["estimate", "--word", "absent.txt", "--repeat", "1", "-n", "10"],
         "error: --repeat is a digit tail for --slope; no other source reads it"),
        (["slope", "1/3", "--repeat", "2"], "error: --repeat is a digit tail for --cf; a p/q fraction does not read it"),
    ])
    def test_repeat_that_no_source_reads_exits_2(self, argv, line, capsys):
        assert main(argv + ["-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [line]

    def test_birkhoff_deep_tail_depth(self, capsys):
        # the truncation term 2^(2 - tail_depth) underflows to 0, it does not overflow
        argv = ["estimate", "--periodic", "1,2", "-n", "10", "--method", "birkhoff", "--tail-depth", "2000"]
        assert main(argv + ["-a", "1", "-b", "2"]) == 0
        bound = json.loads(capsys.readouterr().out)["results"]["error_bound"]
        assert math.isfinite(bound) and bound > 0

    @pytest.mark.parametrize("source", [["--periodic", "1,2"], ["--slope", "1", "--repeat", "1"], ["--word"]])
    def test_birkhoff_tail_depth_past_bound_exits_2(self, tmp_path, source, capsys):
        # every birkhoff route takes O(tail_depth) numpy steps, so the depth is bounded before any window is summed
        if source == ["--word"]:
            source = ["--word", str(tmp_path / "letters.txt")]
            (tmp_path / "letters.txt").write_text("1,2\n" * 2000)
        argv = ["estimate", *source, "-n", "10", "--method", "birkhoff", "--tail-depth", "2049", "-a", "1", "-b", "2"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: tail_depth must be in 2..2048, got 2049"]

    def test_sturmian_stream_memory(self, capsys):
        # logq on a Sturmian source generates no letter: it multiplies one scaled
        # 2x2 matrix per Ostrowski digit of n - 1, so n = 1e6 holds a few kB
        argv = ["estimate", "--slope", "1,2,1,2,2,3,2,3,2,3,1,1,2,18", "--repeat", "2", "-a", "1", "-b", "2"]
        assert main(argv + ["-n", "10"]) == 0
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv + ["-n", "1000000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["results"]["value"] == 0.634341524561811
        assert peak < 1_000_000

    @pytest.mark.parametrize("source, line", [
        ("--slope", "error: cannot parse digits '': invalid literal for int() with base 10: ''"),
        ("--word", "error: cannot read --word file: No such file or directory: "),
        ("--periodic", "error: period must be nonempty, got length 0"),
    ])
    def test_empty_source_exits_2(self, source, line, capsys):
        # an empty value still selects its own source, which rejects it in one line
        assert main(["estimate", source, "", "-n", "10", "-a", "1", "-b", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_conflicting_sources_exit_2(self):
        proc = run_cli("estimate", "--periodic", "1,2", "--slope", "1", "-n", "10", "-a", "1", "-b", "2")
        assert proc.returncode == 2

    def test_sturmian_logq_at_huge_n_matches_deep_convergent(self, capsys):
        # f at the depth-70 convergent of the golden slope (q_70 = F_72, about 5e14, so 5G/q_70 is
        # about 1.4e-14), from its Christoffel trace on ScaledMat2: the exact trace has about 4e14 bits
        argv = ["estimate", "--slope", "1", "--repeat", "1", "-n", str(10**18), "-a", "1", "-b", "2"]
        assert main(argv) == 0
        value = json.loads(capsys.readouterr().out)["results"]["value"]
        m = [ScaledMat2.of(Mat2(x, 1, 1, 0)) for x in (2, 1)]
        for word in itertools.islice(standard_sequence(itertools.repeat(1), *m, operator.pow, operator.matmul), 71):
            pass
        _, q = SlopeCF((), repeat=(1,)).convergent(70)
        f70 = (word.exponent * math.log(2) + math.log(word.mantissa.trace)) / q
        assert abs(value - f70) < 1e-12

    @pytest.mark.parametrize("n, huge", [("5", "-a"), ("6", "-b"), ("7", "-b")])
    def test_sturmian_letter_past_float_range(self, n, huge, capsys):
        # s_{theta,0} = a a^5 b ...: b is first read at n = 7, and then it fails as on the stream route
        letters = {"-a": [HUGE, str(10**400 + 1)], "-b": ["1", HUGE]}[huge]
        argv = ["estimate", "--slope", "5", "--repeat", "1", "-n", n, "-a", letters[0], "-b", letters[1]]
        fails = n != "6"
        assert main(argv) == (2 if fails else 0)
        err = capsys.readouterr().err.splitlines()
        assert err == (["error: the --slope letters are too large for the float estimators "
                        "(int too large to convert to float)"] if fails else [])

    def test_sturmian_estimate_matches_bounded_slope_value(self):
        # estimate at n=1e5 against the convergent evaluation whose rigorous
        # bound is below 1e-4 (depth 23 at golden slope)
        est = run_json("estimate", "--slope", "1", "--repeat", "1", "-n", "100000", "-a", "1", "-b", "2")
        ref = run_json("slope", "--cf", "1", "--repeat", "1", "--depth", "23", "-a", "1", "-b", "2")
        assert ref["results"]["error_bound"] < 1e-4
        diff = abs(est["results"]["value"] - ref["results"]["f"])
        assert diff < 1e-3 + ref["results"]["error_bound"]


class TestOutput:
    def test_closed_pipe_exits_141_silently(self):
        # about 2 MB of JSON, far more than a pipe buffer holds, so the
        # writer is still writing when the reader goes away
        argv = CLI + ["curve", "--qmax", "300", "-a", "1", "-b", "2"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
            assert proc.stdout.readline() == b"{\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_traces_past_4300_digits(self):
        ab = Alphabet(1, 2)
        period = ",".join(["1", "2", "1"] * 6700)
        cases = [
            (("slope", "7001/20011"), trace(christoffel(Fraction(7001, 20011), ab))),
            (("quad", "--period", period), trace(tuple(int(x) for x in period.split(",")))),
        ]
        limit = sys.get_int_max_str_digits()
        for args, want in cases:
            assert want.bit_length() > 14300  # more than 4300 decimal digits
            proc = run_cli(*args, "-a", "1", "-b", "2")
            assert proc.returncode == 0, proc.stderr
            sys.set_int_max_str_digits(0)
            try:
                record = json.loads(proc.stdout)
            finally:
                sys.set_int_max_str_digits(limit)
            assert record["results"]["trace"] == want

    def test_digit_limit_restored_after_in_process_run(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["slope", "7001/20011", "-a", "1", "-b", "2", "--format", "csv"]) == 0
        assert sys.get_int_max_str_digits() == limit
        rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
        assert len(rows["results.trace"]) > 4300


# one valid request per subcommand, without its alphabet
REQUESTS = {
    "quad": ["quad", "--period", "1,2"],
    "slope": ["slope", "2/5"],
    "curve": ["curve", "--qmax", "5"],
    "invert": ["invert", "0.6"],
    "xi": ["xi", "--mmax", "4"],
    "estimate": ["estimate", "--periodic", "1,2", "-n", "10"],
}


class TestRecordPath:
    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        levycf.cli.build_parser.cache_clear()
        argv = REQUESTS["slope"] + ["-a", "1", "-b", "2"]
        assert main(argv) == 0
        assert built
        built.clear()
        assert main(argv) == 0
        assert built == []

    def test_no_state_between_calls(self, capsys):
        assert main(["slope", "--cf", "1", "--repeat", "1", "--depth", "5", "-a", "1", "-b", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["depth"] == 5
        assert main(["slope", "--cf", "1", "--repeat", "1", "-a", "1", "-b", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["depth"] == 20

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_bad_alphabet_exits_2(self, command, capsys):
        for a, b in (("2", "1"), ("0", "1")):
            assert main(REQUESTS[command] + ["-a", a, "-b", b]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert len(out.err.splitlines()) == 1
            assert out.err.startswith("error: alphabet requires 1 <= a < b")

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_record_envelope(self, command, capsys, schema):
        assert main(REQUESTS[command] + ["-a", "1", "-b", "2"]) == 0
        record = json.loads(capsys.readouterr().out)
        jsonschema.validate(record, schema)
        assert list(record) == ["command", "alphabet", "params", "results", "wall_time_s"]
        assert record["command"] == command
        assert record["alphabet"] == {"a": 1, "b": 2}

    @pytest.mark.parametrize("argv, check", [
        (["quad", "--period", ""], lambda ab: QuadPeriod(())),
        (["slope", "--cf", "1", "--depth", "0"], lambda ab: f_irrational(SlopeCF((1,)), 0, ab)),
        (["curve", "--qmax", "10001"], lambda ab: _farey_chunks(10001, ab)),
        (["invert", "0.7", "--tol", "0"], lambda ab: invert_f(0.7, ab, 0.0)),
        (["invert", "0.7", "--tol", "1e-17"], lambda ab: invert_f(0.7, ab, 1e-17)),
        (["xi", "--mmax", "1001"], lambda ab: xi_oscillation(ab, 1001)),
        (["estimate", "--periodic", "1,2", "-n", "0"], lambda ab: levy_empirical((1.0, 2.0), 0, period=2)),
        (["estimate", "--periodic", "", "-n", "10"], lambda ab: levy_empirical((), 10, period=0)),
    ])
    def test_library_check_is_the_one_printed(self, argv, check, capsys):
        # the CLI keeps no copy of a check that the library makes: its one line is the library's own
        ab = Alphabet(1, 2)
        with pytest.raises(ValueError) as raised:
            check(ab)
        assert main(argv + ["-a", "1", "-b", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {raised.value}"]


class TestDeterminism:
    def test_identical_invocations_byte_identical(self):
        args = ("slope", "2/5", "-a", "1", "-b", "2")
        out1 = run_cli(*args).stdout
        out2 = run_cli(*args).stdout
        strip = lambda s: re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": X', s)
        assert strip(out1) == strip(out2)

    def test_fifteen_significant_digits(self):
        record = run_json("quad", "--period", "1", "-a", "1", "-b", "2")
        text = json.dumps(record["results"]["value"])
        digits = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 15
