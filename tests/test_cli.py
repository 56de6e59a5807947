"""Command-line behavior: outputs, determinism, exit codes, resumption."""

import ast
import errno
import importlib
import inspect
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
import pytest
from clirun import run_cli
from hypothesis import given, settings, strategies as st

import parafrob
from parafrob import cli, eqpfit, frobenius, pilp, reduction
from parafrob.errors import InputError, ResourceLimitError
from parafrob.frobenius import Coins
from parafrob.qpoly import BOTTOM

FAMILY_U_UM1 = "poly: [0, 1]\npoly: [-1, 1]\nm: 1\nl: 1\n"
TRIANGLE = "vars: 2\nnonneg: all\nc: 1, 1\nrow: 1, 1 | <= | t\n"
EXAMPLE5 = """m: 1
n1: 1
n2: 1
c: 1
sys1:
row: 3, -5 | <= | 0
row: -5, 8 | <= | 0
row: 1, 0 | <= | t
sys2:
row: 1 | <= | t
"""


def run(*args):
    return run_cli(args)


def test_compute_examples():
    res = run("compute", "--a", "3,5", "--m", "1", "--l", "1",
              "--format", "machine")
    assert res.exit_code == 0
    assert "F 7" in res.output and "G 4" in res.output
    res2 = run("compute", "--a", "6,10,15", "--format", "machine")
    assert "F 29" in res2.output
    res3 = run("compute", "--a", "1,1", "--format", "machine")
    assert "F_m_l -1" in res3.output


def test_compute_h_excerpt_and_table():
    # The excerpt is the capped DP's 17 cells. Fixed tuples with a repeat,
    # an entry above 16 and gcd > 1, then drawn ones with entries 1..20.
    rng = random.Random(26)
    cases = [((2, 3), 2), ((4, 4, 6), 1), ((3, 17), 3), ((6, 10, 20), 4)]
    cases += [(tuple(rng.randint(1, 20) for _ in range(rng.randint(2, 5))),
               rng.randint(1, 4)) for _ in range(40)]
    for a, m in cases:
        res = run("compute", "--a", ",".join(map(str, a)), "--m", str(m),
                  "--format", "machine")
        h_lines = [line for line in res.output.splitlines()
                   if line.startswith("h ")]
        want = oracles.rep_count_table(Coins(a), 16, max(m, 2))
        assert h_lines == [f"h {k} {c}" for k, c in enumerate(want)], (a, m)
    table = run("compute", "--a", "2,3")
    assert table.exit_code == 0 and "F" in table.output


def test_compute_bad_input_exit_code():
    assert run("compute", "--a", "5").exit_code == 2
    assert run("compute", "--a", "3,x").exit_code == 2


def test_compute_resource_limit_exit_code():
    # The smallest entry sets the residue table's size, and this one puts
    # a*m*n far over its limit: refused, and the message names the limit.
    res = run("compute", "--a", "99999989,99999999")
    assert res.exit_code == 3
    assert res.output == ("error: residue table a*m*n = 199999978 exceeds "
                          "10000000\n")


def test_compute_large_m_and_wide_entries():
    # (3, 5) at m = 10^6; the expected values are those of the capped DP.
    res = run("compute", "--a", "3,5", "--m", "1000000", "--l", "3",
              "--format", "machine")
    assert res.exit_code == 0
    assert "F_m_l 14999987" in res.output and "G_m 14999988" in res.output
    # s1 * s2 = 10^9, yet the residue table needs only a = 1000 classes.
    # Values agree with an m-Apery enumeration over the pair bound.
    res = run("compute", "--a", "1000,1000001,1001999", "--m", "2", "--l", "2",
              "--format", "machine")
    assert res.exit_code == 0
    for line in ("F 499999500", "G 250249001", "F_m_l 501000499",
                 "G_m 252248998"):
        assert line in res.output


def test_compute_entry_longer_than_the_int_digit_limit():
    # 4400 digits pass Python's default 4300-digit limit on int <-> str; the
    # CLI lifts it, so the entry parses and the answers print in full.
    sevens = "7" * 4400
    res = run("compute", "--a", f"3,{sevens}", "--format", "machine")
    assert res.exit_code == 0 and "Traceback" not in res.output
    assert f"F 1{'5' * 4399}1" in res.output.splitlines()  # 2 * b - 3


def count_tables(monkeypatch):
    """Record the largest entry of every tuple apery_table is built for."""
    built = []
    real = frobenius.apery_table

    def counting(coins, m):
        built.append(max(coins.a))
        return real(coins, m)

    monkeypatch.setattr(frobenius, "apery_table", counting)
    return built


def test_compute_builds_one_table(monkeypatch):
    built = count_tables(monkeypatch)
    res = run("compute", "--a", "6,10,15", "--m", "3", "--l", "2",
              "--format", "machine")
    assert res.exit_code == 0 and built == [15]


def test_determinism_byte_identical(tmp_path):
    a = run("compute", "--a", "6,10,15", "--m", "2", "--l", "3",
            "--format", "machine")
    b = run("compute", "--a", "6,10,15", "--m", "2", "--l", "3",
            "--format", "machine")
    assert a.output == b.output


def test_series_write_and_resume(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    out = tmp_path / "out"
    res = run("series", "--family", str(fam), "--t-min", "2", "--t-max", "12",
              "--out", str(out))
    assert res.exit_code == 0
    fml = (tmp_path / "out.fml.series").read_text()
    assert len(fml.strip().splitlines()) == 11
    # resume: extend the range; existing values are kept, missing computed
    before = fml
    res2 = run("series", "--family", str(fam), "--t-min", "2", "--t-max", "15",
               "--out", str(out))
    assert res2.exit_code == 0
    after = (tmp_path / "out.fml.series").read_text()
    assert after.startswith(before.rstrip("\n").rsplit("\n", 1)[0])
    assert len(after.strip().splitlines()) == 14
    # idempotent re-run
    res3 = run("series", "--family", str(fam), "--t-min", "2", "--t-max", "15",
               "--out", str(out))
    assert (tmp_path / "out.fml.series").read_text() == after


def test_series_resume_fills_only_missing(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    out = tmp_path / "out"
    run("series", "--family", str(fam), "--t-min", "5", "--t-max", "8",
        "--out", str(out))
    built = count_tables(monkeypatch)
    res = run("series", "--family", str(fam), "--t-min", "2", "--t-max", "12",
              "--out", str(out))
    assert res.exit_code == 0
    assert built == [2, 3, 4, 9, 10, 11, 12]  # entries (t, t - 1)
    values = (tmp_path / "out.fml.series").read_text().split()
    assert values[:4] == ["2", "-1", "3", "1"]  # F(2, 1) = -1, F(3, 2) = 1
    assert len(values) == 22


def record_answers(monkeypatch):
    """Record the t of every PolyFamily.answers call."""
    calls = []
    real = reduction.PolyFamily.answers
    monkeypatch.setattr(reduction.PolyFamily, "answers",
                        lambda family, t: calls.append(t) or real(family, t))
    return calls


def test_series_samples_each_missing_t_once(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    out = str(tmp_path / "out")
    calls = record_answers(monkeypatch)
    res = run("series", "--family", str(fam), "--t-min", "5", "--t-max", "8",
              "--out", out)
    assert res.exit_code == 0 and calls == [5, 6, 7, 8]
    calls.clear()
    res = run("series", "--family", str(fam), "--t-min", "2", "--t-max", "12",
              "--out", out)
    assert res.exit_code == 0 and calls == [2, 3, 4, 9, 10, 11, 12]


# (t + 1, t^2 + 1) is positive from t = 0, so every window samples.
FAMILY_POSITIVE = "poly: t + 1\npoly: t^2 + 1\nm: 2\nl: 2\n"


@st.composite
def touching_windows(draw):
    """Two t windows within 1..25 that overlap or touch."""
    lo1 = draw(st.integers(1, 25))
    hi1 = draw(st.integers(lo1, 25))
    lo2 = draw(st.integers(1, min(hi1 + 1, 25)))
    hi2 = draw(st.integers(max(lo2, lo1 - 1), 25))
    return (lo1, hi1), (lo2, hi2)


@settings(max_examples=30, deadline=None)
@given(touching_windows())
def test_a_resumed_series_equals_one_run(windows):
    (lo1, hi1), (lo2, hi2) = windows
    with (tempfile.TemporaryDirectory() as tmp,
          pytest.MonkeyPatch.context() as monkeypatch):
        tmp = Path(tmp)
        fam = tmp / "fam.txt"
        fam.write_text(FAMILY_POSITIVE)

        def series(lo, hi, out):
            res = run("series", "--family", str(fam), "--t-min", str(lo),
                      "--t-max", str(hi), "--out", str(tmp / out))
            assert res.exit_code == 0, res.output

        series(min(lo1, lo2), max(hi1, hi2), "whole")
        series(lo1, hi1, "resumed")
        calls = record_answers(monkeypatch)
        series(lo2, hi2, "resumed")
        assert calls == [t for t in range(lo2, hi2 + 1)
                         if not lo1 <= t <= hi1]
        for key in ("fml", "gm"):
            assert ((tmp / f"resumed.{key}.series").read_bytes()
                    == (tmp / f"whole.{key}.series").read_bytes())


def test_series_resumes_with_one_output_missing(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_POSITIVE)
    out = tmp_path / "out"
    args = ("series", "--family", str(fam), "--t-min", "3", "--t-max", "10",
            "--out", str(out))
    assert run(*args).exit_code == 0
    first = {key: (tmp_path / f"out.{key}.series").read_bytes()
             for key in ("fml", "gm")}
    (tmp_path / "out.gm.series").unlink()
    calls = record_answers(monkeypatch)
    assert run(*args).exit_code == 0
    assert calls == list(range(3, 11))
    for key, text in first.items():
        assert (tmp_path / f"out.{key}.series").read_bytes() == text


def keyed_sampler(calls):
    """A test-only sampler with a system's keys, not a family's: a count
    and a first objective, -inf at every third t."""
    def sample(t):
        calls.append(t)
        return t * t + 1, BOTTOM if t % 3 == 0 else 5 - t
    return ("count", "obj1"), sample


@settings(max_examples=20, deadline=None)
@given(touching_windows())
def test_the_sampler_loop_resumes_any_keys(windows):
    (lo1, hi1), (lo2, hi2) = windows
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        calls = []
        keys, sample = keyed_sampler(calls)
        cli._sample_series(keys, sample, min(lo1, lo2), max(hi1, hi2),
                           f"{tmp}/whole")
        cli._sample_series(keys, sample, lo1, hi1, f"{tmp}/resumed")
        calls.clear()
        cli._sample_series(keys, sample, lo2, hi2, f"{tmp}/resumed")
        assert calls == [t for t in range(lo2, hi2 + 1)
                         if not lo1 <= t <= hi1]
        for key in keys:
            assert (Path(f"{tmp}/resumed.{key}.series").read_bytes()
                    == Path(f"{tmp}/whole.{key}.series").read_bytes())


def test_the_sampler_loop_checks_before_sampling(tmp_path, capsys):
    calls = []
    keys, sample = keyed_sampler(calls)
    cli._sample_series(keys, sample, 3, 10, str(tmp_path / "out"))
    assert capsys.readouterr().out == (
        f"wrote {tmp_path}/out.count.series (8 samples)\n"
        f"wrote {tmp_path}/out.obj1.series (8 samples)\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    (tmp_path / "dir.obj1.series").mkdir()

    def refused(t):
        raise AssertionError("sampled before the outputs were checked")

    with pytest.raises(InputError, match=re.escape(
            f"t = 12..20 and the t = 3..10 in {tmp_path}/out.count.series "
            "would leave a gap in the merged series")):
        cli._sample_series(keys, refused, 12, 20, str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError):
        cli._sample_series(keys, refused, 3, 5, str(tmp_path / "no" / "x"))
    with pytest.raises(IsADirectoryError):
        cli._sample_series(keys, refused, 3, 5, str(tmp_path / "dir"))

    def limited(t):
        raise ResourceLimitError("sampling stopped")

    with pytest.raises(ResourceLimitError):
        cli._sample_series(keys, limited, 3, 5, str(tmp_path / "new"))
    # Nothing changed: no probe and no new output is left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*before, "dir.obj1.series"])
    assert all((tmp_path / name).read_bytes() == text
               for name, text in before.items())


# t^2 - 10t + 24 = (t - 4)(t - 6) is positive at t = 1..3 and from t = 7.
FAMILY_DIP = "poly: t\npoly: t^2 - 10t + 24\nm: 1\nl: 1\n"
SEVENS = "7" * 4400


def test_series_samples_wherever_the_entries_are_positive(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_DIP)
    res = run("series", "--family", str(fam), "--t-min", "1", "--t-max", "3",
              "--out", str(tmp_path / "out"))
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out.fml.series").read_text() == "1 -1\n2 -2\n3 -3\n"
    assert (tmp_path / "out.gm.series").read_text() == "1 0\n2 0\n3 0\n"


def test_series_stops_at_the_first_entry_not_positive(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_DIP)
    built = count_tables(monkeypatch)
    res = run("series", "--family", str(fam), "--t-min", "1", "--t-max",
              "12", "--out", str(tmp_path / "out"))
    assert res.exit_code == 2
    assert res.output == "error: family entry 2 is not positive at t = 4\n"
    assert built == [15, 8, 3]  # t = 1..3; none for t = 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]


@pytest.mark.parametrize("entry", [f"t^2 - {SEVENS}t",
                                   f"2t^6 - {SEVENS}t^5"],
                         ids=["t^2", "2t^6"])
def test_series_rejects_a_long_negative_coefficient_at_once(tmp_path,
                                                            entry):
    fam = tmp_path / "fam.txt"
    fam.write_text(f"poly: t\npoly: {entry}\nm: 1\nl: 1\n")
    res = run("series", "--family", str(fam), "--t-min", "1", "--t-max",
              "12", "--out", str(tmp_path / "out"))
    assert res.exit_code == 2
    assert res.output == "error: family entry 2 is not positive at t = 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]


def test_series_refuses_a_gap_before_computing(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    out = tmp_path / "out"
    run("series", "--family", str(fam), "--t-min", "3", "--t-max", "10",
        "--out", str(out))
    files = sorted(tmp_path.glob("out.*.series"))
    before = [p.read_text() for p in files]
    calls = []
    monkeypatch.setattr(reduction.PolyFamily, "answers",
                        lambda *args: calls.append(args))
    for t_min, t_max in [(20, 30), (12, 12), (-5, 1)]:
        res = run("series", "--family", str(fam), "--t-min", str(t_min),
                  "--t-max", str(t_max), "--out", str(out))
        assert res.exit_code == 2
        assert res.output == (
            f"error: t = {t_min}..{t_max} and the t = 3..10 in "
            f"{out}.fml.series would leave a gap in the merged series\n")
    assert calls == []
    assert [p.read_text() for p in files] == before
    # Ranges that touch the existing span are merged.
    monkeypatch.undo()
    for t_min, t_max in [(11, 11), (2, 2)]:
        assert run("series", "--family", str(fam), "--t-min", str(t_min),
                   "--t-max", str(t_max), "--out", str(out)).exit_code == 0
    assert len(files[0].read_text().splitlines()) == 10  # t = 2..11


def test_series_checks_its_outputs_before_sampling(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    (tmp_path / "out.gm.series").mkdir()

    def sampled(*args):
        raise AssertionError("sampled before the outputs were checked")

    monkeypatch.setattr(reduction.PolyFamily, "answers", sampled)
    for out, reason in ((tmp_path / "no" / "x", "No such file or directory"),
                        (tmp_path / "out", "Is a directory")):
        res = run("series", "--family", str(fam), "--t-min", "3",
                  "--t-max", "800", "--out", str(out))
        assert res.exit_code == 2, res.output
        assert res.output.startswith("error: ") and reason in res.output
    # The probe of out.fml.series is removed again, and so is a new output
    # of a run that fails while sampling.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fam.txt", "out.gm.series"]

    def limited(*args):
        raise ResourceLimitError("sampling stopped")

    monkeypatch.setattr(reduction.PolyFamily, "answers", limited)
    assert run("series", "--family", str(fam), "--t-min", "3", "--t-max",
               "5", "--out", str(tmp_path / "new")).exit_code == 3
    assert not list(tmp_path.glob("new.*"))


def test_series_rejects_empty_t_range(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    out = tmp_path / "out"

    def empty_range():
        res = run("series", "--family", str(fam), "--t-min", "10",
                  "--t-max", "3", "--out", str(out))
        assert res.exit_code == 2
        assert res.output == "error: empty t range\n"

    empty_range()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]
    # Existing series are neither read nor rewritten: a comment line, which
    # a rewrite would drop, and a malformed family both stay unnoticed.
    run("series", "--family", str(fam), "--t-min", "2", "--t-max", "5",
        "--out", str(out))
    series = tmp_path / "out.fml.series"
    series.write_text("# kept\n" + series.read_text())
    before = series.read_text()
    fam.write_text("not a family\n")
    empty_range()
    assert series.read_text() == before


def test_series_invalid_family(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text("poly: [0, 1]\npoly: [0, -1]\nm: 1\nl: 1\n")
    res = run("series", "--family", str(fam), "--t-min", "1", "--t-max", "5",
              "--out", str(tmp_path / "x"))
    assert res.exit_code == 2


def test_fit_command(tmp_path):
    series = tmp_path / "s.series"
    series.write_text("\n".join(f"{t} {t // 2}" for t in range(1, 61)) + "\n")
    res = run("fit", str(series), "--format", "machine")
    assert res.exit_code == 0
    assert "fit FIT" in res.output and "period 2" in res.output
    assert "component 0 [0, 1/2]" in res.output
    assert "component 1 [-1/2, 1/2]" in res.output


def test_fit_no_fit_and_insufficient(tmp_path):
    bad = tmp_path / "bad.series"
    bad.write_text("\n".join(
        f"{t} {t * (t.bit_length() - 1)}" for t in range(1, 81)) + "\n")
    res = run("fit", str(bad), "--d-max", "6", "--deg-max", "4",
              "--format", "machine")
    assert res.exit_code == 0
    assert "fit NO_FIT" in res.output and "note bounded-search" in res.output

    short = tmp_path / "short.series"
    short.write_text("1 1\n2 2\n3 3\n")
    assert run("fit", str(short)).exit_code == 2


def test_fit_value_longer_than_the_int_digit_limit(tmp_path):
    # Values 10^4400 + 3t: each has 4401 digits, and so has the fitted
    # constant term, which must print in full.
    series = tmp_path / "long.series"
    series.write_text("".join(f"{t} 1{3 * t:04400d}\n" for t in range(1, 41)))
    res = run("fit", str(series), "--format", "machine")
    assert res.exit_code == 0 and "Traceback" not in res.output
    assert f"component 0 [1{'0' * 4400}, 3]" in res.output.splitlines()


def test_crosscheck_ok_and_mismatch(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "10", "--format", "machine")
    assert res.exit_code == 0
    assert "verdict OK" in res.output
    assert "g_offsets 0" in res.output

    bad = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "10", "--inject-mismatch", "--format", "machine")
    assert bad.exit_code == 4
    assert "verdict MISMATCH" in bad.output
    assert "DIFF" in bad.output


def test_crosscheck_skip_over_point_cap(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "20", "--point-cap", "200", "--format", "machine")
    assert "SKIPPED" in res.output


UNPOSITIVE_FAMILY = "poly: t - 10\npoly: t + 1\nm: 1\nl: 1\n"


def test_crosscheck_all_skipped_window_is_unchecked(tmp_path):
    # The entries 2t and 2t + 2 share the factor 2 at every t; each row
    # divides it out, so this window is checked, not skipped.
    fam = tmp_path / "fam.txt"
    fam.write_text("poly: 2t\npoly: 2t + 2\nm: 1\nl: 1\n")
    args = ("crosscheck", "--family", str(fam), "--t-min", "2", "--t-max",
            "6", "--format", "machine")
    res = run(*args)
    assert res.exit_code == 0
    assert "SKIPPED" not in res.output
    assert res.output.splitlines()[-4:] == [
        "checked 5", "f_all_equal True", "g_offsets 0", "verdict OK"]
    # The entry t - 10 is not positive at any t of 2..6, so every row is
    # skipped: nothing was compared, which is no mismatch.
    fam.write_text(UNPOSITIVE_FAMILY)
    res = run(*args)
    assert res.exit_code == 5
    assert res.output.count("SKIPPED (entry not positive)") == 5
    assert res.output.splitlines()[-4:] == [
        "checked 0", "f_all_equal True", "g_offsets -", "verdict UNCHECKED"]


def test_crosscheck_mixed_degree_family_is_checked(tmp_path):
    # Schur's bound gives this family a t^4 box, and every answer lies in
    # it from t = 2 on, so every row of the window is compared.
    fam = tmp_path / "fam.txt"
    fam.write_text("poly: t\npoly: 2t^2 + 1\npoly: 2t^2 + t\npoly: 2t^2 + 2t\n"
                   "poly: 2t^2 + 3t\nm: 1\nl: 1\n")
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "10", "--format", "machine")
    assert res.exit_code == 0
    assert res.output.splitlines()[-4:] == [
        "checked 9", "f_all_equal True", "g_offsets 0", "verdict OK"]


def test_crosscheck_gates_rows_on_the_largest_answer(tmp_path):
    # l plus the largest answer is 30, 54 and 105 at t = 2, 3 and 4, so
    # those rows get the boxes t^5, t^4 and t^4; from t = 5 on it lies
    # below t^3. Every row is checked in its own box.
    fam = tmp_path / "fam.txt"
    fam.write_text("poly: 2t + 1\npoly: 3t + 2\npoly: 5t + 1\nm: 2\nl: 2\n")
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "12")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert [line.split(" | ")[:2] for line in lines[1:12]] == [
        [str(t), str(r)] for t, r in zip(range(2, 13), [5, 4, 4] + [3] * 8)]
    assert "SKIPPED" not in res.output
    assert lines[-4:] == [
        "checked 11", "f_all_equal True", "g_offsets 1", "verdict OK"]


def test_pilp_point_cap_counts_search_nodes(tmp_path):
    # 2x - 2y is even, so sys1 has no point at all, yet its search does
    # work. Propagation stops at MAX_SWEEPS with x in 100..902: below its
    # 803 keys the fiber search runs, and it enters the 802 nodes x in
    # 100..901, each with an empty leaf, so it does 802 work.
    sysfile = tmp_path / "even.txt"
    sysfile.write_text("m: 1\nn1: 1\nn2: 1\nc: 1\nsys1:\n"
                       "row: 2, -2 | == | 1\nrow: 1, 0 | <= | t\n"
                       "row: 0, 1 | <= | t\nsys2:\nrow: 1 | <= | 3\n")
    for cap in ("1000000", "802"):
        res = run("pilp", str(sysfile), "--t", "1000", "--exclusion",
                  "--point-cap", cap)
        assert res.exit_code == 0 and res.output.startswith("size 4\n")
    res = run("pilp", str(sysfile), "--t", "1000", "--exclusion",
              "--point-cap", "801")
    assert res.exit_code == 3
    assert res.output == ("error: search exceeded the point cap of 801 "
                          "(search nodes plus the work of each leaf run)\n")


def test_pilp_knapsack_at_large_t_fits_the_default_cap(tmp_path):
    # 2x + 3y + 5z <= t: a count search charges its nodes plus 1 per leaf
    # run, about t^2/15 in all, not its t^3/180 points.
    sysfile = tmp_path / "knapsack.txt"
    sysfile.write_text("vars: 3\nnonneg: all\nc: 5, -3, 7\n"
                       "row: 2, 3, 5 | <= | t\n")
    for t, count in ((600, 1233271), (2500, 87379598)):
        assert count == sum((t - 3 * y - 5 * z) // 2 + 1
                            for z in range(t // 5 + 1)
                            for y in range((t - 5 * z) // 3 + 1))
        assert run("pilp", str(sysfile), "--t", str(t), "--count") == (
            0, f"count {count}\n")
    assert run("pilp", str(sysfile), "--t", "2500", "--objective", "--l",
               "3") == (0, "objective 1 6250\nobjective 2 6245\n"
                           "objective 3 6242\n")
    # x < y < x: propagation creeps 2 per sweep and stops at MAX_SWEEPS,
    # so the search of this empty region still passes the cap.
    empty = tmp_path / "empty.txt"
    empty.write_text("vars: 2\nnonneg: all\nrow: 1, -1 | <= | -1\n"
                     "row: -1, 1 | <= | -1\nrow: 1, 1 | <= | t\n")
    res = run("pilp", str(empty), "--t", "4000000", "--count")
    assert res.exit_code == 3
    assert res.output == ("error: search exceeded the point cap of 1000000 "
                          "(search nodes plus the work of each leaf run)\n")


def test_pilp_count_runs_the_fiber_search_where_the_keys_pass_the_cap(
        tmp_path):
    # The diagonal x1 = x2 <= t with a projected b <= 1: the search does
    # about 2t units of work, but its kept box holds K = (t + 1)^2 keys,
    # above the default cap at t = 2000. Every kept point has two points
    # above it, so the exclusion set is empty.
    sysfile = tmp_path / "diagonal.txt"
    sysfile.write_text("m: 1\nn1: 1\nn2: 2\nc: 1, 1\nsys1:\n"
                       "row: 1, -1, 0 | == | 0\nrow: 1, 0, 0 | <= | t\n"
                       "row: 0, 1, 0 | <= | t\nrow: 0, 0, 1 | <= | 1\n"
                       "sys2:\nrow: 1, -1 | == | 0\nrow: 1, 0 | <= | t\n"
                       "row: 0, 1 | <= | t\n")
    res = run("pilp", str(sysfile), "--t", "2000", "--count")
    assert res.exit_code == 0 and res.output == "size 0\n"


def test_point_cap_below_one_is_an_input_error(tmp_path):
    sysfile = tmp_path / "tri.txt"
    sysfile.write_text(TRIANGLE)
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    for cap in ("0", "-5"):
        for args in (("pilp", str(sysfile), "--t", "4"),
                     ("crosscheck", "--family", str(fam), "--t-min", "2",
                      "--t-max", "4")):
            res = run(*args, "--point-cap", cap)
            assert res.exit_code == 2, (args[0], cap)
            assert "Invalid value for '--point-cap'" in res.output



class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone, as under ``parafrob ... | head``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_reader_exits_1_quietly(tmp_path):
    sysfile = tmp_path / "tri.txt"
    sysfile.write_text(TRIANGLE)
    errors = io.StringIO()
    with open(tmp_path / "stdout", "w") as sink, \
            redirect_stdout(ClosedPipe(sink.fileno())), \
            redirect_stderr(errors), pytest.raises(SystemExit) as stop:
        cli.main(["pilp", str(sysfile), "--t", "4"], prog_name="parafrob")
    assert stop.value.code == 1 and errors.getvalue() == ""


def test_interrupt_prints_aborted(monkeypatch):
    def interrupted(lines, out):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_emit", interrupted)
    assert run("compute", "--a", "3,5") == (1, "\nAborted!\n")


def test_pilp_count_and_objective(tmp_path):
    sysfile = tmp_path / "tri.txt"
    sysfile.write_text(TRIANGLE)
    res = run("pilp", str(sysfile), "--t", "4")
    assert res.exit_code == 0 and "count 15" in res.output
    res2 = run("pilp", str(sysfile), "--t", "9", "--objective", "--l", "2")
    assert "objective 1 9" in res2.output and "objective 2 9" in res2.output


def test_pilp_exclusion_listing(tmp_path):
    sysfile = tmp_path / "ex5.txt"
    sysfile.write_text(EXAMPLE5)
    res = run("pilp", str(sysfile), "--t", "10", "--exclusion")
    assert res.exit_code == 0
    assert "size 7" in res.output
    assert "point 1" in res.output and "point 9" in res.output
    count_only = run("pilp", str(sysfile), "--t", "10")
    assert "size 7" in count_only.output


def test_pilp_rank_below_one_exit(tmp_path):
    plain = tmp_path / "tri.txt"
    plain.write_text(TRIANGLE)
    exclusion = tmp_path / "ex5.txt"
    exclusion.write_text(EXAMPLE5)
    for sysfile, mode in ((plain, "--objective"), (exclusion, "--objective"),
                          (exclusion, "--exclusion")):
        for l in ("0", "-2"):
            res = run("pilp", str(sysfile), "--t", "4", mode, "--l", l)
            assert res.exit_code == 2, (sysfile.name, mode, l)
            assert res.output == "error: l must be >= 1\n"
    # --count ignores --l
    assert run("pilp", str(plain), "--t", "4", "--l", "0").output == "count 15\n"
    assert run("pilp", str(exclusion), "--t", "10", "--l", "0").output == "size 7\n"


def count_enumerations(monkeypatch):
    """Record the box of every system pilp enumerates."""
    boxes = []
    real = pilp._iter_points

    def counting(rows, lo, hi, visit, point_cap, *rest):
        boxes.append((tuple(lo), tuple(hi)))
        return real(rows, lo, hi, visit, point_cap, *rest)

    monkeypatch.setattr(pilp, "_iter_points", counting)
    return boxes


def test_pilp_enumerates_each_system_once(tmp_path, monkeypatch):
    boxes = count_enumerations(monkeypatch)
    sysfile = tmp_path / "tri.txt"
    sysfile.write_text(TRIANGLE)
    res = run("pilp", str(sysfile), "--t", "9", "--objective", "--l", "10")
    assert res.exit_code == 0 and len(res.output.splitlines()) == 10
    assert boxes == [((0, 0), (9, 9))]
    boxes.clear()
    sysfile = tmp_path / "ex5.txt"
    sysfile.write_text(EXAMPLE5)
    res = run("pilp", str(sysfile), "--t", "10", "--exclusion", "--l", "3")
    assert res.exit_code == 0 and "size 7" in res.output
    assert [hi for _, hi in boxes] == [(10,), (10, 6)]  # sys2, then sys1


def test_pilp_oversized_sys2_stops_before_sys1(tmp_path, monkeypatch):
    # sys2's one run, x = 0..10, is charged its 11 points on the meter: over
    # a cap of 10, the search stops there, and sys1 is never searched.
    boxes = count_enumerations(monkeypatch)
    sysfile = tmp_path / "ex5.txt"
    sysfile.write_text(EXAMPLE5)
    res = run("pilp", str(sysfile), "--t", "10", "--exclusion",
              "--point-cap", "10")
    assert (res.exit_code, res.output) == (
        3, "error: search exceeded the point cap of 10 "
           "(search nodes plus the work of each leaf run)\n")
    assert boxes == [((0,), (10,))]


def test_crosscheck_enumerates_two_systems_per_checked_t(tmp_path, monkeypatch):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    boxes = count_enumerations(monkeypatch)
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "10", "--format", "machine")
    assert res.exit_code == 0 and "checked 9" in res.output
    assert len(boxes) == 2 * 9


def test_crosscheck_box_over_the_cap_is_an_enumeration_skip(tmp_path,
                                                            monkeypatch):
    # At t = 4 the row needs r = 2, a box of t^2 plus a margin of 3 keys:
    # 19 > 10. The work meter alone skips it, on sys2's one run, with the
    # r it tried; sys1 is not searched for that row.
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    boxes = count_enumerations(monkeypatch)
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "4", "--point-cap", "10")
    assert res.output.splitlines()[3] == (
        "4 | 2 | - | - | - | - | SKIPPED (enumeration exceeded the point cap)")
    assert len(boxes) == 2 * 2 + 1 and boxes[-1] == ((0,), (18,))


# Runs one command in a fresh interpreter, then prints the parafrob modules
# it loaded and every module loaded after the probe started.
PROBE = """
import sys
before = set(sys.modules)
from parafrob import cli
try:
    cli.main(args=sys.argv[1:], prog_name="parafrob")
except SystemExit:
    pass
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "parafrob")))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def loaded_modules(workdir, *args):
    """The command's output lines and the parafrob modules it loaded; fails
    if it loaded a module that costs startup time and that parafrob does
    not need: an argument parser, typing, and fractions (with decimal)
    anywhere but in ``fit``, whose interpolation makes non-integral
    numbers. Every input here is integral. The probe runs without ``site``,
    whose ``.pth`` hooks may import such modules first and hide them."""
    src = str(Path(parafrob.__file__).parents[1])
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *args],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, check=True)
    *output, modules, new = proc.stdout.splitlines()
    unwanted = {"click", "dataclasses", "inspect", "argparse", "gettext",
                "locale", "typing"}
    if args[0] != "fit":
        unwanted |= {"fractions", "decimal"}
    slow = {m.split(".")[0] for m in new.split()} & unwanted
    assert not slow, (args, slow)
    return output, {m.removeprefix("parafrob.") for m in modules.split()}


def test_commands_load_only_their_modules(tmp_path):
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    (tmp_path / "fam.txt").write_text(FAMILY_U_UM1)
    (tmp_path / "s.series").write_text(
        "\n".join(f"{t} {t // 2}" for t in range(1, 61)) + "\n")
    common = {"parafrob", "cli", "errors", "formats", "qpoly"}
    output, modules = loaded_modules(tmp_path, "compute", "--a", "3,5",
                                     "--format", "machine")
    assert output[0] == "F 7" and modules == common | {"frobenius"}
    output, modules = loaded_modules(tmp_path, "fit", "s.series",
                                     "--format", "machine")
    assert output[0] == "fit FIT" and modules == common | {"eqpfit"}
    output, modules = loaded_modules(tmp_path, "pilp", "tri.txt", "--t", "9",
                                     "--objective")
    assert output == ["objective 1 9"] and modules == common | {"pilp"}
    output, modules = loaded_modules(tmp_path, "series", "--family",
                                     "fam.txt", "--t-min", "3", "--t-max",
                                     "6", "--out", "out")
    assert output == ["wrote out.fml.series (4 samples)",
                      "wrote out.gm.series (4 samples)"]
    assert modules == common | {"reduction", "frobenius"}
    output, modules = loaded_modules(tmp_path, "crosscheck", "--family",
                                     "fam.txt", "--t-min", "3", "--t-max",
                                     "6", "--format", "machine")
    assert output[-2:] == ["g_offsets 0", "verdict OK"]
    assert modules == common | {"reduction", "frobenius", "pilp"}


EXCLUSION_TEMPLATE = """m: {m}
n1: {n1}
n2: {n2}
c: 1
sys1:
{vars}row: 1, 0 | <= | t
row: 0, 1 | <= | t
sys2:
row: 1 | <= | t
"""


def exclusion_text(**fields):
    return EXCLUSION_TEMPLATE.format(**{"m": "1", "n1": "1", "n2": "1",
                                        "vars": "", **fields})


@pytest.mark.parametrize("command, text, field, value", [
    ("series", "poly: t\npoly: t + 1\nm: two\nl: 1\n", "m", "two"),
    ("series", "poly: t\npoly: t + 1\nm: 1\nl: 1/2\n", "l", "1/2"),
    ("pilp", "vars: x\nrow: 1, 1 | <= | t\n", "vars", "x"),
    ("pilp", exclusion_text(m="1.5"), "m", "1.5"),
    ("pilp", exclusion_text(n1="one"), "n1", "one"),
    ("pilp", exclusion_text(n2=""), "n2", ""),
    ("pilp", exclusion_text(vars="vars: 2x\n"), "vars", "2x"),
], ids=["family-m", "family-l", "system-vars", "exclusion-m", "exclusion-n1",
        "exclusion-n2", "section-vars"])
def test_malformed_integer_field_is_an_input_error(tmp_path, command, text,
                                                    field, value):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "series":
        args = ("series", "--family", str(path), "--t-min", "1",
                "--t-max", "3", "--out", str(tmp_path / "out"))
    else:
        args = ("pilp", str(path), "--t", "3", "--exclusion")
    res = run(*args)
    assert res.exit_code == 2
    assert res.output == f"error: '{field}:' must be an integer: {value!r}\n"


@pytest.mark.parametrize("command, text, message", [
    ("crosscheck", "poly: [1, 2\npoly: t\nm: 1\nl: 1\n",
     "unterminated coefficient list: 'poly: [1, 2'"),
    ("crosscheck", "poly:\npoly: t\nm: 1\nl: 1\n", "empty polynomial"),
    ("crosscheck", "poly: t -\npoly: t\nm: 1\nl: 1\n",
     "bad polynomial term: '-'"),
    ("crosscheck", "poly: -(-3)t\npoly: t\nm: 1\nl: 1\n",
     "not an exact rational: '--3'"),
    ("compute", ",", "empty tuple: ','"),
    ("compute", "[6, 10, 15", "misplaced bracket in tuple: '[6, 10, 15'"),
    ("compute", "6,10]]", "misplaced bracket in tuple: '6,10]]'"),
    ("fit", "1 2 3\n", "series lines are 't value': '1 2 3'"),
    ("fit", "x 2\n", "bad t in series line: 'x 2'"),
    ("crosscheck", "poly: t\nn: 2\n", "unexpected family line: 'n: 2'"),
    ("pilp", "vars: 2\nrow: 1, 1 <= t\n",
     "rows are 'coeffs | sense | rhs': '1, 1 <= t'"),
    ("pilp", "vars: 2\nnonneg: 1\nrow: 1, 1 | <= | t\n",
     "nonneg wants 'all' or 2 0/1 flags: '1'"),
    ("pilp", "vars 2\n", "unexpected system line: 'vars 2'"),
    ("pilp", "row: 1 | <= | t\n" + exclusion_text(),
     "row outside sys1:/sys2: section"),
    ("pilp", "vars: 2\nc: 1\nrow: 1, 1 | <= | t\n",
     "objective width must match variable count"),
    ("pilp --objective", "vars: 2\nc: [0, 1], 1/2\nrow: 1, 1 | <= | t\n",
     "objective entries must be integer-valued polynomials"),
    ("pilp", exclusion_text().replace("c: 1\n", "c: 1/2\n"),
     "objective entries must be integer-valued polynomials"),
    ("pilp", exclusion_text().replace("c: 1\n", "c: 1, 1\n"),
     "objective width must match variable count"),
    ("pilp", exclusion_text().replace("m: 1\n", "", 1),
     "exclusion file is missing 'm:'"),
    ("pilp", exclusion_text(vars="vars: 3\n"),
     "section vars: disagrees with n1/n2"),
    ("fit --d-max 0", "1 1\n", "d_max must be >= 1 and deg_max >= 0"),
    ("fit", "1 1\n2 2\n",
     "1 training samples cannot support any fit (min_support=9)"),
    ("fit", "1 1/0\n", "zero denominator: '1/0'"),
    ("crosscheck", "poly: [1/0, 1]\npoly: t\nm: 1\nl: 1\n",
     "zero denominator: '1/0'"),
    ("pilp", "vars: 1\nrow: (1/0)t | <= | t\n", "zero denominator: '1/0'"),
    ("pilp", "vars: 2\n", "a system needs at least one row"),
    ("pilp", f"vars: {'7' * 4400}\nrow: 1 | <= | t\n",
     f"expected {'7' * 4400} coefficients: '1 | <= | t'"),
], ids=["unterminated-list", "empty-poly", "bare-sign", "double-sign",
        "empty-tuple",
        "open-bracket", "extra-bracket", "series-fields", "series-t", "family-line", "row-bars", "nonneg",
        "system-colon", "row-before-sys1", "objective-width",
        "objective-not-integer", "exclusion-objective-not-integer",
        "exclusion-objective-width", "exclusion-m",
        "section-vars", "fit-d-max", "fit-too-short", "zero-denominator-value",
        "zero-denominator-list", "zero-denominator-term", "no-rows",
        "vars-4400-digits"])
def test_malformed_input_is_an_input_error(tmp_path, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    name, *options = command.split()
    args = {
        "compute": ["--a", text],
        "fit": [str(path)],
        "crosscheck": ["--family", str(path), "--t-min", "2", "--t-max", "3"],
        "pilp": [str(path), "--t", "3"],
    }[name]
    res = run(name, *args, *options)
    assert (res.exit_code, res.output) == (2, f"error: {message}\n")


FAMILY_PAIR = "poly: t\npoly: t + 1\n"
PLAIN_ROWS = "row: 1, 1 | <= | t\nrow: -1, 0 | <= | 2\n"


@pytest.mark.parametrize("command, text, message", [
    ("pilp", "vars: 2\nnonnge: 1 0\n" + PLAIN_ROWS,
     "unknown header 'nonnge:'"),
    ("pilp", "vars: 2\nnonneg: all\nsys2:\n" + PLAIN_ROWS,
     "unknown header 'sys2:'"),
    ("pilp", "vars: 2\nm: 1\n" + PLAIN_ROWS, "unknown header 'm:'"),
    ("pilp", exclusion_text(vars="c: 1, 1\n"), "unknown header 'c:' in sys1:"),
    ("pilp", exclusion_text() + "c: 1\n", "unknown header 'c:' in sys2:"),
    ("pilp", "vars: 2\n" + exclusion_text(), "unknown header 'vars:'"),
    ("pilp", "vars: 2\nnonneg: all\nnonneg: 1 0\n" + PLAIN_ROWS,
     "repeated header 'nonneg:'"),
    ("pilp", "vars: 2\nc: 1, 1\nc: 1, 0\n" + PLAIN_ROWS,
     "repeated header 'c:'"),
    ("pilp", "m: 2\n" + exclusion_text(), "repeated header 'm:'"),
    ("pilp", exclusion_text(vars="vars: 2\nvars: 2\n"),
     "repeated header 'vars:'"),
    ("series", FAMILY_PAIR + "m: 1\nl: 1\nm: 2\n", "repeated header 'm:'"),
    ("series", FAMILY_PAIR + "l: 1\nm: 1\nl: 1\n", "repeated header 'l:'"),
    ("pilp", exclusion_text() + "sys1:\nrow: 1, -1 | <= | 0\n",
     "repeated section 'sys1:'"),
    ("pilp", exclusion_text() + "sys2:\n", "repeated section 'sys2:'"),
], ids=["plain-typo", "plain-bare-sys2", "plain-exclusion-key",
        "sys1-objective", "sys2-objective", "exclusion-vars", "plain-nonneg",
        "plain-objective", "exclusion-m", "section-vars", "family-m",
        "family-l", "section-sys1", "section-sys2"])
def test_unknown_or_repeated_header_is_an_input_error(tmp_path, command,
                                                       text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    if command == "series":
        args = ("series", "--family", str(path), "--t-min", "1",
                "--t-max", "3", "--out", str(tmp_path / "out"))
    else:
        args = ("pilp", str(path), "--t", "3")
    res = run(*args)
    assert res.exit_code == 2
    assert res.output == f"error: {message}\n"
    assert not list(tmp_path.glob("out*"))


def test_pilp_unbounded_exit(tmp_path):
    sysfile = tmp_path / "ray.txt"
    sysfile.write_text("vars: 2\nrow: 1, -1 | == | 1\n")
    res = run("pilp", str(sysfile), "--t", "3")
    assert res.exit_code == 2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "result.txt"
    res = run("compute", "--a", "3,5", "--format", "machine",
              "--out", str(target))
    assert res.exit_code == 0
    assert "F 7" in target.read_text()


@pytest.mark.parametrize("kind", ["missing directory", "directory",
                                  "not UTF-8"])
def test_file_errors_are_input_errors(tmp_path, kind):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    (tmp_path / "dir").mkdir()
    (tmp_path / "bytes.series").write_bytes(b"\xff\xfe")
    missing, folder = str(tmp_path / "no" / "x"), str(tmp_path / "dir")
    cases = {
        "missing directory": [
            ("compute", "--a", "3,5", "--out", missing),
            ("series", "--family", str(fam), "--t-min", "3", "--t-max", "5",
             "--out", missing)],
        "directory": [("fit", folder), ("pilp", folder, "--t", "3"),
                      ("crosscheck", "--family", folder, "--t-min", "3",
                       "--t-max", "4")],
        "not UTF-8": [("fit", str(tmp_path / "bytes.series"))],
    }
    for args in cases[kind]:
        res = run(*args)
        assert res.exit_code == 2, args
        assert res.output.startswith("error: "), res.output
        assert res.output.count("\n") == 1, res.output


def test_pilp_l_above_the_point_cap_is_refused(tmp_path):
    # The answer lists l values, so an l above the cap is refused before
    # any search, without echoing l.
    sysfile = tmp_path / "tri.txt"
    sysfile.write_text(TRIANGLE)
    args = ("pilp", str(sysfile), "--t", "3", "--objective")
    for l in (str(10**20), "3000000000"):
        assert run(*args, "--l", l) == (
            3, "error: l exceeds the point cap of 1000000\n")
    assert run(*args, "--l", "5", "--point-cap", "4") == (
        3, "error: l exceeds the point cap of 4\n")
    assert run(*args, "--l", "5", "--point-cap", "100").output.endswith(
        "objective 4 3\nobjective 5 2\n")
    exclusion = tmp_path / "ex5.txt"
    exclusion.write_text(EXAMPLE5)
    assert run("pilp", str(exclusion), "--t", "10", "--exclusion", "--l",
               "8", "--point-cap", "7").exit_code == 3


COMMAND_OPTIONS = {
    "compute": ["--a", "--m", "--l", "--format", "--out"],
    "series": ["--family", "--t-min", "--t-max", "--out"],
    "fit": ["SERIES_PATH", "--d-max", "--deg-max", "--format", "--out"],
    "crosscheck": ["--family", "--t-min", "--t-max", "--point-cap",
                   "--format", "--out"],
    "pilp": ["SYSTEM_PATH", "--t", "--count", "--objective", "--exclusion",
             "--l", "--point-cap", "--format", "--out"],
}


def listed_options(text):
    """Options named at the start of a help line or in brackets in usage."""
    return set(re.findall(r"(?:^  |\[)(--[\w-]+)", text, re.M))


def test_help_lists_every_option():
    res = run("--help")
    assert res.exit_code == 0
    assert all(name in res.output for name in COMMAND_OPTIONS)
    for name, options in COMMAND_OPTIONS.items():
        res = run(name, "--help")
        assert res.exit_code == 0, name
        named = {option for option in options if option.startswith("--")}
        assert listed_options(res.output) == named, name
        for positional in set(options) - named:
            assert positional in res.output, (name, positional)


def cli_process(*args):
    """The argv and environment of a ``python -m parafrob.cli`` process
    that runs this checkout's sources."""
    src = str(Path(parafrob.__file__).parents[1])
    return ([sys.executable, "-m", "parafrob.cli", *args],
            dict(os.environ, PYTHONPATH=src))


def test_runs_without_docstrings(tmp_path):
    # python -OO drops docstrings, which the help pages read.
    for args, first in ((["compute", "--a", "3,5", "--format", "machine"],
                         "F 7"),
                        (["compute", "--help"], "usage: parafrob compute")):
        argv, env = cli_process(*args)
        proc = subprocess.run([argv[0], "-OO", *argv[1:]], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith(first), args


def run_split(*args):
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(args), prog_name="parafrob")
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("args, code, expected", [
    (("compute", "--a=3,5", "--format=machine"), 0, "F 7\n"),
    (("compute", "--a", "4,9", "--a", "3,5", "--format", "table",
      "--format", "machine"), 0, "F 7\n"),
    (("pilp", "tri.txt", "--t", "-5"), 0, "count 0\n"),
    (("pilp", "tri.txt", "--t=-5", "--objective", "--count"), 0, "count 0\n"),
    (("-h",), 0, "usage: parafrob [-h] COMMAND"),
    (("--help",), 0, "usage: parafrob [-h] COMMAND"),
    (("fit", "-h"), 0, "usage: parafrob fit [-h] SERIES_PATH"),
    (("pilp", "tri.txt", "--help"), 0, "usage: parafrob pilp [-h] SYSTEM_PATH"),
    (("compute", "--m", "2"), 2, "Missing option '--a'."),
    (("fit",), 2, "Missing argument 'SERIES_PATH'."),
    (("compute", "--a", "3,5", "--bogus", "1"), 2, "No such option '--bogus'."),
    (("compute", "--a", "3,5", "extra"), 2,
     "Got unexpected extra argument 'extra'."),
    (("compute", "--a", "3,5", "--m", "x"), 2,
     "Invalid value for '--m': 'x' is not a valid integer."),
    (("compute", "--a", "3,5", "--format", "xml"), 2,
     "Invalid value for '--format': 'xml' is not one of 'table', 'machine'."),
    (("compute", "--a"), 2, "Option '--a' requires an argument."),
    (("pilp", "tri.txt", "--t", "3", "--count=1"), 2,
     "Option '--count' does not take a value."),
    (("pilp", "nofile", "--t", "3"), 2,
     "Invalid value for 'SYSTEM_PATH': Path 'nofile' does not exist."),
    (("foo", "--a", "3,5"), 2, "No such command 'foo'."),
    ((), 2, "Missing argument 'COMMAND'."),
], ids=["equals", "last-wins", "negative", "equals-negative-last-mode",
        "top-h", "top-help", "command-h", "command-help", "missing-option",
        "missing-positional", "unknown-option", "extra-positional", "bad-int",
        "bad-format", "no-value", "flag-value", "missing-path",
        "unknown-command", "no-command"])
def test_parser_forms(tmp_path, monkeypatch, args, code, expected):
    # Exit 0 pins the start of stdout; exit 2 pins the usage and error
    # lines on stderr.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.txt").write_text(TRIANGLE)
    got, out, err = run_split(*args)
    assert got == code, (args, out, err)
    if code == 0:
        assert out.startswith(expected) and err == ""
        return
    command = f" {args[0]}" if args and args[0] in cli._COMMANDS else ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: parafrob{command} [-h]")
    assert error == f"parafrob{command}: error: {expected}"
    assert out == ""


def test_fit_table_and_machine_formats(tmp_path):
    # -inf on t = 0 (mod 3) and t^2 elsewhere: period 3 from the start.
    series = tmp_path / "s.series"
    series.write_text("".join(
        f"{t} {'-inf' if t % 3 == 0 else t * t}\n" for t in range(1, 31)))
    args = ("fit", str(series), "--d-max", "6", "--deg-max", "2")
    table = run(*args)
    assert table.exit_code == 0
    assert table.output.splitlines() == [
        "FIT",
        "  period    3",
        "  threshold 0 (valid for t > threshold)",
        "  component t = 0 (mod 3):  -inf",
        "  component t = 1 (mod 3):  t^2",
        "  component t = 2 (mod 3):  t^2",
        "  checked   18 training + 12 holdout samples, all exact",
    ]
    machine = run(*args, "--format", "machine")
    assert machine.output.splitlines() == [
        "fit FIT", "period 3", "threshold 0", "component 0 -inf",
        "component 1 [0, 0, 1]", "component 2 [0, 0, 1]",
        "training_checked 18", "holdout_checked 12",
    ]


def test_fit_holdout_mismatch_diagnostic(tmp_path):
    # t up to 36, t + 1 above: every training class fits, the holdout
    # disagrees from t = 37 on.
    series = tmp_path / "s.series"
    series.write_text("".join(
        f"{t} {t if t <= 36 else t + 1}\n" for t in range(1, 41)))
    args = ("fit", str(series), "--d-max", "2")
    machine = run(*args, "--format", "machine")
    assert machine.exit_code == 0
    lines = machine.output.splitlines()
    assert lines[:3] == ["fit NO_FIT", "diagnostic 1 - holdout mismatch at t=37",
                         "diagnostic 2 - holdout mismatch at t=37"]
    assert len(lines) == 4 and lines[3].startswith("note bounded-search")
    table = run(*args)
    assert table.output.splitlines()[1:3] == [
        "  period 1: holdout mismatch at t=37",
        "  period 2: holdout mismatch at t=37"]


def test_pilp_per_variable_nonneg_and_equality_alias(tmp_path):
    # x >= 0 and y >= -2 with x + y = 3: y runs over -2..3.
    path = tmp_path / "sys.txt"
    path.write_text("vars: 2\nnonneg: 1 0\nrow: 1, 1 | = | t\n"
                    "row: 0, -1 | <= | 2\n")
    res = run("pilp", str(path), "--t", "3")
    assert (res.exit_code, res.output) == (0, "count 6\n")


def test_an_equality_and_its_two_halves_search_alike(tmp_path):
    # 3z == x + 2y, written as == or as its two <= rows, is one pair of
    # halves to the engine: the same count in the same 602 work at t = 300.
    head = ("vars: 3\nnonneg: all\nrow: 1, 0, 0 | <= | t\n"
            "row: 0, 1, 0 | <= | t\n")
    for name, rows in (("eq.txt", "row: -1, -2, 3 | == | 0\n"),
                       ("twin.txt", "row: -1, -2, 3 | <= | 0\n"
                                    "row: 1, 2, -3 | <= | 0\n")):
        path = tmp_path / name
        path.write_text(head + rows)
        args = ("pilp", str(path), "--t", "300", "--point-cap")
        assert run(*args, "602") == (0, "count 30201\n"), name
        assert run(*args, "601") == (
            3, "error: search exceeded the point cap of 601 "
               "(search nodes plus the work of each leaf run)\n"), name


def test_pilp_mode_needs_matching_file(tmp_path):
    plain = tmp_path / "sys.txt"
    plain.write_text("vars: 2\nnonneg: all\nrow: 1, 1 | <= | t\n")
    res = run("pilp", str(plain), "--t", "3", "--objective")
    assert (res.exit_code, res.output) == (
        2, "error: --objective needs a c: line in the file\n")
    res = run("pilp", str(plain), "--t", "3", "--exclusion")
    assert (res.exit_code, res.output) == (
        2, "error: --exclusion needs an exclusion file\n")


def test_crosscheck_table_header(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    args = ("crosscheck", "--family", str(fam), "--t-min", "2", "--t-max", "4",
            "--point-cap", "10")
    res = run(*args)
    assert res.exit_code == 0
    assert res.output.splitlines()[:4] == [
        "t | r_t | f_l(t)-l | F_direct | g(t) | G_direct+l | status",
        "2 | 1 | -1 | -1 | 1 | 1 | EQUAL",
        "3 | 1 | 1 | 1 | 2 | 2 | EQUAL",
        "4 | 2 | - | - | - | - | SKIPPED (enumeration exceeded the point cap)"]
    # Machine rows keep their six fields, without r_t.
    res = run(*args, "--format", "machine")
    assert res.output.splitlines()[:3] == [
        "2 | -1 | -1 | 1 | 1 | EQUAL",
        "3 | 1 | 1 | 2 | 2 | EQUAL",
        "4 | - | - | - | - | SKIPPED (enumeration exceeded the point cap)"]


def test_inject_mismatch_on_all_skipped_window_stays_unchecked(tmp_path):
    # No row is checked, so there is no row to corrupt.
    fam = tmp_path / "fam.txt"
    fam.write_text(UNPOSITIVE_FAMILY)
    res = run("crosscheck", "--family", str(fam), "--t-min", "2",
              "--t-max", "6", "--inject-mismatch", "--format", "machine")
    assert res.exit_code == 5
    assert res.output.splitlines()[-1] == "verdict UNCHECKED"


@pytest.mark.parametrize("point_cap", ["1000000", "40"])
def test_inject_mismatch_makes_every_checked_row_diff(tmp_path, point_cap):
    # The flag hands the crosscheck a direct path one below F: the real
    # comparison reads DIFF on every checked row, next to the true F of the
    # exclusion path. Skipped rows, and the r of each row, do not move.
    fam = tmp_path / "fam.txt"
    fam.write_text(FAMILY_U_UM1)
    args = ("crosscheck", "--family", str(fam), "--t-min", "2",
            "--t-max", "10", "--point-cap", point_cap)
    plain = run(*args).output.splitlines()
    res = run(*args, "--inject-mismatch")
    assert res.exit_code == 4
    lines = res.output.splitlines()
    assert len(lines) == len(plain) and lines[-4:] == [
        f"checked {sum('SKIPPED' not in row for row in plain[1:-4])}",
        "f_all_equal False", "g_offsets 0", "verdict MISMATCH"]
    checked = 0
    for t, row, before in zip(range(2, 11), lines[1:-4], plain[1:-4]):
        if "SKIPPED" in before:
            assert row == before
            continue
        checked += 1
        f = oracles.dp_answers(Coins((t, t - 1)), 1)[0](1)
        r, _, _, g, g_direct, _ = before.split(" | ")[1:]
        assert row == f"{t} | {r} | {f} | {f - 1} | {g} | {g_direct} | DIFF"
    assert checked == (9 if point_cap == "1000000" else 4)


def test_fit_defaults_are_the_library_defaults():
    # The grammar states fit's defaults again; they must stay the same.
    grammar = {row[1]: row[3] for row in cli._COMMANDS["fit"][1]}
    library = inspect.signature(eqpfit.fit_quasipolynomial).parameters
    assert (grammar["d_max"], grammar["deg_max"]) == (24, 6)
    assert (library["d_max"].default, library["deg_max"].default) == (24, 6)


# The process entry, cli.entry, ends a process with os._exit after
# flushing stdout and stderr; these run it as a shell would.
# An exclusion file whose sys1 is empty: pilp --exclusion lists every
# x = 0..t, which at t = 20000 is 229 KB, well past a 64 KiB pipe buffer.
ALL_POINTS = """m: 1
n1: 1
n2: 1
c: 1
sys1:
row: 1, 0 | <= | -1
sys2:
row: 1 | <= | t
"""


@pytest.mark.parametrize("args, code", [
    (("compute", "--a", "3,5", "--format", "machine"), 0),
    (("series", "--family", "fam.txt", "--t-min", "2", "--t-max", "6",
      "--out", "s"), 0),
    (("compute", "--a", "3,x"), 2),
    (("compute", "--a", "3,5", "--m", "99999999"), 3),
    (("crosscheck", "--family", "fam.txt", "--t-min", "2", "--t-max", "6",
      "--inject-mismatch"), 4),
    (("crosscheck", "--family", "dip.txt", "--t-min", "2", "--t-max", "4",
      "--format", "machine"), 5),
    (("--help",), 0),
    (("compute", "--bogus"), 2),
], ids=["ok", "series", "input", "resource", "mismatch", "unchecked", "help",
        "usage"])
def test_process_matches_in_process(tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fam.txt").write_text(FAMILY_U_UM1)
    (tmp_path / "dip.txt").write_text(UNPOSITIVE_FAMILY)
    argv, env = cli_process(*args)
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
    got, out, err = run_split(*args)
    assert got == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out.encode(), err.encode())


def test_process_output_is_complete(tmp_path):
    (tmp_path / "all.txt").write_text(ALL_POINTS)
    args = ("pilp", "all.txt", "--t", "20000", "--exclusion")
    expected = "\n".join(["size 20001", "objective 1 20000",
                          *(f"point {x}" for x in range(20001))]) + "\n"
    assert len(expected) > 3 * 65536
    argv, env = cli_process(*args)
    piped = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == expected.encode()
    argv, env = cli_process(*args, "--out", "all.out")
    to_file = subprocess.run(argv, cwd=tmp_path, env=env,
                             capture_output=True)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (
        0, b"", b"")
    assert (tmp_path / "all.out").read_text() == expected


def test_process_reader_that_closes_early(tmp_path):
    (tmp_path / "all.txt").write_text(ALL_POINTS)
    argv, env = cli_process("pilp", "all.txt", "--t", "20000", "--exclusion")
    # Unbuffered, CPython's text stdout drops what a partial write left
    # unwritten, so the output goes through the byte layer.
    for unbuffered in (None, "1"):
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        with subprocess.Popen(argv, cwd=tmp_path, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"size 20001\n"
            proc.stdout.close()  # as head -1 does
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1 and err == b"", unbuffered


def test_process_with_nonblocking_stdout_that_fills(tmp_path):
    # A full non-blocking pipe makes a raw write return None: an OS error
    # (exit 2), not a loop that never ends.
    (tmp_path / "all.txt").write_text(ALL_POINTS)
    argv, env = cli_process("pilp", "all.txt", "--t", "20000", "--exclusion")
    for unbuffered in (None, "1"):
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        r, w = os.pipe()  # nothing reads r until the process has ended
        os.set_blocking(w, False)
        with open(r, "rb"), subprocess.Popen(argv, cwd=tmp_path, env=env,
                                             stdout=w, stderr=subprocess.PIPE
                                             ) as proc:
            os.close(w)
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()  # a no-op once the process has ended
            err = proc.stderr.read()
        assert code == 2 and err.startswith(b"error: "), (unbuffered, err)


def test_process_with_stdout_closed(tmp_path):
    # sh's >&- starts the process with no fd 1, so sys.stdout is None.
    (tmp_path / "fam.txt").write_text(FAMILY_U_UM1)

    def closed(*args):
        argv, env = cli_process(*args)
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv],
                              cwd=tmp_path, env=env, capture_output=True)
        assert proc.stderr == b"", proc.stderr
        return proc.returncode

    assert closed("compute", "--a", "3,5") == 1
    assert closed("compute", "--a", "3,5", "--out", "f.txt") == 0
    assert (tmp_path / "f.txt").read_text() == run("compute",
                                                   "--a", "3,5").output
    # series prints what it wrote, after writing both files.
    assert closed("series", "--family", "fam.txt", "--t-min", "2",
                  "--t-max", "6", "--out", "s") == 1
    assert len((tmp_path / "s.gm.series").read_text().splitlines()) == 5


class Exited(Exception):
    """Raised in place of os._exit, which would end the test process."""


def exited(status):
    raise Exited(status)


@pytest.mark.parametrize("args, code", [
    (("compute", "--a", "3,5"), 0), (("--help",), 0),
    (("compute", "--a", "3,x"), 2), (("compute", "--bogus"), 2)])
def test_entry_flushes_and_ends_with_os_exit(monkeypatch, args, code):
    flushed = []
    out, err = io.StringIO(), io.StringIO()
    for stream in (out, err):
        monkeypatch.setattr(stream, "flush",
                            lambda stream=stream: flushed.append(stream))
    monkeypatch.setattr(os, "_exit", exited)
    monkeypatch.setattr(sys, "argv", ["parafrob", *args])
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.raises(Exited) as stop:
        cli.entry()
    assert stop.value.args == (code,)
    assert flushed[-2:] == [out, err]


class FailingFlush(io.StringIO):
    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_entry_falls_back_to_a_normal_exit(monkeypatch):
    monkeypatch.setattr(os, "_exit", exited)
    monkeypatch.setattr(sys, "argv", ["parafrob", "--help"])
    # A failed flush ends the process the normal way, with main's code.
    with redirect_stdout(FailingFlush()), pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 0
    # Any exception but SystemExit, and a code that is not an int, pass
    # through as they would without the entry.
    monkeypatch.setattr(sys, "argv", ["parafrob", "compute", "--a", "3,5"])

    def broken(lines, out):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "_emit", broken)
    with pytest.raises(RuntimeError):
        cli.entry()
    monkeypatch.setattr(cli, "main", lambda: sys.exit("message"))
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == "message"


def test_both_launchers_call_the_entry():
    # pyproject.toml is read as text: tomllib is missing on Python 3.10.
    root = Path(parafrob.__file__).parents[2]
    scripts = (root / "pyproject.toml").read_text().split(
        "[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.fullmatch(r'parafrob = "([\w.]+):(\w+)"', scripts.strip())
    module, name = target.groups()
    script = getattr(importlib.import_module(module), name)
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    call, = block.body
    assert getattr(cli, call.value.func.id) is script
    assert script is not cli.main
