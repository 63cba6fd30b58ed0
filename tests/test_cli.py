"""CLI behaviours: outputs, exit codes, determinism, cache coherence."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

from tightwp import boltzmann, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTau:
    def test_exact_value(self, capsys):
        code, out, _ = run(capsys, "tau", "--genus", "2", "--indices", "4")
        assert code == 0
        assert out.splitlines()[0] == "1/1152"

    def test_base_case(self, capsys):
        code, out, _ = run(capsys, "tau", "--genus", "0",
                           "--indices", "0,0,0")
        assert code == 0
        assert out.splitlines()[0] == "1/1"

    def test_dimension_gate_prints_zero(self, capsys):
        code, out, _ = run(capsys, "tau", "--genus", "2", "--indices", "1")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_unstable_key_is_user_error(self, capsys):
        code, _, err = run(capsys, "tau", "--genus", "0", "--indices", "0")
        assert code == 2
        assert "unstable" in err


class TestPoly:
    def test_verdict_line(self, capsys):
        code, out, _ = run(capsys, "poly", "-g", "0", "-n", "4")
        assert code == 0
        assert "symmetric ✓ graded ✓" in out
        assert "-1/1" in out  # the -m1 term

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "poly",
                           "-g", "1", "-n", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["terms"] == [[[1], [0], "1/48"], [[0], [1], "-1/24"]]

    def test_inadmissible_is_user_error(self, capsys):
        code, _, err = run(capsys, "poly", "-g", "0", "-n", "2")
        assert code == 2

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "poly", "-g", "5", "-n", "6",
                           "--budget", "10000")
        assert code == 3
        assert "budget" in err


class TestMoments:
    def test_mu_zero_values(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "moments",
                           "--mu", "0", "--dmax", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["moments"]["M0"] == "1.0"
        assert obj["moments"]["M1"].startswith("-19.7392")
        assert obj["mu_c"].startswith("0.0316")

    def test_values_print_the_digits_computed(self, capsys):
        # a 113-bit mpf is printed at its own precision, not rounded to
        # the ambient 53 bits first
        from tightwp import moments

        code, out, _ = run(capsys, "--format", "json", "moments",
                           "--mu", "0.01")
        assert code == 0
        want = mpmath.nstr(moments.mu_critical(113), 17)
        assert json.loads(out)["mu_c"] == want == "0.031623840200669741"

    def test_exact_series_output(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "moments",
                           "--mu", "0", "--dmax", "2", "--order", "3")
        assert code == 0
        series = json.loads(out)["series"]
        assert series["R"] == [[], [[0, "1/1"]], [[1, "1/1"]],
                               [[2, "5/3"]]]
        assert series["M0"] == [[[0, "1/1"]], [[1, "-2/1"]],
                                [[2, "-1/1"]], [[3, "-14/9"]]]

    def test_out_of_range_mu(self, capsys):
        code, _, err = run(capsys, "moments", "--mu", "0.9")
        assert code == 2

    def test_order_zero_is_refused_by_public_name(self, capsys):
        code, _, err = run(capsys, "moments", "--mu", "0", "--order", "0")
        assert code == 2
        assert "r_series needs order >= 1" in err


class TestCusps:
    def test_target_mode_reports_seed_estimate(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cusps", "-g", "4",
                           "--target", "1000")
        assert code == 0
        obj = json.loads(out)
        assert obj["seed_estimate"].startswith("0.03130")
        assert abs(float(obj["mean"]) - 1000) < 1e-4

    def test_stats_mode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cusps", "-g", "2",
                           "--mu", "0.015")
        assert code == 0
        obj = json.loads(out)
        assert float(obj["mean"]) > 0

    def test_needs_mu_or_target(self, capsys):
        code, _, err = run(capsys, "cusps", "-g", "2")
        assert code == 2

    def test_pmax_over_the_work_bound_exits_two(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "cusps", "-g", "2", "--mu", "0.01",
                             "--pmax", "700")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "work" in err and "pmax" in err


class TestVolumes:
    def test_t_volume(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "volumes", "-g", "1",
                           "-n", "1", "--L", "0", "--mu", "0")
        assert code == 0
        obj = json.loads(out)
        assert float(obj["value"]) == pytest.approx(0.8224670334, rel=1e-9)

    def test_negative_length_is_refused(self, capsys):
        code, _, err = run(capsys, "volumes", "-g", "2", "-n", "1",
                           "--L=-1", "--mu", "0.01")
        assert code == 2
        assert "boundary lengths" in err

    @pytest.mark.parametrize("length", ["inf", "-inf", "nan"])
    def test_non_finite_length_is_refused(self, capsys, length):
        code, _, err = run(capsys, "volumes", "-g", "2", "-n", "1",
                           f"--L={length}", "--mu", "0.01")
        assert code == 2
        assert "boundary lengths" in err

    def test_value_is_t_value_not_exp_of_its_log(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "volumes", "-g", "2",
                           "-n", "1", "--L", "1", "--mu", "0.01")
        assert code == 0
        obj = json.loads(out)
        want = boltzmann.t_value(2, 1, [1.0], 0.01, 113)
        assert obj["value"] == cli._fnum(want)
        log = boltzmann.LogValue.from_number(want, 113)
        assert obj["log_magnitude"] == cli._fnum(log.log_magnitude)
        assert obj["sign"] == 1

    def test_extraction_mode(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "volumes", "-g", "0",
                           "-n", "3", "--pmax", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["volumes"][0]["pi2_poly"] == [[0, "1/1"]]
        assert obj["volumes"][1]["pi2_poly"] == [[1, "2/1"]]


    def test_pmax_over_the_work_bound_exits_two_at_once(self):
        # (2, 0, 700) is 1.03e9 units, five times the bound; the extraction
        # ran for minutes.  The CLI runs in a child process so that a hang
        # fails the test.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys; from tightwp import cli; sys.exit(cli.main("
                "['volumes', '-g', '2', '-n', '0', '--pmax', '700']))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 2 and done.stdout == ""
        assert "over the bound 2e+08" in done.stderr
        assert "smaller pmax" in done.stderr


class TestSpectrum:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "spectrum",
                           "--g-range", "3:4", "--beta", "4",
                           "--windows", "1:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g,mu,expected_count,lambda_target,ratio"
        assert len(lines) == 3
        assert lines[1].startswith("3,")

    def test_unbounded_window_is_refused(self, capsys):
        code, _, err = run(capsys, "spectrum", "--g-range", "4:4",
                           "--beta", "3", "--windows", "0:1e8")
        assert code == 2
        assert "error" in err

    def test_beta_gate(self, capsys):
        code, _, err = run(capsys, "spectrum", "--g-range", "3:4",
                           "--beta", "2", "--windows", "1:2")
        assert code == 2
        assert "beta" in err

    @pytest.mark.parametrize("windows", ["1:1", "0.5:1,2:2"])
    def test_zero_width_window_exits_two(self, capsys, windows):
        code, out, err = run(capsys, "spectrum", "--g-range", "4:4",
                             "--beta", "3", "--windows", windows)
        assert code == 2 and out == ""
        assert "zero-width" in err

    @pytest.mark.parametrize("g_range", ["5:3", "3", "3:x", "3:4:5"])
    def test_bad_genus_range_exits_two(self, capsys, g_range):
        code, out, err = run(capsys, "spectrum", "--g-range", g_range,
                             "--beta", "4", "--windows", "1:2")
        assert code == 2 and out == ""
        assert "--g-range" in err

    def test_beta_override_warns(self, capsys):
        code, out, err = run(capsys, "spectrum", "--g-range", "6:6",
                             "--beta", "2", "--windows", "1:2",
                             "--allow-beta")
        assert code == 0
        assert "warning" in err


class TestCsv:
    @pytest.mark.parametrize("argv", [
        ["tau", "-g", "1", "--indices", "1,1"],
        ["volumes", "-g", "2", "-n", "0", "--pmax", "2"],
        ["poly", "-g", "1", "-n", "1"],
        ["volumes", "-g", "1", "-n", "2", "--L", "1,2", "--mu", "0.01"],
        ["moments", "--mu", "0.01", "--dmax", "3"],
        ["cusps", "-g", "2", "--mu", "0.01", "--pmax", "40"],
        ["spectrum", "--g-range", "3:3", "--beta", "4", "--windows", "1:2"],
        ["sample", "--kind", "poisson", "--t-max", "3", "--count", "2"],
        ["sample", "--kind", "cusps", "-g", "2", "--mu", "0.01"],
        ["verify", "--suite", "fast"],
    ], ids=["tau", "volumes", "poly", "volumes-L", "moments", "cusps",
            "spectrum", "sample-poisson", "sample-cusps", "verify"])
    def test_rows_with_commas_are_quoted(self, capsys, argv):
        code, out, _ = run(capsys, "--format", "csv", *argv)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        assert all(len(row) == len(header) for row in rows)


class TestNanInput:
    @pytest.mark.parametrize("argv", [
        ["moments", "--mu", "nan"],
        ["cusps", "-g", "2", "--mu", "nan"],
        ["volumes", "-g", "2", "-n", "0", "--mu-gap", "nan"],
        ["spectrum", "--g-range", "3:3", "--beta", "3", "--windows", "nan:1"],
    ], ids=["moments", "cusps", "volumes", "spectrum"])
    def test_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err


class TestSample:
    def test_deterministic_reports(self, capsys):
        _, out1, _ = run(capsys, "--format", "json", "sample", "--kind",
                         "poisson", "--t-max", "2.5", "--count", "4",
                         "--seed", "11")
        _, out2, _ = run(capsys, "--format", "json", "sample", "--kind",
                         "poisson", "--t-max", "2.5", "--count", "4",
                         "--seed", "11")
        assert out1 == out2

    def test_golden_poisson_samples(self, capsys):
        # pinned so that a change to the seeded stream cannot re-roll
        # samples silently; the second sample reads past the first 8
        # uniforms of its seed
        code, out, _ = run(capsys, "--format", "json", "sample", "--kind",
                           "poisson", "--t-max", "3", "--seed", "7",
                           "--count", "2")
        assert code == 0
        obj = json.loads(out)
        samples = obj.pop("samples")
        assert obj == {"kind": "poisson", "seed": 7, "t_max": 3.0}
        want = [[2.2316063403678204, 2.3436329011305599],
                [1.6684437839569224, 1.7111163297967962, 1.8071612105329167,
                 1.9273677077288383, 1.9296421751380444, 2.1690580695195152,
                 2.4760638080666619, 2.7016079481947441]]
        assert [len(s) for s in samples] == [len(s) for s in want]
        for got, ref in zip(samples, want):
            assert [float(t) for t in got] == pytest.approx(ref, rel=1e-13)

    def test_golden_cusp_draws(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "sample", "--kind",
                           "cusps", "-g", "2", "--mu", "0.01", "--seed", "3",
                           "--count", "8")
        assert code == 0
        assert json.loads(out) == {"draws": [3, 2, 2, 0, 0, 5, 4, 5],
                                   "genus": 2, "kind": "cusps",
                                   "mu": "0.01", "seed": 3}

    def test_seed_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "sample", "--kind", "poisson",
                           "--t-max", "2.0", "--seed", "5")
        assert code == 0

    def test_cusp_kind_needs_args(self, capsys):
        code, _, err = run(capsys, "sample", "--kind", "cusps")
        assert code == 2

    def test_cusp_draws_truncate_their_own_pmf(self, capsys):
        # the default pmax, 74 here, leaves a certified tail of 3.2e-11
        code, out, _ = run(capsys, "--format", "json", "sample", "--kind",
                           "cusps", "-g", "3", "--mu", "0.02", "--count", "3")
        assert code == 0
        assert len(json.loads(out)["draws"]) == 3

    def test_near_critical_cusp_draws_are_refused(self, capsys):
        code, out, err = run(capsys, "sample", "--kind", "cusps", "-g", "3",
                             "--mu-gap", "3e-5")
        assert code == 2 and out == ""
        assert "work" in err and "mu_c" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_refused(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--kind", "poisson", "--t-max", "2",
                      "--count", count])
        assert exc.value.code == 2
        assert "--count must be at least 1" in capsys.readouterr().err


class TestVerify:
    def test_fast_suite_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "fast",
                           "--report-file", str(report))
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["passed"] is True
        names = [c["criterion"] for c in obj["criteria"]]
        assert names == ["C01 constants", "C02 exact polynomial identities",
                         "C03 classical volume oracle",
                         "C04 series extraction"]
        for crit in obj["criteria"]:
            for check in crit["checks"]:
                assert set(check) >= {"name", "passed", "measured",
                                     "tolerance"}
        lines = out.splitlines()
        assert lines[0].startswith("[PASS] C01 constants  (")
        assert lines[1].startswith("    ok  mu_c leading digits: 0.0316")
        assert lines[-1] == "suite: PASS"

    def test_csv_has_one_row_per_check(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "verify")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["criterion", "check", "passed", "measured",
                          "tolerance"]
        assert len(rows) == 12
        assert rows[0] == ["C01 constants", "mu_c leading digits", "True",
                           "0.0316238402", "starts with 0.0316"]

    @pytest.mark.parametrize("argv", [
        ("--precision", "200", "verify"), ("verify", "--precision", "80")])
    def test_other_precision_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "113" in err

    def test_mc_samples_below_one_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "full", "--mc-samples", "0"])
        assert exc.value.code == 2
        assert "--mc-samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, seeds", [
        ((), [0, 1, 2]), (("--seed", "7"), [7, 8, 9])])
    def test_seed_sets_the_monte_carlo_seeds(self, capsys, monkeypatch,
                                             argv, seeds):
        from tightwp import spectrum, verify

        seen = {"poisson": [], "cusp": []}
        poisson = spectrum.sample_poisson_process
        cusp = spectrum.sample_cusp_count

        def record_poisson(t_max, seed):
            seen["poisson"].append(seed)
            return poisson(t_max, seed)

        def record_cusp(g, mu, seed, **kw):
            seen["cusp"].append(seed)
            return cusp(g, mu, seed, **kw)

        monkeypatch.setattr(spectrum, "sample_poisson_process",
                            record_poisson)
        monkeypatch.setattr(spectrum, "sample_cusp_count", record_cusp)
        monkeypatch.setattr(verify, "CRITERIA", [
            ("C11", verify.criterion_monte_carlo, False)])
        run(capsys, "verify", "--suite", "full", "--mc-samples", "3", *argv)
        assert seen == {"poisson": seeds, "cusp": seeds}


class TestBudget:
    """--budget reaches every cell a subcommand builds, through the cache
    every library call is given."""

    @pytest.mark.parametrize("argv, cell", [
        (["volumes", "-g", "3", "-n", "5", "--L", "1,1,1,1,1", "--mu",
          "0.01"], (3, 5)),
        (["spectrum", "--g-range", "6:6", "--beta", "3", "--windows",
          "1:2:2"], (4, 4)),
        (["poly", "-g", "3", "-n", "5"], (3, 5)),
    ], ids=["volumes", "spectrum", "poly"])
    def test_refused_cell_exits_three_unbuilt(self, capsys, monkeypatch,
                                              argv, cell):
        from tightwp import tightpoly

        closed_form = tightpoly._closed_form

        def guarded(g, n, count):
            assert (g, n) != cell, "the refused cell was built"
            return closed_form(g, n, count)

        monkeypatch.setattr(tightpoly, "_closed_form", guarded)
        code, out, err = run(capsys, "--budget", "10000", *argv)
        assert code == 3 and out == ""
        assert "cell ({},{}) needs".format(*cell) in err


def _fresh_process(monkeypatch):
    """Empty the tau memo, as a new process starts; each run already
    holds its cells in a context of its own."""
    from tightwp import intersection

    monkeypatch.setattr(intersection, "_memo", {})
    monkeypatch.setattr(intersection, "_values", {})


class TestCacheBehaviour:
    def test_cold_and_warm_runs_identical(self, capsys, tmp_path,
                                          monkeypatch):
        cache_dir = str(tmp_path / "c")
        _fresh_process(monkeypatch)
        code1, out1, _ = run(capsys, "--cache-dir", cache_dir, "poly",
                             "-g", "1", "-n", "2")
        _fresh_process(monkeypatch)
        code2, out2, _ = run(capsys, "--cache-dir", cache_dir, "poly",
                             "-g", "1", "-n", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert (tmp_path / "c" / "poly" / "g1_n2.twp").exists()

    def test_tampered_cache_exits_four(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "c"
        _fresh_process(monkeypatch)
        run(capsys, "--cache-dir", str(cache_dir), "poly", "-g", "1",
            "-n", "2")
        path = cache_dir / "poly" / "g1_n2.twp"
        path.write_bytes(path.read_bytes()[:-6])
        _fresh_process(monkeypatch)
        code, _, err = run(capsys, "--cache-dir", str(cache_dir), "poly",
                           "-g", "1", "-n", "2")
        assert code == 4
        assert "checksum mismatch" in err

    @pytest.mark.parametrize("tamper, message", [
        (lambda c: [c[0], c[1][8:], c[2][1:]], "has 6 terms, expected 7"),
        (lambda c: [["oops"] + c[0][1:], c[1], c[2]], "is not 'num/den'"),
    ], ids=["dropped-row", "unparsable-coefficient"])
    def test_checksum_valid_bad_cell_exits_four(self, capsys, tmp_path,
                                                monkeypatch, tamper,
                                                message):
        from tightwp import cache

        cache_dir = tmp_path / "c"
        _fresh_process(monkeypatch)
        run(capsys, "--cache-dir", str(cache_dir), "poly", "-g", "1",
            "-n", "2")
        path = cache_dir / "poly" / "g1_n2.twp"
        meta, cols = cache.read_twp(path, "poly")
        cache.write_twp(path, "poly", meta, tamper(cols))
        _fresh_process(monkeypatch)
        code, _, err = run(capsys, "--cache-dir", str(cache_dir), "poly",
                           "-g", "1", "-n", "2")
        assert code == 4
        assert "cache error" in err and message in err

    def test_older_cache_version_exits_four(self, capsys, tmp_path,
                                            monkeypatch):
        from tightwp import cache, tightpoly

        # a cell as the row format wrote it, under the older header
        path = tmp_path / "c" / "poly" / "g1_n2.twp"
        cache.write_twp(path, "poly", [1, 2, 2],
                        tightpoly.p_gn(1, 2).poly.to_obj())
        path.write_bytes(path.read_bytes().replace(
            f"TWPCACHE {cache.VERSION} ".encode(), b"TWPCACHE v1 ", 1))
        _fresh_process(monkeypatch)
        code, out, err = run(capsys, "--cache-dir", str(tmp_path / "c"),
                             "poly", "-g", "1", "-n", "2")
        assert code == 4 and out == ""
        assert f"cache version v1 != {cache.VERSION}" in err

    def test_tau_segment_written_only_when_keys_are_added(
            self, capsys, tmp_path, monkeypatch):
        from tightwp import cache

        cache_dir = tmp_path / "c"
        tau = cache_dir / "tau.twp"
        poly = ["--cache-dir", str(cache_dir), "poly", "-g", "2", "-n", "1"]
        _fresh_process(monkeypatch)
        assert run(capsys, *poly)[0] == 0
        cold = tau.stat()
        rows = len(cache.read_twp(tau, "tau")[1])
        # a warm run loads the cell and the segment and adds no key
        _fresh_process(monkeypatch)
        assert run(capsys, *poly)[0] == 0
        warm = tau.stat()
        assert (warm.st_ino, warm.st_mtime_ns) == \
            (cold.st_ino, cold.st_mtime_ns)
        # a run that adds keys rewrites the segment with them
        _fresh_process(monkeypatch)
        assert run(capsys, "--cache-dir", str(cache_dir), "tau",
                   "--genus", "3", "--indices", "7")[0] == 0
        assert tau.stat().st_ino != cold.st_ino
        assert len(cache.read_twp(tau, "tau")[1]) > rows

    def test_wrong_tau_value_exits_four(self, capsys, tmp_path):
        from tightwp import cache

        # checksum-valid, but <tau_1>_1 is 1/24
        cache.write_twp(tmp_path / "c" / "tau.twp", "tau", [1],
                        [[1, [1], "1/48"]])
        code, _, err = run(capsys, "--cache-dir", str(tmp_path / "c"), "tau",
                           "--genus", "1", "--indices", "1")
        assert code == 4
        assert "cache" in err


def _readme_cli_lines():
    """The tightwp command lines of the README's CLI block, comments
    stripped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.startswith("tightwp ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) == 10
    parser = cli.build_parser()
    for argv in lines:
        assert parser.parse_args(argv).fn.__name__ == f"cmd_{argv[0]}"
