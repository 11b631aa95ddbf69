"""End-to-end tests for the command-line interface.

Each test drives ``rsexact.cli.main`` with an argv list and inspects the
exit code plus captured stdout/stderr, exactly as a shell user would see
them.
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsexact
from rsexact import cli
from rsexact.cli import ORACLE_KMAX, RunConfig, build_parser, config_from_args, main
from rsexact.errors import TooLarge
from rsexact.integral import RSPair, VerificationReport, verify_main_theorem
from rsexact.lmodular import CorollaryReport, pair_conductor
from rsexact.padic import PadicMatrix
from rsexact.simpletypes import RAMIFIED, SimpleTypeData, make_type


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# configuration round-trip and validation


class TestRunConfig:
    @staticmethod
    def _report_round_trip(capsys, *argv):
        cfg = config_from_args(build_parser().parse_args(list(argv)))
        _, out, _ = run_cli(capsys, *argv)
        assert RunConfig(**json.loads(out)["config"]) == cfg

    def test_config_round_trips_through_report(self, capsys):
        self._report_round_trip(
            capsys, "verify", "--q", "3", "--theta", "1", "--A2", "zeta(4)",
            "--window", "2", "--jobs", "2")

    def test_round_trip_ramified(self, capsys):
        self._report_round_trip(
            capsys, "reduce", "--family", "ramified", "--p", "3", "--sigma", "1",
            "--ell", "7", "--ideal", "1")

    def test_scalar_literals_canonicalized(self, capsys):
        # "zeta(4)^3" and "-zeta(4)" denote the same scalar; the echoed
        # config stores one canonical spelling for both
        code1, out1, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--A2", "zeta(4)^3")
        code2, out2, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--A2=-zeta(4)")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "wild", "--q", "2")
        assert code == 2

    def test_composite_p_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--q", "6", "--theta", "1")
        assert code == 2
        assert "prime" in err

    def test_bad_jobs_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--jobs", "0")
        assert code == 2

    def test_negative_window_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--window", "-1")
        assert code == 2

    def test_unknown_flag_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--frobnicate")
        assert code == 2

    def test_unknown_command_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "explode")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--A", "--A2", "--twist"])
    def test_zero_denominator_is_config_error(self, capsys, flag):
        code, _, err = run_cli(capsys, "verify", "--q", "2", "--theta", "1", flag, "1/0")
        assert code == 2
        assert "configuration error" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


class TestVerifyCommand:
    def test_depth_zero_q2_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--q", "2", "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert data["euler_factor"] == "1/(1 - X^2)"
        assert all(bool(v) for v in data["checks"].values())
        assert all(r["match"] for r in data["oracle"])

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--q", "2", "--theta", "1")
        _, out2, _ = run_cli(capsys, "verify", "--q", "2", "--theta", "1")
        assert out1 == out2

    def test_csv_shell_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,c_i,q_power"
        assert lines[1] == "0,3,1"
        assert lines[2] == "1,3,4"

    def test_window_zero_truncates_oracle_and_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--window", "0")
        assert code == 1
        assert "oracle" in err
        data = json.loads(out)
        rows = data["oracle"]
        assert rows[0]["match"] is True
        assert not all(r["match"] for r in rows)

    @pytest.mark.parametrize("pair, has_oracle", [
        (["--theta", "1", "--theta2", "2"], False),
        (["--theta", "1"], True),
    ], ids=["non-dual", "dual"])
    def test_jobs_only_change_the_echoed_config(self, capsys, pair, has_oracle):
        reports = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(capsys, "verify", "--q", "3", *pair, "--jobs", jobs)
            assert code == 0
            data = json.loads(out)
            assert data["config"].pop("jobs") == int(jobs)
            reports.append(data)
        assert reports[0] == reports[1]
        assert ("oracle" in reports[0]) == has_oracle

    def test_explicit_dual_partner(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "3", "--theta", "1", "--theta2", "5")
        assert code == 0
        data = json.loads(out)
        assert data["type2"]["theta"] == 5
        assert data["euler_factor"] == "1/(1 - X^2)"

    def test_non_dual_pair_fails_checks(self, capsys):
        # theta2 = 1 is not in the Frobenius orbit of -theta1 at q = 3
        code, out, err = run_cli(
            capsys, "verify", "--q", "3", "--theta", "1", "--theta2", "1")
        assert code == 0  # Schur vanishing holds, which is the check here
        data = json.loads(out)
        assert data["applicable"] is False
        assert data["checks"] == {"schur_vanishing": True}

    def test_uniformizer_scalar_moves_denominator(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "3", "--theta", "1", "--A2", "zeta(4)")
        assert code == 0
        data = json.loads(out)
        assert data["euler_factor"] == "1/(1 - zeta(4)*X^2)"

    def test_twist_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "3", "--theta", "1", "--twist", "zeta(4)")
        assert code == 0
        data = json.loads(out)
        assert data["twist"] == "zeta(4)"
        assert data["euler_factor"] == "1/(1 + X^2)"

    def test_ramified_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "ramified", "--p", "3", "--sigma", "1")
        assert code == 0
        data = json.loads(out)
        assert data["euler_factor"] == "1/(1 - X)"
        assert data["mu"] == "3"

    def test_ramified_auto_dual_inverts_A(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "ramified", "--p", "3",
            "--sigma", "1", "--A", "zeta(4)")
        assert code == 0
        data = json.loads(out)
        assert data["type2"]["A"] == "-zeta(4)"
        assert data["euler_factor"] == "1/(1 - X)"

    def test_out_file_and_silent_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["euler_factor"] == "1/(1 - X^2)"

    @pytest.mark.parametrize("scale", ["p", "1/p"])
    @pytest.mark.parametrize("argv", [
        ["--q", "5", "--theta", "1"],
        ["--family", "ramified", "--p", "5", "--sigma", "1"],
        ["--q", "2", "--n", "3", "--gl3", "--theta", "1"],
    ], ids=["depth-zero-q5", "ramified-p5", "gl3-q2"])
    def test_a_global_q_power_error_fails_without_the_oracle(
            self, capsys, monkeypatch, argv, scale):
        # none of these runs an oracle; mu is checked against its predicted
        # value vol(J^1), not against the engine's own fit
        real_init = RSPair.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self.nu *= self.p if scale == "p" else Fraction(1, self.p)

        monkeypatch.setattr(RSPair, "__init__", init)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert "oracle" not in json.loads(out)
        failed = err.removeprefix("verification failed: ").strip().split(", ")
        assert {"closed_form_identity", "shell_constancy"} <= set(failed), err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, where):
        target = tmp_path / "absent" / "x.json" if where == "missing-directory" else tmp_path
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error:")
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bessel-table


class TestBesselTableCommand:
    def test_q2_table_has_six_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-table", "--q", "2", "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 6
        assert data["checks"]["identity"] is True
        assert data["checks"]["duality"] is True
        assert data["checks"]["convolution"] is True
        assert data["checks"]["pairs_checked"] == 36
        values = {tuple(map(tuple, r["g"])): r["value"] for r in data["rows"]}
        assert values[((1, 0), (0, 1))] == "1"

    def test_q3_table_has_48_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bessel-table", "--q", "3", "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 48
        assert all(bool(data["checks"][k])
                   for k in ("identity", "duality", "convolution"))

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bessel-table", "--q", "2", "--theta", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data_lines = [l for l in lines if not l.startswith("#")]
        assert "# identity: pass" in comments
        assert data_lines[0] == "g11,g12,g21,g22,value"
        assert len(data_lines) == 1 + 6

    def test_invalid_theta_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "bessel-table", "--q", "2", "--theta", "0")
        assert code == 2
        assert "Frobenius" in err

    def test_ramified_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bessel-table", "--family", "ramified", "--p", "3",
            "--sigma", "1")
        assert code == 0
        data = json.loads(out)
        # (p - 1) unit residues times p^5 pro-p coset representatives
        assert len(data["rows"]) == 2 * 3**5
        assert all(bool(data["checks"][k])
                   for k in ("identity", "duality", "convolution"))

    def test_ramified_table_rows_are_the_j_representatives(self, capsys):
        p = 3
        code, out, _ = run_cli(
            capsys, "bessel-table", "--family", "ramified", "--p", str(p),
            "--sigma", "1")
        assert code == 0
        gs = [r["g"] for r in json.loads(out)["rows"]]
        # the first row is r = 1 times the coset representative y = 0
        assert gs[0] == [[1, 0], [0, 1]]
        t = make_type(RAMIFIED, p, sigma=1)
        assert all(t.in_J(PadicMatrix(g)) for g in gs)
        assert len({str(g) for g in gs}) == (p - 1) * p**5

    @pytest.mark.parametrize("p", [3, 5])
    def test_ramified_table_reads_lambda_only_on_J(self, capsys, monkeypatch, p):
        # lambda is read on kernel classes, and kernel_class does not test
        # membership: every matrix the table classifies (each representative,
        # its inverse and each sampled product) must lie in J
        seen = []
        kernel_class = SimpleTypeData.kernel_class

        def spy(t, j):
            seen.append((t, j))
            return kernel_class(t, j)

        monkeypatch.setattr(SimpleTypeData, "kernel_class", spy)
        code, _, _ = run_cli(
            capsys, "bessel-table", "--family", "ramified", "--p", str(p), "--sigma", "1")
        assert code == 0
        reps = (p - 1) * p**5
        # rows, the identity, one inverse per row, three per sampled pair
        assert len(seen) == reps + 1 + reps + 3 * 100
        assert all(t.in_J(j) for t, j in seen)

    def test_gl3_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bessel-table", "--q", "2", "--n", "3", "--gl3",
            "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 168  # |GL_3(F_2)|
        assert data["checks"]["identity"] is True
        assert data["checks"]["duality"] is True

    def test_unbounded_table_is_refused_up_front(self):
        # |GL_3(F_5)| * 5^3 is about 1.9e8 Bessel terms; the table is
        # refused before anything is enumerated
        src = str(Path(rsexact.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rsexact.cli", "bessel-table", "--q", "5", "--n", "3",
             "--gl3", "--theta", "1"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unbounded_ramified_table_is_refused_up_front(self, capsys):
        # (p - 1) p^5 rows: 1.0e5 at p = 7, 1.6e6 at p = 11
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "bessel-table", "--family", "ramified", "--p", "11", "--sigma", "1")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("configuration error:") and "1.6e+06 terms" in err
        assert "Traceback" not in err
        assert out == ""


# ---------------------------------------------------------------------------
# reduce


class TestReduceCommand:
    def test_banal_reduction_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--q", "2", "--theta", "1", "--ell", "5")
        assert code == 0
        data = json.loads(out)
        assert data["match"] is True
        assert data["reduced_factor"] == "1/(1 + 4*X^2)"

    def test_non_banal_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "reduce", "--q", "2", "--theta", "1", "--ell", "3")
        assert code == 3
        assert "refused" in err

    def test_ell_equals_p_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "reduce", "--q", "2", "--theta", "1", "--ell", "2")
        assert code == 2

    @pytest.mark.parametrize("ell", ["91", "3317044064679887385961981"])
    def test_composite_or_untestable_ell_is_config_error(self, capsys, ell):
        # 91 = 7 * 13; the second is beyond the deterministic primality test
        code, _, err = run_cli(
            capsys, "reduce", "--q", "2", "--theta", "1", "--ell", ell)
        assert code == 2
        assert err.startswith("configuration error:")
        assert "Traceback" not in err

    def test_missing_ell_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "reduce", "--q", "2", "--theta", "1")
        assert code == 2

    def test_second_prime_ideal(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--q", "3", "--theta", "1", "--ell", "7",
            "--ideal", "1")
        assert code == 0
        data = json.loads(out)
        assert data["factor_index"] == 1
        assert data["match"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--q", "2", "--theta", "1", "--ell", "5",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert "match,True" in lines


# ---------------------------------------------------------------------------
# oracle-check


class TestOracleCheckCommand:
    def test_q2_all_match(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--q", "2", "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert [r["k"] for r in data["rows"]] == list(range(7))
        assert data["rows"][0]["engine"] == "3"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-check", "--q", "2", "--theta", "1",
            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,engine,oracle,match"
        assert lines[1] == "0,3,3,True"

    def test_window_zero_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-check", "--q", "2", "--theta", "1", "--window", "0")
        assert code == 1
        assert "oracle" in err

    def test_jobs_do_not_change_rows(self, capsys):
        _, out1, _ = run_cli(
            capsys, "oracle-check", "--q", "3", "--theta", "1",
            "--window", "3", "--jobs", "1")
        _, out2, _ = run_cli(
            capsys, "oracle-check", "--q", "3", "--theta", "1",
            "--window", "3", "--jobs", "2")
        rows1 = json.loads(out1)["rows"]
        rows2 = json.loads(out2)["rows"]
        assert rows1 == rows2

    def test_ramified_jobs_do_not_change_rows(self, capsys):
        rows = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "oracle-check", "--family", "ramified", "--p", "3",
                "--sigma", "1", "--jobs", jobs)
            assert code == 0
            rows.append(json.loads(out)["rows"])
        assert rows[0] == rows[1]
        assert len(rows[0]) == 7 and all(r["match"] for r in rows[0])

    def test_rows_equal_the_verify_oracle_block(self, capsys):
        flags = ["--q", "3", "--theta", "1", "--window", "3"]
        _, out_rows, _ = run_cli(capsys, "oracle-check", *flags)
        _, out_verify, _ = run_cli(capsys, "verify", *flags)
        assert json.loads(out_rows)["rows"] == json.loads(out_verify)["oracle"]

    def test_unbounded_window_is_refused_up_front(self):
        # (ORACLE_KMAX + 1) * 100001 windows * 3 cells is about 2.1e6 pair
        # points; the run is refused before any type is built
        src = str(Path(rsexact.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for command in ("oracle-check", "verify"):
            proc = subprocess.run(
                [sys.executable, "-m", "rsexact.cli", command, "--q", "2", "--theta", "1",
                 "--window", "100000"],
                env=env, capture_output=True, text=True, timeout=20,
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("configuration error:")
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""

    @pytest.mark.parametrize("family,p,cells", [("depth-zero", 2, 3), ("ramified", 3, 432)])
    def test_size_bound_is_the_point_estimate(self, family, p, cells):
        # the largest admitted window has at most ORACLE_POINT_LIMIT points
        limit = cli.ORACLE_POINT_LIMIT // ((ORACLE_KMAX + 1) * cells) - 1
        for window, admitted in ((limit, True), (limit + 1, False)):
            cfg = RunConfig(command="oracle-check", family=family, p=p, window=window)
            if admitted:
                cli._validate(cfg)
            else:
                with pytest.raises(TooLarge):
                    cli._validate(cfg)

    def test_pool_is_capped_at_the_coefficient_count(self, capsys, monkeypatch):
        started = []

        class RecordingExecutor:
            """Stands in for the process pool and starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingExecutor)
        outs = {}
        for jobs in ("1", "3", "5000"):
            code, outs[jobs], _ = run_cli(
                capsys, "oracle-check", "--q", "2", "--theta", "1", "--jobs", jobs)
            assert code == 0
        assert started == [3, ORACLE_KMAX + 1]
        reports = {jobs: json.loads(out) for jobs, out in outs.items()}
        for jobs, report in reports.items():
            assert report["config"].pop("jobs") == int(jobs)
        assert reports["1"] == reports["3"] == reports["5000"]

    def test_gl3_not_supported(self, capsys):
        code, _, _ = run_cli(
            capsys, "oracle-check", "--q", "2", "--n", "3", "--gl3",
            "--theta", "1")
        assert code == 2


# ---------------------------------------------------------------------------
# engine size bound


class TestEngineSizeBound:
    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "ramified", "--p", "31", "--sigma", "1"],
        ["verify", "--q", "101", "--theta", "1"],
        ["verify", "--q", "7", "--n", "3", "--gl3", "--theta", "1"],
        ["reduce", "--family", "ramified", "--p", "31", "--sigma", "1", "--ell", "5"],
    ])
    def test_oversized_engine_is_refused_up_front(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("configuration error:") and "support tests" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("family,p,n,admitted", [
        ("ramified", 7, 2, True), ("ramified", 11, 2, True), ("ramified", 13, 2, False),
        ("depth-zero", 13, 2, True), ("depth-zero", 53, 2, True),
        ("depth-zero", 59, 2, False),
        ("depth-zero", 3, 3, True), ("depth-zero", 5, 3, True), ("depth-zero", 7, 3, False),
    ])
    def test_limit_sits_between_the_admitted_and_refused_sizes(self, family, p, n, admitted):
        # ramified p = 11 makes about 8.7e5 support tests and p = 13 about
        # 2.0e6; GL_3 q = 5 about 2.6e5 and q = 7 about 2.2e6
        for command in ("verify", "reduce"):
            cfg = RunConfig(command=command, family=family, p=p, n=n, gl3=n == 3, ell=5)
            if admitted:
                cli._check_engine_size(cfg)
            else:
                with pytest.raises(TooLarge):
                    cli._check_engine_size(cfg)


class TestConductorBound:
    @pytest.mark.parametrize("argv,message", [
        (["reduce", "--q", "3", "--theta", "1", "--ell", "13", "--A", "zeta(1000003)"],
         "has conductor 1000003"),
        (["verify", "--q", "3", "--theta", "1", "--A2", "zeta(1000003)"],
         "has conductor 1000003"),
        (["bessel-table", "--q", "3", "--theta", "1", "--A", "zeta(1000003)^1000002"],
         "has conductor 1000003"),
        (["reduce", "--q", "17", "--theta", "1", "--ell", "5"], "of degree 1536"),
        (["reduce", "--q", "3", "--theta", "1", "--ell", "13", "--A2", "zeta(101)"],
         "of degree 800"),
    ])
    def test_oversized_conductor_is_refused_up_front(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("configuration error:") and message in err
        assert "Traceback" not in err
        assert out == ""

    def test_literal_limit(self):
        assert cli._normalize_scalar("zeta(9973)^2") == "zeta(9973)^2"
        assert cli._normalize_scalar("zeta(2) * zeta(5000)") == "-zeta(5000)"
        with pytest.raises(TooLarge):
            cli._normalize_scalar("zeta(10007)")
        with pytest.raises(TooLarge):  # the lcm of the literal's moduli
            cli._normalize_scalar("zeta(101) + zeta(103)")

    @pytest.mark.parametrize("argv", [
        ["--q", "3", "--theta", "1"],
        ["--q", "5", "--theta", "2", "--A", "zeta(8)^3", "--A2", "zeta(12)"],
        ["--q", "2", "--n", "3", "--gl3", "--theta", "1", "--twist", "1/2 * zeta(9)"],
        ["--family", "ramified", "--p", "3", "--sigma", "1"],
        ["--family", "ramified", "--p", "5", "--sigma", "1", "--A", "2 + zeta(7)",
         "--twist", "zeta(4)"],
    ])
    def test_flag_conductor_is_the_pair_conductor(self, argv):
        cfg = config_from_args(build_parser().parse_args(["reduce", *argv, "--ell", "5"]))
        assert cli._conductor(cfg) == pair_conductor(*cli._make_types(cfg))

    @pytest.mark.parametrize("family,p,n,A2,admitted", [
        # phi of the conductor: 576, 440, 240, 416 and 600 are admitted
        ("depth-zero", 13, 2, None, True), ("ramified", 11, 2, None, True),
        ("depth-zero", 5, 3, None, True), ("depth-zero", 3, 2, "zeta(53)", True),
        ("ramified", 3, 2, "zeta(101)", True),
        # 1536, 1728 and 768 are refused
        ("depth-zero", 17, 2, None, False), ("depth-zero", 19, 2, None, False),
        ("depth-zero", 3, 2, "zeta(97)", False),
    ])
    def test_reduce_degree_limit_sits_between_the_admitted_and_refused_sizes(
            self, family, p, n, A2, admitted):
        cfg = RunConfig(command="reduce", family=family, p=p, n=n, gl3=n == 3,
                        A2=A2, ell=5)
        if admitted:
            cli._check_reduce_degree(cfg)
        else:
            with pytest.raises(TooLarge):
                cli._check_reduce_degree(cfg)


# ---------------------------------------------------------------------------
# GL_3 gating


class TestGL3Gate:
    def test_n3_without_flag_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--q", "2", "--n", "3",
                               "--theta", "1")
        assert code == 2
        assert "--gl3" in err

    def test_n3_with_flag_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--q", "2", "--n", "3", "--gl3", "--theta", "1")
        assert code == 0
        data = json.loads(out)
        assert data["euler_factor"] == "1/(1 - X^3)"
        assert data.get("oracle") is None

    def test_ramified_n3_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--family", "ramified", "--p", "3", "--n", "3",
            "--gl3", "--sigma", "1")
        assert code == 2

    def test_window_at_n3_is_refused(self, capsys):
        # GL_3 has no oracle, so a window would be echoed and ignored
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--n", "3", "--gl3", "--theta", "1",
            "--window", "3")
        assert code == 2
        assert err == "configuration error: --window supports n = 2 only\n"
        assert out == ""


# ---------------------------------------------------------------------------
# the oracle's flags on commands that run no oracle


class TestOracleFlagsWithoutAnOracle:
    COMMANDS = {
        "reduce": ["reduce", "--q", "3", "--theta", "1", "--ell", "5"],
        "bessel-table": ["bessel-table", "--q", "3", "--theta", "1"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_window_is_refused(self, capsys, command):
        code, out, err = run_cli(capsys, *self.COMMANDS[command], "--window", "3")
        assert code == 2
        assert err == (f"configuration error: --window applies only to runs with an "
                       f"oracle, not {command}\n")
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("jobs", ["2", "4"])
    def test_jobs_other_than_one_is_refused(self, capsys, command, jobs):
        code, out, err = run_cli(capsys, *self.COMMANDS[command], "--jobs", jobs)
        assert code == 2
        assert err == (f"configuration error: --jobs applies only to runs with an "
                       f"oracle, not {command}\n")
        assert out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_jobs_one_is_accepted_and_echoed(self, capsys, command):
        code, out, _ = run_cli(capsys, *self.COMMANDS[command], "--jobs", "1")
        assert code == 0
        assert json.loads(out)["config"]["jobs"] == 1


# ---------------------------------------------------------------------------
# the one exit path: each command returns its failures, main notes and exits


class RowsBuilt(Exception):
    pass


def _refuse_rows(*args, **kwargs):
    raise RowsBuilt


class TestExitPath:
    def test_failing_bessel_table_exits_1_and_names_convolution(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bessel_convolution_holds", lambda J, pairs: False)
        code, out, err = run_cli(capsys, "bessel-table", "--q", "2", "--theta", "1")
        assert code == 1
        assert err == "verification failed: convolution\n"
        assert json.loads(out)["checks"] == {
            "identity": True, "duality": True, "convolution": False, "pairs_checked": 36}
        code, out, err = run_cli(
            capsys, "bessel-table", "--q", "2", "--theta", "1", "--format", "csv")
        assert code == 1
        assert err == "verification failed: convolution\n"
        assert out.splitlines()[:4] == [
            "# identity: pass", "# duality: pass", "# convolution: FAIL",
            "# pairs_checked: 36"]

    @pytest.mark.parametrize("argv", [
        ["bessel-table", "--q", "3", "--theta", "1"],
        ["bessel-table", "--family", "ramified", "--p", "3", "--sigma", "1"],
        ["verify", "--q", "3", "--theta", "1"],
        ["reduce", "--q", "3", "--theta", "1", "--ell", "5"],
        ["oracle-check", "--q", "2", "--theta", "1"],
    ])
    def test_a_passing_run_prints_no_note(self, capsys, argv):
        for fmt in ("json", "csv"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            assert out.endswith("\n") and not out.endswith("\n\n")

    def test_verify_note_lists_every_failed_check_then_the_oracle(self, capsys, monkeypatch):
        real = cli.verify_main_theorem

        def broken(*args, **kwargs):
            report = real(*args, **kwargs)
            report.checks["row_law"] = report.checks["cell_mass"] = False
            return report

        monkeypatch.setattr(cli, "verify_main_theorem", broken)
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--window", "0")
        assert code == 1
        assert err == "verification failed: row_law, cell_mass, oracle\n"
        data = json.loads(out)
        assert data["passed"] is False
        assert [k for k, ok in data["checks"].items() if not ok] == ["row_law", "cell_mass"]

    def test_verify_failures_are_the_report_verdict(self):
        t1 = make_type("depth-zero", 2, theta=1)
        report = verify_main_theorem(t1, make_type(**t1.dual_params()))
        assert report.failures == [] and report.passed
        report.checks["closed_form_identity"] = False
        report.oracle = [{"match": True}, {"match": False}]
        assert report.failures == ["closed_form_identity", "oracle"]
        assert not report.passed

    def test_reduce_note_names_the_corollary(self, capsys, monkeypatch):
        monkeypatch.setattr(CorollaryReport, "match", property(lambda self: False))
        code, out, err = run_cli(capsys, "reduce", "--q", "2", "--theta", "1", "--ell", "5")
        assert code == 1
        assert err == "verification failed: corollary\n"
        assert json.loads(out)["match"] is False

    def test_oracle_check_note_names_the_oracle(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-check", "--q", "2", "--theta", "1", "--window", "0")
        assert code == 1
        assert err == "verification failed: oracle\n"
        assert json.loads(out)["all_match"] is False

    def test_note_comes_before_a_failed_write(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "--q", "2", "--theta", "1", "--window", "0",
            "--out", str(tmp_path / "missing" / "report.json"))
        assert code == 2
        assert err.startswith("verification failed: oracle\n"
                              "configuration error: cannot write the report:")
        assert out == ""

    @pytest.mark.parametrize("argv,target", [
        (["verify", "--q", "2", "--theta", "1"], (VerificationReport, "csv_rows")),
        (["bessel-table", "--q", "2", "--theta", "1"], (cli, "_table_csv_rows")),
    ])
    def test_a_json_run_builds_no_csv_rows(self, capsys, monkeypatch, argv, target):
        monkeypatch.setattr(*target, _refuse_rows)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["config"]["format"] == "json"
        with pytest.raises(RowsBuilt):
            main([*argv, "--format", "csv"])


def test_cli_import_does_not_load_sympy():
    # the package has no runtime dependency; a fresh interpreter proves it
    src = str(Path(rsexact.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rsexact.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# the flag grammar, fuzzed in-process

# scalar literals: well-formed ones, then malformed or refused ones
LITERALS = ("1", "-1", "2/3", "zeta(4)", "zeta(8)^3",
            "0", "1/0", "zeta(", "zeta(0)", "zeta(99999)")


@st.composite
def cli_argvs(draw):
    """An argv over the flag grammar that stays cheap: p <= 9, so 2 and 3
    are the only primes, and --jobs never asks for a second process."""
    argv = [draw(st.sampled_from([*cli.DISPATCH, "bogus"]))]

    def flag(name, values):
        value = draw(st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            argv.extend([name, str(value)])

    flag("--p", (-1, 0, 1, 2, 3, 4, 9))
    flag("--n", (1, 2, 3, 4))
    if draw(st.booleans()):
        argv.append("--gl3")
    for name in ("--theta", "--theta2", "--ideal"):
        flag(name, (-2, -1, 0, 1, 2, 3, 5))
    for name in ("--A", "--A2", "--twist"):
        flag(name, LITERALS)
    flag("--ell", (-5, 0, 2, 3, 4, 5, 7))
    flag("--window", (-1, 0, 1))
    flag("--format", ("json", "csv"))
    flag("--jobs", (-2, 0, 1))
    return argv


@settings(max_examples=60, deadline=None)
@given(cli_argvs())
def test_every_argv_ends_in_an_exit_code_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
