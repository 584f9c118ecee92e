"""Command-line contract: formats, exit codes, config handling, determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from dlaguerre.cli import main
from conftest import SIGNED_ZERO_T

RUN = [sys.executable, "-m", "dlaguerre.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def checkout_env():
    """The environment with this checkout's src/ first on PYTHONPATH, so
    subprocesses import the package under test without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_cli(args, env_extra=None, timeout=None):
    env = checkout_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestMoments:
    def test_origin_rows(self, tmp_path):
        out = tmp_path / "m.csv"
        res = run_cli(["moments", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0", "--kmax", "2", "--format", "csv",
                       "--out", str(out)])
        assert res.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("k,closed_form,quadrature")
        vals = [line.split(",")[1] for line in lines[1:]]
        assert [float(v) for v in vals] == [12.0, 60.0, 360.0]

    def test_exact_zero_moment(self, tmp_path):
        """mu_0 = 1 - 1 = 0 at (1, 0, 0, 1): the quadrature column is
        rounding noise around the closed form's exact 0, not exit 3."""
        out = tmp_path / "m.json"
        res = run_cli(["moments", "--alpha", "1", "--mu", "0", "--zeta", "0",
                       "--t", "1", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        row = json.loads(out.read_text())["moments"][0]
        assert float(row["closed_form"]) == 0
        assert abs(float(row["quadrature"])) < 1e-80

    def test_json_has_provenance(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli(["moments", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0.3", "--kmax", "1", "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["schema_version"] == 1
        assert doc["params"]["t"] == "0.3"
        row = doc["moments"][0]
        assert {"k", "closed_form", "quadrature",
                "relative_difference"} <= set(row)
        assert float(row["relative_difference"]) < 1e-25

    def test_low_corner_exits_zero(self):
        res = run_cli(["moments", "--alpha", "0", "--mu", "0", "--zeta", "0.5",
                       "--t", "0.3", "--kmax", "2"])
        assert res.returncode == 0, res.stderr

    def test_missing_t_usage_error(self):
        res = run_cli(["moments", "--alpha", "2", "--mu", "2", "--zeta", "0.5"])
        assert res.returncode == 2
        assert "usage" in res.stderr.lower()

    def test_invalid_zeta(self):
        res = run_cli(["moments", "--alpha", "2", "--mu", "2", "--zeta", "1.5",
                       "--t", "0.3"])
        assert res.returncode == 2

    def test_zeta_just_below_one(self):
        """zeta = 1 - 1e-23 is valid (it was refused after rounding to 64
        bits), and its moments cancel about 80 bits; zeta = 1 exits 2."""
        args = ["moments", "--alpha", "2", "--mu", "2", "--t", "0.3",
                "--kmax", "3", "--zeta"]
        res = run_cli(args + ["0.99999999999999999999999"])
        assert res.returncode == 0, res.stderr
        assert run_cli(args + ["1"]).returncode == 2

    def test_deterministic_output(self, tmp_path):
        args = ["moments", "--alpha", "2", "--mu", "1", "--zeta", "0.5",
                "--t", "0.3", "--kmax", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--out", str(a)]).returncode == 0
        assert run_cli(args + ["--out", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_moments_past_forty_node_degree(self, tmp_path):
        """At t = 20 the Laguerre tail of x^k (x - t)^2 x^2 has degree 39 at
        k = 35: from k = 36 on the 20-node sums are inexact, so only the 40-
        and 80-node sums agree (a ladder that ended at 40 exited 3)."""
        out = tmp_path / "m.csv"
        res = run_cli(["moments", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "20", "--kmax", "40", "--format", "csv",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 41
        assert all(r["quadrature"] == r["closed_form"] for r in rows)

    def test_stamp_adds_timestamp(self, tmp_path):
        out = tmp_path / "m.json"
        run_cli(["moments", "--alpha", "2", "--mu", "1", "--zeta", "0",
                 "--t", "0.3", "--kmax", "0", "--stamp", "--out", str(out)])
        assert "timestamp" in json.loads(out.read_text())["metadata"]

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "alpha = 2   # exponent\nmu = 2\nzeta = 0.5\nt = 0.3\nkmax = 1\n")
        out = tmp_path / "m.json"
        res = run_cli(["moments", "--config", str(cfg), "--t", "0",
                       "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        # the command-line --t overrides the file value
        assert doc["params"]["t"] == "0"
        assert float(doc["moments"][0]["closed_form"]) == 12.0

    def test_env_prec_bits(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli(["moments", "--alpha", "2", "--mu", "1", "--zeta", "0",
                       "--t", "0.3", "--kmax", "0", "--out", str(out)],
                      env_extra={"DLL_PREC_BITS": "128"})
        assert res.returncode == 0
        assert json.loads(out.read_text())["metadata"]["prec_bits"] == 128


class TestEvolve:
    def test_single_row_trajectory(self, tmp_path):
        out = tmp_path / "traj.json"
        res = run_cli(["evolve", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--n", "1", "--t0", "0.003", "--t1", "0.003",
                       "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["trajectory"]) == 1

    def test_full_run_summary(self, tmp_path):
        out = tmp_path / "traj.json"
        res = run_cli(["evolve", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--n", "1", "--t0", "1e-3", "--t1", "0.3",
                       "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        s = doc["summary"]
        assert float(s["endpoint_vs_hankel_rel"]) < 1e-6
        assert float(s["pv_residual"]) < 1e-12
        cols = set(doc["trajectory"][0])
        assert {"t", "theta", "kappa", "q", "p", "H"} <= cols

    def test_cor12_convention(self, tmp_path):
        out = tmp_path / "traj.json"
        res = run_cli(["evolve", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--n", "1", "--t0", "1e-3", "--t1", "0.3",
                       "--convention", "cor12", "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert float(doc["summary"]["pv_residual"]) < 1e-12

    @pytest.mark.parametrize("point", [
        ["--alpha", "3", "--mu", "1", "--zeta", "-0.7", "--n", "2",
         "--t1", "0.8"],
        ["--alpha", "2", "--mu", "2", "--zeta", "0.5", "--n", "4",
         "--t1", "0.5"]])
    def test_pv_residual_where_the_flow_is_accurate(self, tmp_path, point):
        """cor12 points where the plain order-4 stencils read 3.5e-8 and
        1.8e-8 although the flow endpoint matches the determinants."""
        out = tmp_path / "traj.json"
        res = run_cli(["evolve"] + point + ["--t0", "1e-3", "--convention",
                                            "cor12", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        s = json.loads(out.read_text())["summary"]
        assert float(s["endpoint_vs_hankel_rel"]) < 1e-14
        assert float(s["pv_residual"]) < 1e-10

    def test_t_independent_weight_exits_numerical(self):
        """(alpha, zeta) = (0, 0): theta_n = -t identically, and evolve says
        so before it steps."""
        res = run_cli(["evolve", "--alpha", "0", "--mu", "2", "--zeta", "0",
                       "--n", "1", "--t0", "1e-3", "--t1", "0.3"])
        assert res.returncode == 3
        assert "does not depend on t" in res.stderr

    def test_missing_range(self):
        res = run_cli(["evolve", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--n", "1", "--t0", "1e-3"])
        assert res.returncode == 2


class TestVerify:
    def test_tiny_t_report_is_strict_json(self):
        """At t = 1e-80 the s^4 ab_flow_b_ladder record's residual and
        scale pass the float range: it fails with a note, keeps a finite
        relative residual that the flow's maximum counts, and the report
        holds no NaN or Infinity (it wrote residual and scale Infinity and
        relative NaN)."""
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "1e-80", "--nmax", "2", "--format", "json"])
        assert res.returncode == 4, res.stderr

        def refuse(token):
            raise ValueError(token)

        doc = json.loads(res.stdout, parse_constant=refuse)
        rec, = (r for r in doc["flow"]["records"]
                if r["id"] == "ab_flow_b_ladder" and r["point"].startswith(
                    "s^4") and r["n"] == 2)
        assert rec["passed"] is False and math.isfinite(rec["relative"])
        assert doc["flow"]["max_relative_residual"] >= rec["relative"]
        assert rec["note"].endswith("do not fit a finite float")

    def test_default_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0.3", "--nmax", "2", "--fast",
                       "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        rec = doc["identities"]["records"][0]
        assert {"id", "formula", "residual", "threshold", "passed"} <= set(rec)

    def test_unreachable_threshold_flags_failures(self, tmp_path):
        """At 128 bits a 1e-40 threshold is below the noise floor: exit 4."""
        out = tmp_path / "rep.json"
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0.3", "--nmax", "2", "--fast",
                       "--prec-bits", "128", "--tol", "1e-20",
                       "--threshold", "1e-40", "--out", str(out)])
        assert res.returncode == 4
        doc = json.loads(out.read_text())
        assert doc["identities"]["n_failures"] > 0


    def test_classical_limit_passes(self, tmp_path):
        """--t 0 is in the domain: the flow report keeps the two t-forms
        of the a/b laws (it exited 1 with a ZeroDivisionError)."""
        out = tmp_path / "rep.json"
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0", "--fast", "--nmax", "1",
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert {r["id"] for r in doc["flow"]["records"]} == {
            "ab_flow_a_t", "ab_flow_b_t"}

    @pytest.mark.parametrize("point", [
        ["--zeta", "0.9", "--t", "5"],
        ["--zeta", "-0.429535", "--t", "0.604487", "--nmax", "7"]])
    def test_signed_weight_writes_report(self, tmp_path, point):
        """Odd alpha with mu_0 < 0, or with a_2^2, a_3^2 < 0: the identity
        battery runs on monic data, so verify writes its report (it exited
        3 on the orthonormal normalization)."""
        out = tmp_path / "rep.json"
        res = run_cli(["verify", "--alpha", "1", "--mu", "0", "--fast",
                       "--out", str(out)] + point)
        assert res.returncode in (0, 4), res.stderr
        doc = json.loads(out.read_text())
        assert doc["identities"]["n_checks"] > 0
        assert doc["flow"]["n_checks"] == 22
        assert doc["all_passed"] is (res.returncode == 0)


    @pytest.mark.parametrize("nmax", ["0", "-2"])
    def test_no_polynomial_index_is_a_usage_error(self, nmax):
        """verify needs n >= 1: exit 2 with a message naming --nmax (it
        said "max() arg is an empty sequence")."""
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                       "--t", "0.3", "--nmax", nmax, "--fast"])
        assert res.returncode == 2
        assert f"--nmax must be at least 1, got {nmax}" in res.stderr

    def test_cancelled_minor_exits_numerical(self):
        """t within 1e-71 of a zero of Delta_3 at (1, 0, -0.429535): the
        minor loses about 72 of 77 digits, more than 60 guard bits restore
        to tol, and verify names it on the way to exit 3."""
        res = run_cli(["verify", "--alpha", "1", "--mu", "0", "--zeta",
                       "-0.429535", "--t", SIGNED_ZERO_T, "--fast"])
        assert res.returncode == 3
        assert "Delta_3" in res.stderr and "digits cancel" in res.stderr

    def test_near_unit_zeta_passes(self):
        """zeta = 1 - 1e-12 at t = 0.3: mu_3 cancels 35 bits, which exited
        3 with a false CrossCheckError at 30 fixed guard bits."""
        res = run_cli(["verify", "--alpha", "2", "--mu", "2", "--zeta",
                       "0.999999999999", "--t", "0.3", "--nmax", "3",
                       "--fast"])
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("mu", ["0", "2"])
    def test_t_independent_weight_writes_report(self, tmp_path, mu):
        """(alpha, zeta) = (0, 0) makes R_n = 0: the battery leaves out the
        records that divide by it, so verify writes a passing report and
        exits 0."""
        out = tmp_path / "rep.json"
        res = run_cli(["verify", "--alpha", "0", "--mu", mu, "--zeta", "0",
                       "--t", "0.3", "--fast", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["identities"]["n_checks"] > 0
        assert doc["all_passed"] is True


class TestPinnedOutput:
    """SHA-256 of the numeric rows (not the metadata) of desk-point
    commands, and of verify and evolve at an off-desk point: moments as printed before node lists were cached, verify as
    printed once theta_n and kappa_n were mapped from the wide minors and
    rounded once (its identity residuals moved at the rounding level) and
    once the flow laws were checked coefficient by coefficient on one jet
    table about the middle node (the flow records' points and residuals
    moved; the identity records did not), and the evolve trajectory rows
    of n = 1 prop11 (json) and n = 2 cor12 (csv), each with its summary's
    steps, endpoint_vs_hankel_rel, hamilton_flow_residual and pv_residual
    (t1 = 0.3 reaches the PV residual) pinned apart from the rows.  The
    evolve rows moved once the Taylor jets ran on integers at one scale:
    nodes and row values by 7e-31 relative at most (the last jet
    coefficient feeds the step size), endpoints by 5e-49, and
    hamilton_flow_residual at the 1e-87 level; steps,
    endpoint_vs_hankel_rel and pv_residual kept their bytes.
    Performance work keeps these output bytes; a change that moves
    rounding must update the digests and say why."""

    DESK = ["--alpha", "2", "--mu", "2", "--zeta", "0.5", "--t", "0.3"]
    SUMMARY = ("steps", "endpoint_vs_hankel_rel", "hamilton_flow_residual",
               "pv_residual")

    @staticmethod
    def digest(rows):
        return hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest()

    def summary_digest(self, summary):
        return self.digest({k: summary[k] for k in self.SUMMARY})

    def test_moments(self, tmp_path):
        out = tmp_path / "m.json"
        res = run_cli(["moments"] + self.DESK + ["--kmax", "12",
                                                 "--out", str(out)])
        assert res.returncode == 0, res.stderr
        assert self.digest(json.loads(out.read_text())["moments"]) == (
            "a46b492abd6516146309074c8955d9a6e4ee08b66efd1581717b31e1a7fa5171")

    def test_verify_full_battery(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli(["verify"] + self.DESK + ["--out", str(out)])
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        rows = {"identities": doc["identities"]["records"],
                "flow": doc["flow"]["records"]}
        assert self.digest(rows) == (
            "62c9a10ca17fd78699bc5f242497c7ec023d7554f90039156d346b48aa58eeda")

    def test_evolve_prop11_json(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli(["evolve"] + self.DESK[:-2] + [
            "--n", "1", "--t0", "1e-3", "--t1", "0.3", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert self.digest(doc["trajectory"]) == (
            "dae0bcf762c6060f3cc43393d34b8227d4a6701bd1c6047666feb021c1667cf2")
        assert self.summary_digest(doc["summary"]) == (
            "8d5dfc66fdf3ba80ccd9cbf5fb3cbb0d05a48b0a50f622e5c0f79bac75712769")

    def test_evolve_cor12_csv(self, tmp_path):
        out = tmp_path / "e.csv"
        res = run_cli(["evolve"] + self.DESK[:-2] + [
            "--n", "2", "--t0", "1e-3", "--t1", "0.3", "--convention",
            "cor12", "--format", "csv", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        rows = [line for line in lines if not line.startswith("# summary")]
        assert self.digest(rows) == (
            "04138104cc3171d102a0a351bda29df5b47235c5787317c39029da3aafd514e7")
        summary, = (json.loads(line.split(": ", 1)[1]) for line in lines
                    if line.startswith("# summary"))
        assert self.summary_digest(summary) == (
            "06f8a6183877896d0cd030c1208efd7d778bda53edbf150c0327cea53d9c0dc4")

    # odd alpha and a signed weight, which the desk point reaches neither
    # of: every quadrature check and the flow at n = 2
    OFF_DESK = ["--alpha", "3", "--mu", "1", "--zeta", "-0.7", "--t", "2"]

    def test_verify_full_battery_off_desk(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli(["verify"] + self.OFF_DESK + ["--out", str(out)])
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        rows = {"identities": doc["identities"]["records"],
                "flow": doc["flow"]["records"]}
        assert self.digest(rows) == (
            "d686a2f9f0ef3f0e575e688b44d799b9a2eb924ec8b681c599f7ede68f0fa6e8")

    def test_evolve_off_desk(self, tmp_path):
        out = tmp_path / "e.json"
        res = run_cli(["evolve"] + self.OFF_DESK[:-2] + [
            "--n", "2", "--t0", "1e-3", "--t1", "0.5", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert self.digest(doc["trajectory"]) == (
            "58675c98061319b92bf3e4fecc458bb96499520f92657b3577e1cc2e286a4590")
        assert self.summary_digest(doc["summary"]) == (
            "7d9bce2fbc7c0e5677837546f7f14d4e32fc8973a424302277f30ed36319d54d")


class TestInProcess:
    def test_main_returns_usage_code(self, capsys):
        assert main(["moments", "--alpha", "2", "--mu", "2",
                     "--zeta", "0.5"]) == 2

    def test_main_moment_stdout(self, capsys):
        assert main(["moments", "--alpha", "2", "--mu", "2", "--zeta", "0.5",
                     "--t", "0", "--kmax", "0", "--format", "csv"]) == 0
        assert "12.0" in capsys.readouterr().out


class TestPackaging:
    def test_import_pulls_in_mpmath_only(self):
        """numpy and sympy stay out of a plain import of the package."""
        code = ("import sys, dlaguerre; "
                "print(sorted({'numpy', 'sympy'} & set(sys.modules)))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=checkout_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"


class TestOneOwnerPerDecision:
    """argparse types each flag and holds its one default; the library
    validates the values.  Every bad input exits 2 naming the parameter."""

    DESK = ["--alpha", "2", "--mu", "2", "--zeta", "0.5"]

    @pytest.mark.parametrize("args, names", [
        (["evolve", "--t0", "1e-3", "--t1", "0.01", "--max-rows", "0"],
         "--max-rows must be at least 1, got 0"),
        (["evolve", "--t0", "1e-3", "--t1", "0.01", "--ode-tol=-1e-18"],
         "rtol"),
        (["evolve", "--t0", "1e-3", "--t1", "0.01", "--ode-tol", "0"],
         "rtol"),
        (["evolve", "--n", "-1", "--t0", "1e-3", "--t1", "0.01"],
         "n must be >= 0"),
        (["evolve", "--t0", "0.1", "--t1", "0.01"], "t0 <= t1"),
        (["verify", "--t", "0.3", "--format", "csv"], "--format"),
        (["moments", "--t", "0.3", "--kmax", "2.5"], "--kmax")])
    def test_bad_flag_exits_usage(self, args, names):
        """--max-rows 0 raised ZeroDivisionError, --ode-tol <= 0 a TypeError
        or ValueError (exit 1), and verify --format csv wrote JSON."""
        res = run_cli(args[:1] + self.DESK + args[1:])
        assert res.returncode == 2, res.stderr
        assert names in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("mu", ["1e30", "1e400"])
    def test_closed_form_past_factorial_range(self, mu):
        """k + alpha + mu > sys.maxsize: OverflowError from math.factorial
        (exit 1) at 1e30; 1e400 overflowed the float that parsed it."""
        res = run_cli(["moments", "--alpha", "2", "--mu", mu, "--zeta", "0.5",
                       "--t", "0.3", "--kmax", "1"])
        assert res.returncode == 2, res.stderr
        assert "k + alpha + mu" in res.stderr
        assert "Traceback" not in res.stderr

    def test_integer_valued_alpha_spelling(self, tmp_path, capsys):
        """--alpha 2.0 is the integer 2, as for --mu (it exited 2)."""
        outs = []
        for alpha in ("2", "2.0"):
            out = tmp_path / f"m{alpha}.json"
            assert main(["moments", "--alpha", alpha, "--mu", "2", "--zeta",
                         "0.5", "--t", "0.3", "--kmax", "2",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_values_arrive_typed(self, tmp_path, monkeypatch):
        """The file's lines are parsed as flags: typed, a bare key is a
        switch, and a command-line flag beats the file."""
        seen = {}
        monkeypatch.setattr("dlaguerre.cli.cmd_evolve",
                            lambda args: seen.update(vars(args)) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_rows = 5\nn = 2\nprec-bits = 128\nstamp\n")
        assert main(["evolve", "--config", str(cfg), "--n", "3"]) == 0
        assert (seen["max_rows"], seen["n"], seen["prec_bits"],
                seen["stamp"]) == (5, 3, 128, True)

    def test_config_typed_and_flag_wins(self, tmp_path, capsys):
        """The file's values replace the built-in defaults, those of flags
        with a default too (format = csv was ignored, as were threshold,
        convention, ode_tol and max_rows), and a flag beats the file in
        any spelling: --t=0, or --form for --format."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2\nmu = 2\nzeta = 0.5\nt = 0.3\nkmax = 1\n"
                       "prec_bits = 128\nformat = csv\n")
        assert main(["moments", "--config", str(cfg), "--t=0"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [float(row["closed_form"]) for row in rows] == [12, 60]
        out = tmp_path / "m.json"
        assert main(["moments", "--config", str(cfg), "--t=0", "--form",
                     "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["prec_bits"] == 128
        assert doc["params"]["t"] == "0"
        assert [row["closed_form"] for row in doc["moments"]] == [
            row["closed_form"] for row in rows]

    def test_precedence(self, tmp_path):
        """flag > config file > DLL_PREC_BITS > 256."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("prec_bits = 160\n")
        base = ["moments", "--alpha", "2", "--mu", "1", "--zeta", "0",
                "--t", "0.3", "--kmax", "0"]
        env = {"DLL_PREC_BITS": "128"}
        for extra, env_extra, bits in [
                ([], None, 256), ([], env, 128),
                (["--config", str(cfg)], env, 160),
                (["--config", str(cfg), "--prec-bits", "192"], env, 192)]:
            res = run_cli(base + extra, env_extra=env_extra)
            assert res.returncode == 0, res.stderr
            assert json.loads(res.stdout)["metadata"]["prec_bits"] == bits

    @pytest.mark.parametrize("command, text, message", [
        ("moments", "nmax = 2\n", "unknown config key: nmax"),
        ("moments", "func = print\n", "unknown config key: func"),
        ("moments", "kmax = many\n", "argument --kmax"),
        ("moments", "kmax\n", "argument --kmax"),
        ("moments", "format = xml\n", "argument --format"),
        ("moments", "stamp = false\n", "argument --stamp"),
        ("verify", "format = csv\n", "argument --format"),
        ("verify", "fast = false\n", "argument --fast")])
    def test_bad_config_exits_usage(self, tmp_path, capsys, command, text,
                                    message):
        """A file's value is checked as the flag's would be: a choice
        outside the flag's, or a value given to a switch, exits 2 (as
        defaults, format = csv made verify write JSON and fast = false or
        stamp = false turned the switch on)."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)] + self.DESK
                    + ["--t", "0.3"]) == 2
        assert message in capsys.readouterr().err


class TestRefusedInputs:
    """Inputs the program cannot use exit 2 with a message and the usage
    line, quickly and with no traceback."""

    MOMENTS = ["moments", "--zeta", "0.5", "--t", "0.3", "--kmax", "1"]

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_missing_path_exits_usage(self, tmp_path, flag):
        """A --config file that does not exist, or an --out path in a
        directory that does not exist, escaped as a FileNotFoundError
        traceback (exit 1)."""
        path = tmp_path / "absent" / "run.cfg"
        res = run_cli(self.MOMENTS + ["--alpha", "2", "--mu", "2", flag,
                                      str(path)])
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ")
        assert str(path.parent) in res.stderr
        assert "usage: dlaguerre" in res.stderr
        assert "Traceback" not in res.stderr
        assert not path.parent.exists()

    @pytest.mark.parametrize("alpha, mu", [
        ("2", "1e12"), ("100000000", "2"), ("0", "10000")])
    def test_closed_form_size_bound_exits_fast(self, alpha, mu):
        """k + alpha + mu past the closed form's bound is refused before
        any factorial: --mu 1e12 and --alpha 1e8 ran past 10 s, --mu 10000
        took 41 s."""
        res = run_cli(self.MOMENTS + ["--alpha", alpha, "--mu", mu],
                      timeout=10)
        assert res.returncode == 2, res.stderr
        assert "k + alpha + mu <= 2048" in res.stderr
        assert "Traceback" not in res.stderr
