import contextlib
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsteer import cli, monogamy, randgen, steering
from qsteer.randgen import RandomStateSpec, random_state
from qsteer.states import ghz_state, state_from_payload, state_to_payload, validate_state
from qsteer.steering import steering_report

from conftest import recipe_spectrum


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps(state_to_payload(ghz_state(np.pi / 4))))
    return path


class TestParseAngle:
    @pytest.mark.parametrize("text,expect", [
        ("pi", np.pi),
        ("pi/4", np.pi / 4),
        ("3pi/8", 3 * np.pi / 8),
        ("-pi/3", -np.pi / 3),
        ("2*pi/5", 2 * np.pi / 5),
        ("0.5", 0.5),
        ("1e-3", 1e-3),
        (".5pi", np.pi / 2),
        ("-.25pi", -np.pi / 4),
        ("pi/.5", 2 * np.pi),
        ("1e-3pi", 1e-3 * np.pi),
        ("2.5e0*pi", 2.5 * np.pi),
        ("pi/1e1", np.pi / 10),
        ("-1E-3*PI/2", -1e-3 * np.pi / 2),
    ])
    def test_accepted(self, text, expect):
        assert cli.parse_angle(text) == pytest.approx(expect, abs=0)

    def test_rejected(self):
        import argparse
        for text in ("three pies", "pi/0"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_angle(text)


class TestAnalyze:
    def test_ghz_report(self, ghz_file, capsys):
        code, out, _ = run_cli(["analyze", str(ghz_file)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["s_a_bc"] == pytest.approx(0.6339746, abs=1e-7)
        assert abs(report["h_a_bc"] - (1.5 - 0.75 ** 0.5)) <= 1e-12
        assert report["classification"] == "corollary2"

    def test_product_state_all_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(state_to_payload(np.eye(8)[0])))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        for key in ("s_a_bc", "s_ab", "s_ac", "s_bc", "s_tot"):
            assert report[key] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["analyze", str(path)], capsys)[0] == 1

    def test_deeply_nested_json_exit_1(self, tmp_path, capsys):
        # json.loads gives up on 10^5 nested lists with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"qubits": 3, "kind": "mixed", "matrix": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: cannot parse state file")

    def test_wrong_dimension_exit_1(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"qubits": 3, "kind": "pure", "amplitudes": [[1, 0]] * 5}))
        assert run_cli(["analyze", str(path)], capsys)[0] == 1

    @pytest.mark.parametrize("payload", [
        {"qubits": 3, "kind": "mixed", "matrix": list(range(8))},
        {"qubits": 3, "kind": "mixed", "matrix": [[[0.0, 0.0]] * 8] * 7 + [[[0.0, 0.0]] * 7 + [7]]},
        {"qubits": True, "kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        # np.array reads true beside numbers as 1: each would analyze as |000>
        {"qubits": 3, "kind": "pure", "amplitudes": [[True, 0]] + [[0, 0]] * 7},
        {"qubits": 3, "kind": "mixed", "matrix": [[[1.0, False]] + [[0.0, 0.0]] * 7] + [[[0.0, 0.0]] * 8] * 7},
        {"qubits": 1, "kind": "pure", "amplitudes": [["1.0", 0.0], [0.0, 0.0]]},
    ], ids=["non-list-rows", "non-pair-entry", "bool-qubits", "bool-amplitude", "bool-matrix-entry",
            "string-number"])
    def test_malformed_payload_exit_1(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert err.startswith("error: cannot parse state file")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_non_finite_payload_exit_1(self, tmp_path, capsys, kind, bad):
        payload = state_to_payload(ghz_state(np.pi / 4))
        if kind == "mixed":
            payload = state_to_payload(state_from_payload(payload))
            payload["matrix"][7][0][0] = bad
        else:
            payload["amplitudes"][7][1] = bad
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(payload))  # writes NaN / Infinity / -Infinity tokens
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 1
        assert "non-finite" in err

    def test_non_object_payload_exit_1(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: cannot parse state file: state payload must be a JSON object\n"

    def test_invalid_state_exit_2(self, tmp_path, capsys):
        payload = state_to_payload(ghz_state(np.pi / 4))
        payload["amplitudes"][0] = [3.0, 0.0]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["analyze", str(path)], capsys)[0] == 2

    def test_two_qubit_state_rejected_for_analysis(self, tmp_path, capsys):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(state_to_payload(bell)))
        assert run_cli(["analyze", str(path)], capsys)[0] == 2

    def test_loose_profile_accepts_rougher_state(self, tmp_path, capsys):
        payload = state_to_payload(ghz_state(np.pi / 4))
        payload["amplitudes"][0][0] += 3e-10  # trace off by ~4e-10
        path = tmp_path / "rough.json"
        path.write_text(json.dumps(payload))
        assert run_cli(["analyze", str(path)], capsys)[0] == 2
        code, _, _ = run_cli(["analyze", str(path), "--tolerance-profile", "loose"], capsys)
        assert code == 0

    @staticmethod
    def _skew_file(tmp_path, eps):
        """GHZ(pi/4) plus an anti-Hermitian part eps * i on every off-diagonal entry,
        a Hermiticity residual of 2 eps."""
        psi = ghz_state(np.pi / 4)
        rho = np.outer(psi, psi) + eps * 1j * (np.ones((8, 8)) - np.eye(8))
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(state_to_payload(rho)))
        return state_from_payload(json.loads(path.read_text())), path

    def test_loose_profile_reports_hermitian_part(self, tmp_path, capsys):
        # an anti-Hermitian part of 1e-10 passes the loose validation but would
        # add up to 4e-10 in the imaginary part of a Pauli trace; the report is
        # that of the state's Hermitian part
        rho, path = self._skew_file(tmp_path, 1e-10)
        code, out, err = run_cli(["analyze", str(path), "--tolerance-profile", "loose"], capsys)
        assert (code, err) == (0, "")
        assert out == json.dumps(steering_report((rho + rho.conj().T) / 2).to_dict(), indent=2) + "\n"
        assert len(json.loads(out)) == 14

    def test_loose_profile_rejects_larger_skew(self, tmp_path, capsys):
        # stderr is one line: the prefix, then validate_state's five keys in order
        rho, path = self._skew_file(tmp_path, 1e-8)
        code, out, err = run_cli(["analyze", str(path), "--tolerance-profile", "loose"], capsys)
        assert (code, out) == (2, "")
        prefix = "error: invalid state: "
        [line] = err.splitlines()
        assert line.startswith(prefix)
        diag = json.loads(line[len(prefix):])
        assert list(diag) == ["dim", "hermiticity_residual", "trace_residual", "min_eigenvalue", "passed"]
        assert diag["dim"] == 8 and diag["passed"] is False
        assert diag == validate_state(rho, "loose")

    def test_default_profile_skew_at_herm_tol(self, tmp_path, capsys):
        # a residual of exactly HERM_TOL passes validation, and the Pauli traces'
        # imaginary parts (4e-12) stay within the kernel's limit, unprojected
        rho, path = self._skew_file(tmp_path, 5e-13)
        assert validate_state(rho)["hermiticity_residual"] == 1e-12
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert (code, err) == (0, "")
        assert out == json.dumps(steering_report(rho).to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("eps,profile,code", [
        (5e-13, "default", 0), (5e-13, "strict", 2), (1e-14, "strict", 0),
    ])
    def test_strict_profile(self, tmp_path, capsys, eps, profile, code):
        # strict holds the Hermiticity residual to 1e-13: the default profile's
        # limit of 1e-12 is rejected, a residual of 2e-14 passes
        _, path = self._skew_file(tmp_path, eps)
        got, out, err = run_cli(["analyze", str(path), "--tolerance-profile", profile], capsys)
        assert got == code
        assert (err == "") if code == 0 else (out == "" and err.startswith("error: invalid state: {"))

    def test_all_flags_report(self, tmp_path, capsys):
        # a state as random writes it: every key of the three flags, the bytes
        # of steering_report, and each 1->2 norm equal to its 2->1 transpose's
        assert run_cli(["random", "--count", "1", "--mode", "mixed", "--seed", "3",
                        "--out", str(tmp_path / "st")], capsys)[0] == 0
        path = tmp_path / "st" / "state_00000.json"
        code, out, err = run_cli(["analyze", str(path), "--all-cuts", "--two-to-one", "--reverse-pairs"], capsys)
        assert (code, err) == (0, "")
        rho = state_from_payload(json.loads(path.read_text()))
        assert out == json.dumps(steering_report(rho, True, True, True).to_dict(), indent=2) + "\n"
        r = json.loads(out)
        assert len(r) == 37
        assert r["margin"] == r["s_a_bc"] - r["h_tot"]
        assert (r["norm_bc_to_a"], r["norm_ca_to_b"], r["norm_ab_to_c"]) == (
            r["norm_a_bc"], r["norm_b_to_ca"], r["norm_c_to_ab"])

    def test_product_state_all_flags_exact_zero(self, tmp_path, capsys):
        # GHZ(0) = |111>: every one of the 37 values is +0.0, none -0.0 or a rounding residue
        path = tmp_path / "product.json"
        path.write_text(json.dumps(state_to_payload(ghz_state(0.0))))
        code, out, _ = run_cli(["analyze", str(path), "--all-cuts", "--two-to-one", "--reverse-pairs"], capsys)
        assert code == 0
        r = json.loads(out)
        assert len(r) == 37 and r.pop("classification") == "corollary1"
        assert {repr(v) for v in r.values()} == {"0.0"}

    def test_near_pure_band_state(self, tmp_path, capsys):
        # |0>_A x a pair 1e-13 from pure: the pair's deficit (2e-13) is above
        # DEFICIT_FLOOR, so the A|BC bound keeps its square root, sqrt(2e-13)
        # ~ 4.5e-7 > 0, and H is that far below 0
        e = 1e-13
        chi, chi2 = np.array([1, 0, 0, 1]) / 2 ** 0.5, np.array([0, 1, 1, 0]) / 2 ** 0.5
        pair = (1 - e) * np.outer(chi, chi) + e * np.outer(chi2, chi2)
        path = tmp_path / "band.json"
        path.write_text(json.dumps(state_to_payload(np.kron(np.diag([1.0, 0.0]), pair))))
        code, out, _ = run_cli(["analyze", str(path), "--all-cuts"], capsys)
        assert code == 0
        r = json.loads(out)
        assert r["s_a_bc"] == 0.0 and r["bound_a_bc"] > 0

    def test_out_flag_rejected(self, ghz_file, tmp_path):
        # the report goes to stdout; an --out that wrote nothing would mislead
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(ghz_file), "--out", str(out)])
        assert exc.value.code == 1
        assert not out.exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no-command"),
        pytest.param(["nonsense"], id="unknown-command"),
        pytest.param(["sweep", "--family", "ghz", "--start", "0", "--stop", "1"], id="missing-required"),
        pytest.param(["sweep", "--family", "ghz", "--start", "0", "--stop", "1", "--points", "x"], id="bad-int"),
        pytest.param(["sweep", "--family", "ghz", "--start", "pi/0", "--stop", "1", "--points", "3"], id="bad-angle"),
        pytest.param(["montecarlo", "--mode", "both"], id="bad-choice"),
    ])
    def test_usage_errors_exit_1(self, argv, capsys):
        # the top-level parser and every subcommand's parser: a rejected argument, not an invalid state
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: qsteer") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["verify-appendix", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qsteer")


class TestSweep:
    def test_ghz_grid(self, tmp_path, capsys):
        out_file = tmp_path / "ghz.csv"
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start", "0", "--stop", "pi/2",
                              "--points", "1001", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "param,h_a_bc,s_a_bc,h_ab,h_ac,h_bc,h_tot"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 1001
        mid = [float(v) for v in rows[500][:7]]  # theta = pi/4
        assert mid[0] == pytest.approx(np.pi / 4)
        assert abs(mid[1] - (1.5 - 0.75 ** 0.5)) <= 1e-12
        assert mid[2] == pytest.approx(0.6339746, abs=1e-7)
        assert mid[3] == pytest.approx(-0.3660254, abs=1e-7)
        for row in rows:  # h_tot is the sum of the printed pair values, in order
            h_ab, h_ac, h_bc, h_tot = map(float, row[3:7])
            assert h_tot == (h_ab + h_ac) + h_bc
        first = [float(v) for v in rows[0][:7]]  # theta = 0, separable
        assert first[2] == 0.0
        assert all(v <= 1e-12 for v in first[1:])

    def test_round_trip_reconstruction(self, tmp_path, capsys):
        out_file = tmp_path / "ghz.csv"
        run_cli(["sweep", "--family", "ghz", "--start", "0.1", "--stop", "1.4",
                 "--points", "7", "--out", str(out_file)], capsys)
        for line in out_file.read_text().strip().splitlines()[1:]:
            vals = dict(zip("param,h_a_bc,s_a_bc,h_ab,h_ac,h_bc,h_tot".split(","),
                            (float(v) for v in line.split(","))))
            assert vals["s_a_bc"] == max(vals["h_a_bc"], 0.0)
            assert vals["h_tot"] == (vals["h_ab"] + vals["h_ac"]) + vals["h_bc"]

    def test_w_family_at_half_pi(self, tmp_path, capsys):
        out_file = tmp_path / "w.csv"
        code, _, _ = run_cli(["sweep", "--family", "w", "--theta", "pi/3", "--start", "0",
                              "--stop", "pi", "--points", "5", "--out", str(out_file)], capsys)
        assert code == 0
        row = out_file.read_text().strip().splitlines()[3].split(",")  # alpha = pi/2
        vals = dict(zip("param,h_a_bc,s_a_bc,h_ab,h_ac,h_bc,h_tot".split(","),
                        (float(v) for v in row)))
        assert vals["param"] == pytest.approx(np.pi / 2)
        for key in ("h_ab", "h_ac", "h_bc"):
            assert vals[key] >= -1e-12
        s_tot = sum(max(vals[k], 0.0) for k in ("h_ab", "h_ac", "h_bc"))
        assert vals["s_a_bc"] >= s_tot - 1e-12  # equality point up to rounding

    def test_stdout_when_no_out(self, capsys, monkeypatch):
        monkeypatch.delenv("QSTEER_OUT_DIR", raising=False)
        code, out, _ = run_cli(["sweep", "--family", "ghz", "--start", "0", "--stop", "1",
                                "--points", "2"], capsys)
        assert code == 0
        assert out.startswith("param,")

    def test_env_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSTEER_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start", "0", "--stop", "1",
                              "--points", "2", "--out", "sub/grid.csv"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "grid.csv").exists()

    def test_too_few_points(self, capsys):
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start", "0", "--stop", "1",
                              "--points", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("bad", ["nan", "1e400", "inf"])
    def test_non_finite_theta_exit_1(self, bad, capsys):
        code, out, err = run_cli(["sweep", "--family", "w", "--theta", bad, "--start", "0",
                                  "--stop", "1", "--points", "3"], capsys)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_non_finite_span_exit_1(self, capsys):
        # both ends are finite, but stop - start overflows: nothing is written
        # and no overflow warning reaches the user
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["sweep", "--family", "ghz", "--start=-1e308", "--stop=1e308",
                                      "--points", "3"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: --start, --stop, their span and --theta must be finite\n"

    def test_negative_angles_in_equals_form(self, tmp_path, capsys):
        # argparse takes -pi/3 and -1e-3 after a space for options; after = they are values
        out_file = tmp_path / "neg.csv"
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start=-pi/3", "--stop=-1e-3",
                              "--points", "2", "--out", str(out_file)], capsys)
        assert code == 0
        params = [float(line.split(",")[0]) for line in out_file.read_text().splitlines()[1:]]
        assert np.array(params).tobytes() == np.array([-np.pi / 3, -1e-3]).tobytes()
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "ghz", "--start", "-pi/3", "--stop", "0", "--points", "2"])
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_exponent_angles_are_exact_end_points(self, tmp_path, capsys):
        out_file = tmp_path / "exp.csv"
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start", "1e-3pi", "--stop", "pi/1e1",
                              "--points", "3", "--out", str(out_file)], capsys)
        assert code == 0
        param = [float(line.split(",")[0]) for line in out_file.read_text().splitlines()[1:]]
        assert len(param) == 3 and (param[0], param[-1]) == (1e-3 * math.pi, math.pi / 10)

    def test_grid_is_built_one_chunk_at_a_time(self, tmp_path, monkeypatch):
        # 2^40 points would be an 8 TiB np.linspace grid; the first chunk's
        # states reach the steering kernel without it
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(steering, "steering_batch", reached)
        out = tmp_path / "huge.csv"
        with pytest.raises(Reached):
            cli.main(["sweep", "--family", "ghz", "--start", "0", "--stop", "1",
                      "--points", str(2**40), "--out", str(out)])
        assert out.read_text() == "param,h_a_bc,s_a_bc,h_ab,h_ac,h_bc,h_tot\n"

    @pytest.mark.parametrize("start,stop,points", [("0", "1e-323", 1000), ("1", "1", 3)])
    def test_zero_step_grid(self, tmp_path, capsys, start, stop, points):
        # the step underflows to 0 (or is 0), so the grid is index / (points - 1)
        # times (stop - start), as np.linspace takes it
        assert (float(stop) - float(start)) / (points - 1) == 0.0
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(["sweep", "--family", "ghz", "--start", start, "--stop", stop,
                              "--points", str(points), "--out", str(out_file)], capsys)
        assert code == 0
        param = [float(line.split(",")[0]) for line in out_file.read_text().splitlines()[1:]]
        assert np.array(param).tobytes() == np.linspace(float(start), float(stop), points).tobytes()

    @pytest.mark.parametrize("family", ["ghz", "w"])
    def test_chunking_does_not_change_output(self, tmp_path, capsys, monkeypatch, family):
        # chunks of 7 give the same bytes as chunks of CHUNK, and the grid is
        # np.linspace's, bit for bit
        argv = ["sweep", "--family", family, "--start", "0", "--stop", "pi/2", "--points", "1001"]
        chunked, small = tmp_path / "chunked.csv", tmp_path / "small.csv"
        run_cli(argv + ["--out", str(chunked)], capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "CHUNK", 7)
            run_cli(argv + ["--out", str(small)], capsys)
        assert chunked.read_bytes() == small.read_bytes()
        param = [float(line.split(",")[0]) for line in chunked.read_text().splitlines()[1:]]
        assert np.array_equal(param, np.linspace(0.0, np.pi / 2, 1001))


class TestMonteCarlo:
    def test_deterministic_and_monogamous(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        code, summary1, _ = run_cli(["montecarlo", "--count", "200", "--seed", "9",
                                     "--out", str(out1)], capsys)
        assert code == 0
        run_cli(["montecarlo", "--count", "200", "--seed", "9", "--out", str(out2)], capsys)
        assert out1.read_bytes() == out2.read_bytes()
        s = json.loads(summary1)
        assert s["violations"] == 0
        assert s["min_margin"] >= -1e-9
        assert sum(s["counts"].values()) == 200

    def test_summary_reports_throughput(self, tmp_path, capsys):
        code, summary, _ = run_cli(["montecarlo", "--count", "50", "--seed", "2",
                                    "--out", str(tmp_path / "mc.csv")], capsys)
        s = json.loads(summary)
        assert code == 0
        assert list(s) == ["count", "mode", "seed", "filter", "generator", "counts", "rows_written",
                           "min_margin", "violations", "csv", "elapsed_s", "states_per_s"]
        assert s["elapsed_s"] > 0
        assert s["states_per_s"] == 50 / s["elapsed_s"]

    def test_chunking_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        count = 2 * cli.CHUNK + 37  # two full chunks and a partial one
        for mode in ("pure", "mixed"):
            argv = ["montecarlo", "--count", str(count), "--seed", "4", "--mode", mode]
            chunked, single = tmp_path / f"{mode}-chunked.csv", tmp_path / f"{mode}-single.csv"
            run_cli(argv + ["--out", str(chunked)], capsys)
            with monkeypatch.context() as m:
                m.setattr(cli, "CHUNK", 1)
                run_cli(argv + ["--out", str(single)], capsys)
            assert chunked.read_bytes() == single.read_bytes()

            lines = chunked.read_text().strip().splitlines()
            header = lines[0].split(",")
            spec = RandomStateSpec(seed=4, mode=mode, count=count)
            assert len(lines) == count + 1
            for i, line in enumerate(lines[1:]):
                d = steering_report(random_state(spec, i), validate=False).to_dict()
                expect = [str(i)] + [format(d[k], ".17g") for k in header[1:-1]] + [d["classification"]]
                assert line.split(",") == expect

    def test_corollary_filters(self, tmp_path, capsys):
        out = tmp_path / "c1.csv"
        run_cli(["montecarlo", "--count", "800", "--seed", "1", "--filter", "corollary1",
                 "--out", str(out)], capsys)
        rows = out.read_text().strip().splitlines()[1:]
        cols = "index,s_a_bc,h_ab,h_ac,h_bc,s_ab,s_ac,s_bc,h_tot,s_tot,margin,classification".split(",")
        for line in rows:
            vals = dict(zip(cols, line.split(",")))
            assert vals["classification"] == "corollary1"
            assert float(vals["s_a_bc"]) >= float(vals["s_tot"]) - 1e-9
            # totals and margin re-derive from stored columns exactly
            assert float(vals["margin"]) == float(vals["s_a_bc"]) - float(vals["h_tot"])
            assert float(vals["h_tot"]) == (float(vals["h_ab"]) + float(vals["h_ac"])) + float(vals["h_bc"])
            assert float(vals["s_tot"]) == (float(vals["s_ab"]) + float(vals["s_ac"])) + float(vals["s_bc"])

        out2 = tmp_path / "c2.csv"
        run_cli(["montecarlo", "--count", "400", "--seed", "1", "--filter", "corollary2",
                 "--out", str(out2)], capsys)
        rows = out2.read_text().strip().splitlines()[1:]
        assert rows  # this class dominates the ensemble
        for line in rows:
            vals = dict(zip(cols, line.split(",")))
            assert float(vals["s_tot"]) == 0.0
            assert float(vals["s_a_bc"]) >= 0.0

    def test_mixed_mode(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        code, summary, _ = run_cli(["montecarlo", "--count", "50", "--seed", "2",
                                    "--mode", "mixed", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(summary)["mode"] == "mixed"

    def test_bad_count(self, tmp_path, capsys):
        code, _, _ = run_cli(["montecarlo", "--count", "0", "--out", str(tmp_path / "x.csv")],
                             capsys)
        assert code == 1


def _loop_payload(seed, mode, index):
    """One state's payload from the recipe written out in conftest."""
    lams, vecs = recipe_spectrum(seed, mode, index)
    if mode == "pure":
        return state_to_payload(vecs[:, 0])
    return state_to_payload((vecs * lams) @ vecs.conj().T)


class TestRandom:
    @pytest.mark.parametrize("mode", ["pure", "mixed"])
    def test_batched_files_match_index_loop(self, tmp_path, capsys, mode):
        seed, count = 2**31 + 1, cli.CHUNK + 44  # a full chunk and a partial one
        expect = [json.dumps(_loop_payload(seed, mode, i)) for i in range(count)]
        argv = ["random", "--count", str(count), "--mode", mode, "--seed", str(seed)]
        assert run_cli(argv + ["--jsonl", "--out", str(tmp_path / "s.jsonl")], capsys)[0] == 0
        assert (tmp_path / "s.jsonl").read_text().splitlines()[1:] == expect
        assert run_cli(argv + ["--out", str(tmp_path / "d")], capsys)[0] == 0
        assert [(tmp_path / "d" / f"state_{i:05d}.json").read_text() for i in range(count)] == expect

    def test_pure_files(self, tmp_path, capsys):
        code, _, _ = run_cli(["random", "--count", "4", "--seed", "6",
                              "--out", str(tmp_path / "states")], capsys)
        assert code == 0
        meta = json.loads((tmp_path / "states" / "metadata.json").read_text())
        assert meta == {"seed": 6, "mode": "pure", "count": 4,
                        "generator": "pcg64-seedseq-spawn", "cascade_variant": "verbatim"}
        for i in range(4):
            payload = json.loads((tmp_path / "states" / f"state_{i:05d}.json").read_text())
            rho = state_from_payload(payload)
            assert validate_state(rho)["passed"]
            assert np.linalg.eigvalsh(rho)[-2] < 1e-10  # rank one

    def test_mixed_files_unit_eigenvalue_sum(self, tmp_path, capsys):
        run_cli(["random", "--count", "3", "--mode", "mixed", "--seed", "6",
                 "--out", str(tmp_path / "m")], capsys)
        for i in range(3):
            payload = json.loads((tmp_path / "m" / f"state_{i:05d}.json").read_text())
            lam = np.linalg.eigvalsh(state_from_payload(payload))
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_identical(self, tmp_path, capsys):
        run_cli(["random", "--count", "2", "--seed", "8", "--out", str(tmp_path / "r1")], capsys)
        run_cli(["random", "--count", "2", "--seed", "8", "--out", str(tmp_path / "r2")], capsys)
        for i in range(2):
            a = (tmp_path / "r1" / f"state_{i:05d}.json").read_bytes()
            b = (tmp_path / "r2" / f"state_{i:05d}.json").read_bytes()
            assert a == b

    def test_jsonl_stream(self, tmp_path, capsys):
        code, _, _ = run_cli(["random", "--count", "3", "--seed", "5", "--jsonl",
                              "--out", str(tmp_path / "batch.jsonl")], capsys)
        assert code == 0
        lines = (tmp_path / "batch.jsonl").read_text().strip().splitlines()
        assert len(lines) == 4
        assert json.loads(lines[0])["meta"]["seed"] == 5
        for line in lines[1:]:
            assert validate_state(state_from_payload(json.loads(line)))["passed"]

    def test_analyze_accepts_emitted_state(self, tmp_path, capsys):
        run_cli(["random", "--count", "1", "--seed", "13", "--out", str(tmp_path / "s")], capsys)
        code, out, _ = run_cli(["analyze", str(tmp_path / "s" / "state_00000.json")], capsys)
        assert code == 0
        assert json.loads(out)["margin"] >= -1e-9


_WRITERS = {
    "sweep": ["sweep", "--family", "ghz", "--start", "0", "--stop", "1", "--points", "3"],
    "montecarlo": ["montecarlo", "--count", "2"],
    "verify-appendix": ["verify-appendix", "--starts", "2", "--face-starts", "0", "--samples", "16"],
    "random-jsonl": ["random", "--count", "2", "--jsonl"],
    "random": ["random", "--count", "2"],
}


def _full_device(at_close: bool):
    """cli's open for a file on a full disk: each write, or with
    at_close only the close, raises ENOSPC naming no file, as a real one does."""
    def fail():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class FullDevice(io.StringIO):
        def write(self, text):
            return super().write(text) if at_close else fail()

        def close(self):
            if not self.closed:
                super().close()
                if at_close:
                    fail()

    return lambda path, *args, **kwargs: FullDevice()


@pytest.mark.parametrize("blocked", ["directory", "under-file", "full-at-write", "full-at-close"])
@pytest.mark.parametrize("writer", list(_WRITERS))
def test_unwritable_out_exits_1(tmp_path, capsys, monkeypatch, writer, blocked):
    # a directory where a file is to be written (for random's directory mode,
    # its second state file), a path under a regular file, or a full disk:
    # exit 1 with one error line, no traceback and nothing on stdout. Every
    # other writer opens its output before it computes anything; random's
    # directory mode writes its state files as it goes and metadata.json
    # last, so a cut set has none
    def started(*args, **kwargs):
        raise AssertionError(f"{writer} computed before opening its output")

    if writer != "random" and not blocked.startswith("full"):
        for module, name in [(monogamy, "minimize_f"), (monogamy, "verify_monogamy"),
                             (randgen, "random_state_batch"), (randgen, "random_pure_batch"),
                             (steering, "steering_batch")]:
            monkeypatch.setattr(module, name, started)
    if blocked == "directory":
        out = tmp_path / "taken"
        (out / "state_00001.json" if writer == "random" else out).mkdir(parents=True)
    elif blocked == "under-file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    else:
        out = tmp_path / "full"
        monkeypatch.setattr(cli, "open", _full_device(blocked == "full-at-close"), raising=False)
    code, stdout, err = run_cli(_WRITERS[writer] + ["--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    if blocked.startswith("full"):
        written = out / "state_00000.json" if writer == "random" else out
        assert err == f"error: cannot write {written}: No space left on device\n"
    assert not (out / "metadata.json").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("writer", ["sweep", "montecarlo"])
def test_real_full_device_exits_1(capsys, writer):
    # the kernel's own ENOSPC, which names no file, reported as --out's in one line
    code, out, err = run_cli(_WRITERS[writer] + ["--out", "/dev/full"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


def test_pathless_os_error_propagates(monkeypatch):
    # an OSError that names no file (a closed stdout, say) is no --out problem: main re-raises it
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.delenv("QSTEER_OUT_DIR", raising=False)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError) as exc:
        cli.main(["sweep", "--family", "ghz", "--start", "0", "--stop", "1", "--points", "2"])
    assert exc.value.filename is None


@pytest.mark.parametrize("argv,code,out,err", [
    pytest.param(["analyze", "ghz.json"], 0, "{\n", "", id="report"),
    pytest.param(["montecarlo", "--count", "2", "--seed", "-1"], 1, "", "error: seed must be >= 0\n",
                 id="rejected-argument"),
    pytest.param(["sweep"], 1, "", "usage: qsteer sweep", id="usage"),
    pytest.param(["analyze", "invalid.json"], 2, "", "error: invalid state: {", id="invalid-state"),
])
def test_module_entry_point(tmp_path, argv, code, out, err):
    # python -m qsteer.cli: sys.exit(main()) hands each exit code to the process;
    # a report or summary goes to stdout, an error line to stderr, never both
    payload = state_to_payload(ghz_state(np.pi / 4))
    (tmp_path / "ghz.json").write_text(json.dumps(payload))
    payload["amplitudes"][0] = [3.0, 0.0]
    (tmp_path / "invalid.json").write_text(json.dumps(payload))
    env = {name: value for name, value in os.environ.items() if name != "QSTEER_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-m", "qsteer.cli", *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == code
    assert run.stdout.startswith(out) if out else run.stdout == ""
    assert run.stderr.startswith(err) if err else run.stderr == ""


class TestVerifyAppendix:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        """The JSON of a small run: 16 free and 4 x 16 face starts, 2^14 samples, seed 0."""
        path = tmp_path_factory.mktemp("appendix") / "appendix.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify-appendix", "--starts", "16", "--stationary-starts", "0", "--face-starts", "16",
                             "--samples", "16384", "--seed", "0", "--out", str(path)])
        assert code == 0
        return path.read_text()

    def test_report_is_finite_json_with_one_verdict(self, report):
        def non_finite(constant):
            raise AssertionError(f"non-finite JSON constant {constant}")

        r = json.loads(report, parse_constant=non_finite)
        assert list(r) == ["fixtures", "recovered", "search", "scan", "pass"]
        assert r["pass"] is (r["search"]["pass"] and r["scan"]["pass"]
                             and all(x["matched"] for x in r["fixtures"] + r["recovered"]))

    def test_search_block(self, report):
        r = json.loads(report)
        search, rows, zero_sets = r["search"], r["search"]["critical_points"], r["search"]["zero_sets"]
        # every start counted once, each row a converged critical point, one row per value
        assert search["converged"] + search["dropped"] == search["starts"]
        assert all(row["grad_norm"] <= 1e-10 for row in rows)
        keys = [round(row["f"], 6) + 0.0 for row in rows]
        assert keys == sorted(set(keys))
        # f vanishes on each zero set, whose hits are converged starts, and
        # every recovered fixture is a listed row or a zero set's name
        assert all(entry["max_abs_f"] <= 1e-9 for entry in zero_sets.values())
        assert sum(entry["hits"] for entry in zero_sets.values()) <= search["converged"]
        assert all(x["found"] in rows + list(zero_sets) for x in r["recovered"])

    def test_scan_block(self, report):
        scan = json.loads(report)["scan"]
        regions = scan["regions"]
        order = ["".join(p) for p in itertools.product("+-", repeat=4)] + ["boundary", "undefined"]
        assert sum(entry["samples"] for entry in regions.values()) == scan["samples"]
        assert list(regions) == [name for name in order if name in regions]
        lowest = min(regions.values(), key=lambda entry: entry["sampled_min"])
        assert (lowest["sampled_min"], lowest["sampled_argmin"]) == (scan["min"], scan["argmin"])

    def test_degenerate_search_misses_fixtures(self, capsys):
        # two Newton starts find the y = 0 face saddle (0.361084) on seeds 0-4 but
        # miss the other two fixtures: fixture mismatch exit code
        code, out, _ = run_cli(["verify-appendix", "--starts", "1",
                                "--stationary-starts", "1", "--face-starts", "0",
                                "--samples", "256", "--seed", "2"], capsys)
        assert code == 3

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify-appendix", "--samples", "0"], id="--samples-0"),
        pytest.param(["verify-appendix", "--starts", "-1"], id="--starts--1"),
        pytest.param(["verify-appendix", "--stationary-starts", "-1"], id="--stationary-starts--1"),
        pytest.param(["verify-appendix", "--starts", "5", "--stationary-starts", "-3"], id="positive-sum--3"),
        pytest.param(["verify-appendix", "--starts", "-3", "--stationary-starts", "5"], id="positive-sum--starts--3"),
        pytest.param(["verify-appendix", "--seed", "-1"], id="--seed--1"),
        pytest.param(["montecarlo", "--count", "2", "--seed", "-1"], id="montecarlo---seed--1"),
        pytest.param(["random", "--count", "2", "--seed", "-1"], id="random---seed--1"),
        pytest.param(["montecarlo", "--count", str(2**32 + 1)], id="montecarlo---count-2^32+1"),
        pytest.param(["random", "--count", str(2**32 + 1)], id="random---count-2^32+1"),
    ])
    def test_bad_counts_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_samples_above_sobol_limit_exit_1(self, capsys, monkeypatch):
        # scipy's Sobol sequence gives at most 2^30 points; a larger --samples is
        # rejected before the search or the scan starts (either fails this test)
        def started(*args, **kwargs):
            raise AssertionError("verify-appendix ran past its argument checks")

        monkeypatch.setattr(monogamy, "minimize_f", started)
        monkeypatch.setattr(monogamy, "_sobol_sphere", started)
        monkeypatch.setattr(monogamy, "_sobol_base", started)  # the scan's first allocation
        code, out, err = run_cli(["verify-appendix", "--samples", str(2**30 + 1)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: samples must be") and "2**30" in err
