"""The benchmark workloads.

Each workload is a closed loop driven from one process: the next operation
starts when the previous one returns. Work comes in passes over a fixed list
of unit kinds; repetition r of unit u gets its own input, made from
(seed, u, r) before the timer starts, so no two operations see the same input
and nothing can be served from a cache. `op` is the only timed call; `check`
then compares its output with an independent reference. The program sees
only the generated inputs: ensemble seeds, state payloads, scan seeds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

import oracle
from qsteer import cli, monogamy, states, steering

OUT_DIR = Path(__file__).resolve().parent / "out"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Interface shared by the workloads; `item` names what items_per_s counts."""

    name = ""
    item = ""
    units = 1  # unit kinds per pass
    trace_passes = 1  # passes in a traced run

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, u: int, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, u, r])

    def make_input(self, u: int, r: int):
        raise NotImplementedError

    def op(self, inp) -> tuple[int, object]:
        """Run one operation; returns (items done, output)."""
        raise NotImplementedError

    def check(self, u: int, inp, out, perturb: float = 0.0) -> bool:
        """Whether `out` is correct; `perturb` shifts the references (self-test)."""
        raise NotImplementedError

    def summary_metrics(self, durations: list[float], items: int) -> list[tuple[str, float, str]]:
        raise NotImplementedError


class MonteCarlo(Workload):
    """`qsteer montecarlo --count 100`, alternating pure and mixed ensembles."""

    name = "montecarlo"
    item = "state"
    units = 4  # even units pure, odd units mixed
    trace_passes = 5
    count = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.csv = OUT_DIR / "montecarlo.csv"

    def make_input(self, u, r):
        return ("pure", "mixed")[u % 2], int(self.rng(u, r).integers(2**32))

    def op(self, inp):
        mode, ens_seed = inp
        return self.count, _run_cli(["montecarlo", "--count", str(self.count), "--mode", mode,
                                     "--seed", str(ens_seed), "--out", str(self.csv)])

    def check(self, u, inp, out, perturb=0.0):
        code, stdout = out
        if code != 0:
            return False
        with self.csv.open() as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads(stdout)
        ref = oracle.report(oracle.ensemble(inp[1], inp[0], self.count))
        margin = ref["margin"] + perturb
        counts = {c: int(np.sum(ref["classification"] == c)) for c in ("corollary1", "corollary2", "mixed")}
        return (summary["counts"] == counts
                and summary["violations"] == int(np.sum(margin < oracle.MARGIN_VIOLATION))
                and abs(summary["min_margin"] - margin.min()) <= 1e-10
                and [int(row["index"]) for row in rows] == list(range(self.count))
                and [row["classification"] for row in rows] == list(ref["classification"])
                and bool(np.all(np.abs(np.array([float(row["margin"]) for row in rows]) - margin) <= 1e-10)))

    def summary_metrics(self, durations, items):
        return [("states_per_s", items / sum(durations), "1/s")]


class AnalyzeFull(Workload):
    """Full steering report of a JSON state payload, as `qsteer analyze --all-cuts
    --two-to-one --reverse-pairs` computes it, with validation on."""

    name = "analyze-full"
    item = "report"
    trace_passes = 5
    n_ghz = n_w = n_mixed = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        # product-state end points reach the deficit floor and the pure-state switch
        ghz = np.concatenate([[0.0, np.pi / 4, np.pi / 2], rng.uniform(0, np.pi / 2, self.n_ghz - 3)])
        alpha = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, np.pi, self.n_w - 3)])
        kinds = [("ghz", t) for t in ghz] + [("w", a) for a in alpha] + [("mixed", None)] * self.n_mixed
        self.kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        self.units = len(self.kinds)

    def make_input(self, u, r):
        """A payload of unit u's kind: GHZ or W under a random local unitary, which
        leaves every H unchanged, or a fresh random mixed state G G^+ / tr."""
        kind, param = self.kinds[u]
        rng = self.rng(u, r)
        if kind == "mixed":
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = g @ g.conj().T
            rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
            payload = {"qubits": 3, "kind": "mixed",
                       "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in rho]}
        else:
            psi = _local_unitary(rng) @ (_ghz(param) if kind == "ghz" else _w(param))
            rho = None
            payload = {"qubits": 3, "kind": "pure", "amplitudes": [[float(a.real), float(a.imag)] for a in psi]}
        return json.dumps(payload), rho

    def op(self, inp):
        rho = states.state_from_payload(json.loads(inp[0]))
        rep = steering.steering_report(rho, include_all_cuts=True, include_two_to_one=True,
                                       include_reverse_pairs=True, validate=True)
        return 1, json.dumps(rep.to_dict())

    def check(self, u, inp, out, perturb=0.0):
        d = json.loads(out)
        kind, param = self.kinds[u]
        ok = abs(d["margin"] - (d["s_a_bc"] - d["h_tot"])) <= 1e-12
        for a, b in (("a_bc", "bc_to_a"), ("b_to_ca", "ca_to_b"), ("c_to_ab", "ab_to_c")):
            ok &= abs(d[f"norm_{a}"] - d[f"norm_{b}"]) <= 1e-12
        if kind == "ghz":
            ref = oracle.ghz(param)
            expect = {"norm_a_bc": ref["norm"], "h_a_bc": ref["h_cut"], "h_b_to_ca": ref["h_cut"],
                      "h_c_to_ab": ref["h_cut"]}
            expect.update({k: ref["h_pair"] for k in ("h_ab", "h_ac", "h_bc", "h_ba", "h_ca", "h_cb")})
        elif kind == "w":
            ref = oracle.w(param)
            expect = {"norm_a_bc": ref["norm"], "h_a_bc": ref["h_cut"]}
        else:
            ref = oracle.report(inp[1][None])
            expect = {k: float(ref[k][0]) for k in ("norm_a_bc", "h_a_bc", "h_ab", "h_ac", "h_bc", "margin")}
            ok &= d["classification"] == ref["classification"][0]
        return bool(ok and all(abs(d[k] - (v + perturb)) <= 1e-10 for k, v in expect.items()))

    def summary_metrics(self, durations, items):
        us = np.array(durations) * 1e6
        return [("reports_per_s", items / sum(durations), "1/s"),
                ("report_p50_us", float(np.median(us)), "us"),
                ("report_p99_us", float(np.percentile(us, 99)), "us"),
                ("report_samples", len(us), "count")]


class SphereScan(Workload):
    """verify_monogamy over the whole octant, 2^14 Sobol points per call."""

    name = "sphere-scan"
    item = "point"
    units = 4
    trace_passes = 4
    samples = 2**14
    ref_stride = 16  # the oracle re-evaluates every 16th sample as a reference

    def make_input(self, u, r):
        return int(self.rng(u, r).integers(2**32))

    def op(self, scan_seed):
        return self.samples, monogamy.verify_monogamy(monogamy.VerifyConfig(samples=self.samples, seed=scan_seed))

    def check(self, u, scan_seed, report, perturb=0.0):
        pts = _sobol_octant(self.samples, scan_seed)
        argmins = [np.array(report.argmin)] + [np.array(r["sampled_argmin"]) for r in report.regions.values()]
        mins = [report.min_value] + [r["sampled_min"] for r in report.regions.values()]
        ok = report.passed and report.samples == self.samples
        ok &= sum(r["samples"] for r in report.regions.values()) == self.samples
        ok &= report.min_value == min(mins[1:])
        # every reported minimum is a scanned point whose value the oracle confirms
        ok &= all(np.any(np.all(pts == a, axis=1)) for a in argmins)
        ok &= bool(np.all(np.abs(oracle.family_f(np.stack(argmins)) + perturb - mins) <= 1e-10))
        reference = oracle.family_f(pts[:: self.ref_stride]).min() + perturb
        ok &= -1e-9 <= report.min_value <= reference + 1e-10
        return bool(ok)

    def summary_metrics(self, durations, items):
        return [("points_per_s", items / sum(durations), "1/s")]


class Appendix(Workload):
    """`qsteer verify-appendix` at a reduced start count; exit code 0 is the gate.

    Not in BENCHMARK.json: a verified solve takes seconds, too long for the
    best-of timing that keeps items_per_s steady on a shared host. Run it by
    hand, with --trace 1 for the minimize_f and f_pipeline layers.
    """

    name = "appendix"
    item = "solve"
    argv = ["verify-appendix", "--starts", "16", "--stationary-starts", "0",
            "--face-starts", "16", "--samples", str(2**14)]

    def make_input(self, u, r):
        return int(self.rng(u, r).integers(2**32))

    def op(self, solve_seed):
        return 1, _run_cli(self.argv + ["--seed", str(solve_seed)])

    def check(self, u, solve_seed, out, perturb=0.0):
        return out[0] == 0

    def summary_metrics(self, durations, items):
        return [("solve_s", float(np.median(durations)), "s")]


def _local_unitary(rng: np.random.Generator) -> np.ndarray:
    """U_A x U_B x U_C with Haar-random single-qubit unitaries."""
    u = np.eye(1)
    for _ in range(3):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = np.kron(u, q * (np.diag(r) / np.abs(np.diag(r))))
    return u


def _ghz(t: float) -> np.ndarray:
    psi = np.zeros(8)
    psi[0], psi[7] = np.sin(t), np.cos(t)
    return psi


def _w(alpha: float, theta: float = np.pi / 3) -> np.ndarray:
    psi = np.zeros(8)
    psi[4] = np.sin(theta) * np.sin(alpha)
    psi[2] = np.sin(alpha) * np.cos(theta)
    psi[1] = np.cos(alpha)
    return psi


def _sobol_octant(n: int, seed: int) -> np.ndarray:
    """The documented scan sample: scrambled Sobol points folded through |ndtri| onto the octant."""
    u = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(int(np.ceil(np.log2(n))))[:n]
    g = np.abs(ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


GATED = (MonteCarlo, AnalyzeFull, SphereScan)  # the workloads BENCHMARK.json lists
WORKLOADS = {w.name: w for w in GATED + (Appendix,)}
