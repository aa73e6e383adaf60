"""Command-line interface.

Subcommands: analyze, sweep, montecarlo, verify-appendix, random. Output CSV
numbers use 17 significant digits so files round-trip bit-exactly; report JSON
goes to stdout. QSTEER_OUT_DIR supplies the base directory for relative output
paths.

Exit codes: 0 success, 1 unreadable/malformed input file, 2 invalid quantum
state, 3 verification fixture mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import monogamy, randgen, states, steering

_TOLERANCE_PROFILES = {
    "default": {"herm_tol": states.HERM_TOL, "trace_tol": states.TRACE_TOL, "eig_tol": states.EIG_TOL},
    "strict": {"herm_tol": 1e-13, "trace_tol": 1e-13, "eig_tol": 1e-12},
    "loose": {"herm_tol": 1e-9, "trace_tol": 1e-9, "eig_tol": 1e-6},
}

CHUNK = 256  # states per batch call in montecarlo, random and sweep

_PI_RE = re.compile(r"^(-?)(\d+(?:\.\d*)?)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?$", re.IGNORECASE)

APPENDIX_FIXTURES = [
    # (coordinates, expected f, tolerance)
    ((0.39036823927218467, 0.0, 0.7886176857851448, 0.47507345056784694), 0.361084, 1e-4),
    ((0.0, 0.0, 2**-0.5, 2**-0.5), 0.780239, 1e-5),
    ((0.0, 1.0, 0.0, 0.0), 0.0, 1e-9),
]


def parse_angle(text: str) -> float:
    """Radians from a float literal or a pi fraction like 'pi/4' or '3pi/8'."""
    s = text.strip()
    m = _PI_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        denom = float(m.group(3)) if m.group(3) else 1.0
        if denom == 0.0:
            raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
        return sign * coeff * np.pi / denom
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


_SWEEP_COLUMNS = ("h_a_bc", "s_a_bc", "h_ab", "h_ac", "h_bc", "h_tot")
_MC_COLUMNS = ("s_a_bc", "h_ab", "h_ac", "h_bc", "s_ab", "s_ac", "s_bc", "h_tot", "s_tot", "margin")


def _row_template(columns: int) -> str:
    """One % template for a CSV row of floats; '%.17g' % v is format(v, '.17g')."""
    return ",".join(["%.17g"] * columns)


def _out_path(name: str | None, default_name: str) -> Path:
    base = Path(os.environ.get("QSTEER_OUT_DIR", "."))
    if name is None:
        return base / default_name
    p = Path(name)
    return p if p.is_absolute() else base / p


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (CSV or JSON, subcommand specific)")


def _chunks(count: int, make_states):
    """(indices, report columns) per CHUNK states; make_states(start, stop) gives (n, 8, 8)."""
    for start in range(0, count, CHUNK):
        stop = min(start + CHUNK, count)
        yield range(start, stop), steering.steering_batch(make_states(start, stop)).to_dict()


def cmd_analyze(args) -> int:
    try:
        payload = json.loads(Path(args.state_file).read_text())
        rho = states.state_from_payload(payload)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: cannot parse state file: {exc}", file=sys.stderr)
        return 1
    tols = _TOLERANCE_PROFILES[args.tolerance_profile]
    diag = states.validate_state(rho, **tols)
    if not diag.passed:
        print(f"error: invalid state: {json.dumps(diag.as_dict())}", file=sys.stderr)
        return 2
    if rho.shape != (8, 8):
        print(f"error: steering analysis needs a three-qubit state, got dim {rho.shape[0]}",
              file=sys.stderr)
        return 2
    try:
        report = steering.steering_report(
            rho,
            include_all_cuts=args.all_cuts,
            include_two_to_one=args.two_to_one,
            include_reverse_pairs=args.reverse_pairs,
            validate=False,
        )
    except ValueError as exc:  # a Pauli trace with an imaginary part, which validation let through
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_sweep(args) -> int:
    if args.points < 2:
        print("error: --points must be >= 2", file=sys.stderr)
        return 1
    if not np.all(np.isfinite([args.start, args.stop, args.theta])):
        print("error: --start, --stop and --theta must be finite", file=sys.stderr)
        return 1
    grid = np.linspace(args.start, args.stop, args.points)

    def densities(start, stop):
        return states.density_from_pure(np.stack([
            states.ghz_state(v) if args.family == "ghz" else states.w_state(args.theta, v)
            for v in grid[start:stop]]))

    lines = ["param," + ",".join(_SWEEP_COLUMNS)]
    row = _row_template(1 + len(_SWEEP_COLUMNS))
    for idx, cols in _chunks(len(grid), densities):
        table = np.column_stack([grid[idx.start:idx.stop]] + [cols[k] for k in _SWEEP_COLUMNS])
        lines += [row % tuple(values) for values in table.tolist()]
    text = "\n".join(lines) + "\n"
    if args.out is None and "QSTEER_OUT_DIR" not in os.environ:
        sys.stdout.write(text)
    else:
        path = _out_path(args.out, f"sweep_{args.family}.csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    return 0


def cmd_montecarlo(args) -> int:
    try:
        spec = randgen.RandomStateSpec(seed=args.seed, mode=args.mode, count=args.count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    counts = {"corollary1": 0, "corollary2": 0, "mixed": 0}
    min_margin = np.inf
    violations = 0
    rows = ["index," + ",".join(_MC_COLUMNS) + ",classification"]
    row = "%d," + _row_template(len(_MC_COLUMNS)) + ",%s"
    written = 0
    for idx, cols in _chunks(spec.count, lambda a, b: randgen.random_state_batch(spec, a, b)):
        min_margin = min(min_margin, float(cols["margin"].min()))
        violations += int(np.sum(cols["margin"] < -1e-9))
        table = np.column_stack([cols[k] for k in _MC_COLUMNS]).tolist()
        for i, values, label in zip(idx, table, cols["classification"].tolist()):
            counts[label] += 1
            if args.filter != "all" and label != args.filter:
                continue
            rows.append(row % (i, *values, label))
            written += 1

    path = _out_path(args.out, "montecarlo.csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")
    elapsed = time.perf_counter() - started
    summary = {
        "count": spec.count,
        "mode": spec.mode,
        "seed": spec.seed,
        "filter": args.filter,
        "generator": randgen.GENERATOR_NAME,
        "counts": counts,
        "rows_written": written,
        "min_margin": float(min_margin),
        "violations": violations,
        "csv": str(path),
        "elapsed_s": elapsed,
        "states_per_s": spec.count / elapsed,
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_verify_appendix(args) -> int:
    try:
        cfg = monogamy.MinimizeConfig(starts=args.starts, stationary_starts=args.stationary_starts,
                                      face_starts=args.face_starts, seed=args.seed)
        scan_cfg = monogamy.VerifyConfig(samples=args.samples, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    fixtures = []
    all_ok = True
    for coords, expected, tol in APPENDIX_FIXTURES:
        value = monogamy.f_pipeline(coords)
        ok = abs(value - expected) <= tol
        all_ok &= ok
        fixtures.append({
            "point": list(coords), "expected": expected, "value": value,
            "tolerance": tol, "matched": bool(ok),
        })

    result = monogamy.minimize_f(cfg)
    recovered = []
    for coords, expected, tol in APPENDIX_FIXTURES:
        hit = result.best_matching(coords, radius=1e-3)
        ok = hit is not None and abs(hit.f_value - expected) <= max(tol, 1e-4)
        all_ok &= ok
        recovered.append({
            "target": list(coords),
            "found": None if hit is None else hit.as_dict(),
            "matched": bool(ok),
        })

    scan = monogamy.verify_monogamy(scan_cfg, critical_points=result.points)
    all_ok &= scan.passed

    by_value: dict[float, dict] = {}
    for pt in result.points:
        key = round(pt.f_value, 6) + 0.0  # + 0.0 turns a rounded -0.0 into 0.0
        entry = by_value.setdefault(key, {"f": key, "count": 0, "example": pt.as_dict()})
        entry["count"] += 1
    table = [by_value[k] for k in sorted(by_value)]

    report = {
        "fixtures": fixtures,
        "recovered": recovered,
        "critical_value_table": table,
        "starts": result.starts,
        "converged": result.converged,
        "dropped": result.dropped,
        "dropped_grad_norms": result.dropped_summary(),
        "scan": scan.to_dict(),
        "pass": bool(all_ok),
    }
    print("critical values recovered (rounded to 1e-6):")
    for entry in table:
        p = entry["example"]["params"]
        print(f"  f={entry['f']:+.6f}  x{entry['count']:<4d} at "
              f"({p[0]:.6f}, {p[1]:.6f}, {p[2]:.6f}, {p[3]:.6f})  [{entry['example']['location']}]")
    print(f"fixtures matched: {sum(f['matched'] for f in fixtures)}/{len(fixtures)}; "
          f"recovered: {sum(r['matched'] for r in recovered)}/{len(recovered)}; "
          f"scan min {scan.min_value:.3e} ({'PASS' if scan.passed else 'FAIL'})")
    if args.out is not None:
        path = _out_path(args.out, "verify_appendix.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2))
        print(f"wrote {path}")
    return 0 if all_ok else 3


def cmd_random(args) -> int:
    try:
        spec = randgen.RandomStateSpec(seed=args.seed, mode=args.mode, count=args.count)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "generator": randgen.GENERATOR_NAME,
        "cascade_variant": spec.cascade_variant,
    }

    batch = randgen.random_pure_batch if spec.mode == "pure" else randgen.random_state_batch

    def payloads():
        for start in range(0, spec.count, CHUNK):
            for state in batch(spec, start, min(start + CHUNK, spec.count)):
                yield json.dumps(states.state_to_payload(state))

    if args.jsonl:
        path = _out_path(args.out, "states.jsonl")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for text in payloads():
                fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        out_dir = _out_path(args.out, "states")
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2))
        for i, text in enumerate(payloads()):
            (out_dir / f"state_{i:05d}.json").write_text(text)
        print(f"wrote {spec.count} states to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsteer", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="steering report for a state file")
    p.add_argument("state_file")
    p.add_argument("--all-cuts", action="store_true", help="include B|CA and C|AB cuts")
    p.add_argument("--two-to-one", action="store_true", help="include pair-to-qubit directions")
    p.add_argument("--reverse-pairs", action="store_true", help="include B->A, C->A, C->B")
    p.add_argument(
        "--tolerance-profile", choices=sorted(_TOLERANCE_PROFILES), default="default",
        help="state validation tolerances",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="steering quantities over a parameter grid (CSV)")
    p.add_argument("--family", choices=("ghz", "w"), required=True)
    p.add_argument("--theta", type=parse_angle, default=np.pi / 3,
                   help="fixed theta for the w family (default pi/3)")
    p.add_argument("--start", type=parse_angle, required=True)
    p.add_argument("--stop", type=parse_angle, required=True)
    p.add_argument("--points", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="random-state steering statistics (CSV + summary JSON)")
    p.add_argument("--count", type=int, default=10_000)
    p.add_argument("--mode", choices=("pure", "mixed"), default="pure")
    p.add_argument("--filter", choices=("all", "corollary1", "corollary2"), default="all")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("verify-appendix", help="re-verify the monogamy minimization study")
    p.add_argument("--starts", type=int, default=2000)
    p.add_argument("--stationary-starts", type=int, default=256)
    p.add_argument("--face-starts", type=int, default=64)
    p.add_argument("--samples", type=int, default=2**20)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p)
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("random", help="emit random states as JSON files or a JSONL stream")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--mode", choices=("pure", "mixed"), default="pure")
    p.add_argument("--jsonl", action="store_true", help="single JSON-lines stream with metadata header")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    _add_common(p)
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
