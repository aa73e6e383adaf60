"""Command-line interface.

Subcommands: analyze, sweep, montecarlo, verify-appendix, random. Output CSV
numbers use 17 significant digits so files round-trip bit-exactly; report JSON
goes to stdout. QSTEER_OUT_DIR supplies the base directory for relative output
paths.

Exit codes: 0 success, 1 unreadable/malformed input file, an output path
that cannot be written or a rejected argument (a negative seed or count,
--samples 0, --points 1, or a command line that cannot be parsed, which also
prints the usage message), 2 invalid quantum state, 3 a failed
verify-appendix gate (a fixture, a recovery, the search or the scan).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import monogamy, randgen, states, steering

CHUNK = 256  # states per batch call in montecarlo, random and sweep

_NUMBER = r"((?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?)"  # 2, 2., 2.5 or .5, each with an optional exponent (1e-3)
_PI_RE = re.compile(rf"^(-?){_NUMBER}?\s*\*?\s*pi\s*(?:/\s*{_NUMBER})?$", re.IGNORECASE)

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


def _out_path(name: str | None, default_name: str, directory: bool = False) -> Path:
    """Every output path: name, or default_name if None, resolved against QSTEER_OUT_DIR
    when relative, with the directory that holds it made (the path itself if directory)."""
    path = Path(os.environ.get("QSTEER_OUT_DIR", ".")) / (default_name if name is None else name)
    (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def _open_out(path: Path):
    """path opened for writing. An OSError raised inside without a file name,
    as a full disk fails a write or the close (ENOSPC), gets path as its
    filename, so main reports the path and exits 1."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (CSV or JSON, subcommand specific)")


def _linspace(start: float, stop: float, num: int, lo: int, hi: int) -> np.ndarray:
    """np.linspace(start, stop, num)[lo:hi], bit for bit, without the rest of the grid:
    index times step plus start, as (index / (num - 1)) times (stop - start) where the
    step is 0, and stop as the last point."""
    delta, div = stop - start, num - 1
    step = delta / div
    i = np.arange(lo, hi, dtype=float)
    grid = (i / div * delta if step == 0 else i * step) + start
    if hi == num:
        grid[-1] = stop
    return grid


def cmd_analyze(args) -> int:
    try:
        payload = json.loads(Path(args.state_file).read_text())
        rho = states.state_from_payload(payload)
    except (OSError, json.JSONDecodeError, ValueError, RecursionError) as exc:  # json.loads on deep nesting
        print(f"error: cannot parse state file: {exc}", file=sys.stderr)
        return 1
    diag = states.validate_state(rho, args.tolerance_profile)
    if not diag["passed"]:
        print(f"error: invalid state: {json.dumps(diag)}", file=sys.stderr)
        return 2
    if rho.shape != (8, 8):
        print(f"error: steering analysis needs a three-qubit state, got dim {rho.shape[0]}",
              file=sys.stderr)
        return 2
    if diag["hermiticity_residual"] > states.HERM_TOL:  # only loose gets here: analyse the Hermitian part
        rho = (rho + rho.conj().T) / 2.0
    report = steering.steering_report(
        rho,
        include_all_cuts=args.all_cuts,
        include_two_to_one=args.two_to_one,
        include_reverse_pairs=args.reverse_pairs,
        validate=False,
    )
    print(json.dumps(report, indent=2))
    return 0


def cmd_sweep(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    if not np.all(np.isfinite([args.start, args.stop, args.stop - args.start, args.theta])):
        raise ValueError("--start, --stop, their span and --theta must be finite")
    path = (_out_path(args.out, f"sweep_{args.family}.csv")
            if args.out is not None or "QSTEER_OUT_DIR" in os.environ else None)
    family = states.ghz_state if args.family == "ghz" else functools.partial(states.w_state, args.theta)
    row = _row_template(1 + len(_SWEEP_COLUMNS)) + "\n"
    with (contextlib.nullcontext(sys.stdout) if path is None else _open_out(path)) as fh:
        fh.write("param," + ",".join(_SWEEP_COLUMNS) + "\n")
        for lo in range(0, args.points, CHUNK):
            grid = _linspace(args.start, args.stop, args.points, lo, min(lo + CHUNK, args.points))
            cols = steering.steering_batch(states.density_from_pure(family(grid)))
            table = np.column_stack([grid] + [cols[k] for k in _SWEEP_COLUMNS])
            fh.writelines(row % tuple(values) for values in table.tolist())
    if path is not None:
        print(f"wrote {path}")
    return 0


def cmd_montecarlo(args) -> int:
    spec = randgen.RandomStateSpec(seed=args.seed, mode=args.mode, count=args.count)
    started = time.perf_counter()
    path = _out_path(args.out, "montecarlo.csv")
    counts = {"corollary1": 0, "corollary2": 0, "mixed": 0}
    min_margin = np.inf
    violations = 0
    row = "%d," + _row_template(len(_MC_COLUMNS)) + ",%s\n"
    written = 0
    with _open_out(path) as fh:
        fh.write("index," + ",".join(_MC_COLUMNS) + ",classification\n")
        for start in range(0, spec.count, CHUNK):
            stop = min(start + CHUNK, spec.count)
            cols = steering.steering_batch(randgen.random_state_batch(spec, start, stop))
            min_margin = min(min_margin, float(cols["margin"].min()))
            violations += int(np.sum(cols["margin"] < monogamy.PASS_TOL))
            table = np.column_stack([cols[k] for k in _MC_COLUMNS]).tolist()
            for i, values, label in zip(range(start, stop), table, cols["classification"].tolist()):
                counts[label] += 1
                if args.filter != "all" and label != args.filter:
                    continue
                fh.write(row % (i, *values, label))
                written += 1
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
    states._check_integers(args, 0, "starts", "stationary_starts")  # each on its own: a sum could hide a negative
    cfg = monogamy.MinimizeConfig(starts=args.starts + args.stationary_starts,
                                  face_starts=args.face_starts, seed=args.seed)
    scan_cfg = monogamy.VerifyConfig(samples=args.samples, seed=args.seed)
    path = None if args.out is None else _out_path(args.out, "verify_appendix.json")
    with (contextlib.nullcontext() if path is None else _open_out(path)) as fh:  # opened before any work
        fixtures = []
        for coords, expected, tol in APPENDIX_FIXTURES:
            value = monogamy.f_pipeline(coords)
            fixtures.append({
                "point": list(coords), "expected": expected, "value": value,
                "tolerance": tol, "matched": abs(value - expected) <= tol,
            })
        result = monogamy.minimize_f(cfg)
        recovered = [result.recover(coords, expected) for coords, expected, _ in APPENDIX_FIXTURES]
        scan = monogamy.verify_monogamy(scan_cfg)
        search = result.to_dict()
        passed = all([*(r["matched"] for r in fixtures + recovered), search["pass"], scan.passed])
        if fh is not None:
            fh.write(json.dumps({"fixtures": fixtures, "recovered": recovered, "search": search,
                                 "scan": scan.to_dict(), "pass": passed}, indent=2))
    # printed once the file is closed, so a stdout error is not taken for the file's
    print("isolated critical points (f rounded to 1e-6):")
    for row in search["critical_points"]:
        print(f"  f={row['f']:+.6f}  at ({', '.join(f'{v:.6f}' for v in row['params'])})  [{row['location']}]")
    for name, entry in search["zero_sets"].items():
        print(f"  f=0 on {name}: {entry['hits']} starts, max |f| {entry['max_abs_f']:.1e}")
    print(f"fixtures matched: {sum(f['matched'] for f in fixtures)}/{len(fixtures)}; "
          f"recovered: {sum(r['matched'] for r in recovered)}/{len(recovered)}; "
          f"search {'PASS' if search['pass'] else 'FAIL'}; "
          f"scan min {scan.min_value:.3e} ({'PASS' if scan.passed else 'FAIL'})")
    if path is not None:
        print(f"wrote {path}")
    return 0 if passed else 3


def cmd_random(args) -> int:
    spec = randgen.RandomStateSpec(seed=args.seed, mode=args.mode, count=args.count)
    meta = {
        "seed": spec.seed,
        "mode": spec.mode,
        "count": spec.count,
        "generator": randgen.GENERATOR_NAME,
        "cascade_variant": "verbatim",  # the recipe's cascade, the only one; the key keeps the file format
    }

    batch = randgen.random_pure_batch if spec.mode == "pure" else randgen.random_state_batch

    def payloads():
        for start in range(0, spec.count, CHUNK):
            for state in batch(spec, start, min(start + CHUNK, spec.count)):
                yield json.dumps(states.state_to_payload(state))

    if args.jsonl:
        path = _out_path(args.out, "states.jsonl")
        with _open_out(path) as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for text in payloads():
                fh.write(text + "\n")
        print(f"wrote {path}")
    else:
        out_dir = _out_path(args.out, "states", directory=True)
        for i, text in enumerate(payloads()):
            with _open_out(out_dir / f"state_{i:05d}.json") as fh:
                fh.write(text)
        # written last: a directory without it is an incomplete set
        with _open_out(out_dir / "metadata.json") as fh:
            fh.write(json.dumps(meta, indent=2))
        print(f"wrote {spec.count} states to {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, the code of a rejected argument."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built once per process: argparse takes ~1 ms to build the tree
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsteer", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="steering report for a state file")
    p.add_argument("state_file")
    p.add_argument("--all-cuts", action="store_true", help="include B|CA and C|AB cuts")
    p.add_argument("--two-to-one", action="store_true", help="include pair-to-qubit directions")
    p.add_argument("--reverse-pairs", action="store_true", help="include B->A, C->A, C->B")
    p.add_argument(
        "--tolerance-profile", choices=sorted(states.TOLERANCE_PROFILES), default="default",
        help="state validation tolerances",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="steering quantities over a parameter grid (CSV)")
    p.add_argument("--family", choices=("ghz", "w"), required=True)
    p.add_argument("--theta", type=parse_angle, default=np.pi / 3,
                   help="fixed theta for the w family (default pi/3); a negative angle as --theta=-pi/3")
    p.add_argument("--start", type=parse_angle, required=True, help="first angle; a negative one as --start=-pi/3")
    p.add_argument("--stop", type=parse_angle, required=True, help="last angle; a negative one as --stop=-pi/3")
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
    p.add_argument("--starts", type=int, default=256, help="Newton starts over the whole octant")
    p.add_argument("--stationary-starts", type=int, default=0, help="more Newton starts, added to --starts")
    p.add_argument("--face-starts", type=int, default=64, help="Newton starts on each face")
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
    try:
        return args.func(args)
    except ValueError as exc:  # a rejected argument: each subcommand checks its own before any work
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a write under --out or QSTEER_OUT_DIR: analyze handles its own read
        if exc.filename is None:  # not a path's error (a closed stdout, say)
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
