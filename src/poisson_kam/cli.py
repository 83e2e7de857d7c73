"""Batch front-end: normalize / verify / check-diophantine / constants / lie-check.

Outputs are deterministic: fixed key order, floats at 17 significant digits,
no timestamps.  Exit codes are a stable contract per subcommand; see the
individual command docstrings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import jsonio
from .dynamics import Trajectory, lie_vs_flow_check, torus_persistence_report, write_trajectory
from .errors import (
    ParameterError,
    PoissonKamError,
    ProblemFormatError,
    ResonanceError,
    StepRefusedError,
)
from .bracket import ExtendedPoint
from .homological import divisor_shells
from .kolmogorov import ChiRecord, run, torus_frequencies
from .problems import Problem
from .series import MAX_ORDER, _integer, _real

import numpy as np


def _out_dir(path) -> Path:
    """The output directory, made if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ProblemFormatError("cannot make output directory %s: %s" % (out, exc)) from exc
    return out


def _load_run(args):
    """The run verify and lie-check read: out, the problem, its setup and the
    ChiRecords normalize stored in out/generators.json, each checked as it is
    made and against the problem's ring; their steps must be 0, 1, ..., N-1
    in file order."""
    out = Path(args.out)
    problem = Problem.load(args.problem)
    path = out / "generators.json"
    if not path.exists():
        raise ProblemFormatError("missing run artifacts in %s" % out)
    try:
        # the parsed file is not kept: it is freed before initialize() runs
        records = [ChiRecord.from_payload(p) for p in jsonio.loads(path.read_text())["chi"]]
        for pos, rec in enumerate(records):
            if rec.step != pos:
                raise ProblemFormatError("record %d has step %d, not %d" % (pos, rec.step, pos))
            problem.check_ring("generator %d" % rec.step, rec.chi)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, PoissonKamError) as exc:
        raise ProblemFormatError("bad generators file %s: %s" % (path, exc)) from exc
    return out, problem, problem.initialize(), records


def _write(path, data):
    """Write one artifact (text, a Trajectory as CSV or a payload as JSON), the only
    way a command does; an OSError, such as a directory in the way, exits 1."""
    try:
        if isinstance(data, Trajectory):
            write_trajectory(data, path)
        else:
            Path(path).write_text(data if isinstance(data, str) else jsonio.dumps(data) + "\n")
    except OSError as exc:
        raise ProblemFormatError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def _trace_lines(trace):
    lines = [jsonio.dumps({"header": trace.header})]
    lines.extend(jsonio.dumps(row) for row in trace.rows)
    return "\n".join(lines) + "\n"


def cmd_normalize(args) -> int:
    """Exit 0 converged, 1 malformed input/resonance, 2 Lie series refused by
    the contraction guard, 3 divergence, 4 step budget exhausted."""
    setup = Problem.load(args.problem).initialize(
        max_steps=args.max_steps, target_eps=args.target_eps
    )
    out = _out_dir(args.out)
    result = run(setup)
    _write(out / "trace.jsonl", _trace_lines(result.trace))
    _write(out / "normal_form.json", result.normal_form.to_payload())
    _write(
        out / "generators.json",
        {"chi": [rec.to_payload() for rec in result.chi_records]},
    )
    print(
        "status=%s steps=%d eps_final=%s"
        % (
            result.status,
            len(result.trace.rows),
            jsonio.fmt_float(result.trace.header["eps_final"]),
        )
    )
    return {"converged": 0, "refused": 2, "diverged": 3, "max_steps": 4}[result.status]


def cmd_verify(args) -> int:
    """Exit 0 iff the settled-action improvement meets the threshold; 2 when
    the run exists but misses it; 1 when normalize outputs are absent or
    malformed, --angles is not in 1..MAX_ORDER or the integrator fails (its
    step falls below the float spacing or its error estimate is not
    finite)."""
    n_angles = _integer(args.angles, "--angles", 1, MAX_ORDER, ParameterError)
    out, problem, setup, chi_records = _load_run(args)
    seed = problem.option("seed", args.seed)
    offset = (seed % 1000) / 1000.0 * 2.0 * np.pi / n_angles
    report = torus_persistence_report(
        setup.decomp.full,
        setup.structure,
        chi_records,
        t_end=problem.option("t_end", args.t_end),
        tol=problem.option("tol", args.tol),
        n_angles=n_angles,
        threshold=problem.option("threshold", args.threshold),
        angle_offset=offset,
        omega=setup.freq.omega,
    )
    _write(out / "persistence_report.json", report.as_dict())
    if args.write_trajectories:
        for i, angle in enumerate(report.angles):
            _write(out / ("trajectory_naive_%02d.csv" % i), angle.naive)
            _write(out / ("trajectory_mapped_%02d.csv" % i), angle.mapped)
    print(
        "min_improvement=%r threshold=%r"
        % (report.min_improvement, report.threshold)
    )
    return 0 if report.passed else 2


def cmd_check_diophantine(args) -> int:
    """Exit 0 with the gamma profile of the omega init_from_problem finds,
    scanned as it scans but to --k-max (the ring's K_max unless given); 1
    when --k-max is not in 1..MAX_ORDER or its scan exceeds SCAN_LIMIT
    wavevectors; 2 on resonance with 0 < |k|_1 <= --k-max."""
    problem = Problem.load(args.problem)
    k_max = problem.trunc.K_max if args.k_max is None else args.k_max
    try:
        freq = torus_frequencies(problem, k_max)[2]
    except ResonanceError as exc:
        print("resonance: %s" % exc, file=sys.stderr)
        return 2
    table = {
        "omega": [float(v) for v in freq.omega],
        "tau": problem.tau,
        "K_max": len(freq.shell_divisors),  # one shell per order 1..K_max, as an int
        "gamma_K": freq.gamma,
        "shells": divisor_shells(freq),
    }
    if args.out:
        _write(_out_dir(args.out) / "diophantine.json", table)
    print(jsonio.dumps(table))
    return 0


def cmd_constants(args) -> int:
    """Write the constants ledger (M0..M8, D, thresholds); exit 0."""
    setup = Problem.load(args.problem).initialize()
    payload = {
        "constants": setup.ledger.as_dict(),
        "eps0_rating": setup.eps0_rating,
        "eps0_measured": setup.params.eps,
        "empirical_mode": setup.empirical_mode,
        "u0": setup.params.as_dict(),
    }
    if args.out:
        _write(_out_dir(args.out) / "constants.json", payload)
    print(jsonio.dumps(payload))
    return 0


def cmd_lie_check(args) -> int:
    """Check series transform vs time-1 flow for every stored generator.
    Exit 0 when all distances are within tolerance, 2 when one misses it or a
    stored generator fails the contraction guard, 1 when normalize outputs
    are absent or malformed, --tol is not finite and > 0 or the integrator
    fails."""
    tol = _real(args.tol, "'tol'", "finite and > 0")
    out, problem, setup, chi_records = _load_run(args)
    point = ExtendedPoint(
        np.zeros(problem.m), np.full(problem.n, 0.3), 0.0, 0.0
    )
    rows = []
    ok = True
    for rec in chi_records:
        dist = lie_vs_flow_check(rec, setup.structure, point, tol=tol)
        bound = max(10.0 * tol, 1e-8)
        rows.append({"step": rec.step, "distance": dist, "bound": bound})
        ok = ok and dist <= bound
    _write(out / "lie_check.json", {"rows": rows, "passed": ok})
    print(jsonio.dumps({"rows": rows, "passed": ok}))
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-kam",
        description="Kolmogorov normal form for Poisson systems with decaying forcing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required):
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("normalize", help="run the normalization iteration")
    common(p, True)
    p.add_argument("--max-steps", default=None)
    p.add_argument("--target-eps", default=None)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("verify", help="torus persistence report for a finished run")
    common(p, True)
    p.add_argument("--t-end", default=None)
    p.add_argument("--tol", default=None)
    p.add_argument("--threshold", default=None)
    p.add_argument("--angles", default=8)
    p.add_argument("--seed", default=None)
    p.add_argument("--write-trajectories", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-diophantine", help="scan small divisors per |k| shell")
    common(p, False)
    p.add_argument("--k-max", default=None)
    p.set_defaults(func=cmd_check_diophantine)

    p = sub.add_parser("constants", help="evaluate the constants ledger")
    common(p, False)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("lie-check", help="series transform vs numerical flow")
    common(p, True)
    p.add_argument("--tol", default=1e-12)
    p.set_defaults(func=cmd_lie_check)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The only error-to-exit mapping: a refusal
    (StepRefusedError) prints "refused:" and exits 2, any other
    PoissonKamError prints "error:" and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StepRefusedError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except PoissonKamError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
