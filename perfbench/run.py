"""End-to-end benchmark of poisson_kam, one workload per invocation.

    python3 perfbench/run.py --workload verify_rescaled --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Closed loop, one client: repetitions run back to back, each in fresh
processes, for about ``--seconds`` (at least one).  A library
repetition is one ``worker.py`` process (set up, normalize, verify); a CLI
repetition is ``make_problem.py``, ``poisson-kam normalize`` and
``poisson-kam verify --write-trajectories``, run as ``python3 -m
poisson_kam.cli``.  Every normalize and verify is checked against
``reference.json``; a failed check counts in ``failed`` and makes the exit
code nonzero.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json as
medians over the repetitions.  ``--trace 1`` runs one untraced repetition and
then traced ones (layer wrappers from ``tracing.py``), and reports the
per-layer metrics, medians over the traced repetitions, plus
``tracing.overhead_s``, the traced minus the untraced ``total_s``.

The program is built from ``src/`` of the checkout this file sits in; the
run fails when that is missing.  Scratch files go to ``.perfbench/``.
``--write-reference`` records the result blocks of one repetition (default
seed only) into ``reference.json``, for a change that alters the numbers on
purpose.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench"

# a run must end within 180 s; no repetition may start after this
HARD_LIMIT_S = 150.0


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Fail(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env():
    env = dict(os.environ)
    env.pop("POISSON_KAM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Proc:
    """One finished child process: exit code, wall time, peak RSS."""

    def __init__(self, argv, log, timeout):
        self.start = clock()
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT
            )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; Popen.wait would not
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.end = clock()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log = log


def python(script, *args):
    return [sys.executable, str(HERE / script)] + [str(a) for a in args]


def cli(trace, spans, *args):
    if trace:
        return python("traced_cli.py", "--spans", spans, "--", *args)
    return [sys.executable, "-m", "poisson_kam.cli"] + [str(a) for a in args]


def _last_line(path):
    lines = Path(path).read_text().strip().splitlines()
    return lines[-1] if lines else "(no output)"


def library_rep(workload, seed, trace, rep_dir, timeout):
    out, spans = rep_dir / "result.json", rep_dir / "spans.npz"
    args = ["--workload", workload, "--seed", seed, "--out", out]
    if trace:
        args += ["--spans", spans]
    p = Proc(python("worker.py", *args), rep_dir / "worker.log", timeout)
    rep = {"peak_rss_mb": p.rss_mb, "spans": [spans] if trace else []}
    if p.code != 0:
        rep["error"] = "worker exit %d: %s" % (p.code, _last_line(p.log))
        return rep
    data = json.loads(out.read_text())
    rep["setup_s"] = data["t_setup"] - p.start
    rep["normalize_s"] = data["t_normalize"] - data["t_setup"]
    if data["verify"] is not None:
        rep["verify_s"] = data["t_verify"] - data["t_normalize"]
    rep["normalize"], rep["verify"] = data["normalize"], data["verify"]
    return rep


def cli_rep(workload, seed, trace, rep_dir, timeout):
    problem, run_dir = rep_dir / "problem.json", rep_dir / "run"
    steps = [
        ("setup_s", python("make_problem.py", "--workload", workload, "--seed", seed, "--out", problem)),
        ("normalize_s", cli(trace, rep_dir / "normalize.npz", "normalize", "--problem", problem, "--out", run_dir)),
        ("verify_s", cli(trace, rep_dir / "verify.npz", "verify", "--problem", problem, "--out", run_dir, "--write-trajectories")),
    ]
    rep = {"peak_rss_mb": 0.0, "spans": [rep_dir / "normalize.npz", rep_dir / "verify.npz"] if trace else []}
    for metric, argv in steps:
        p = Proc(argv, rep_dir / (metric + ".log"), timeout)
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], p.rss_mb)
        if p.code != 0:
            rep["error"] = "%s step exit %d: %s" % (metric[:-2], p.code, _last_line(p.log))
            break
        rep[metric] = p.wall
    if "normalize_s" in rep:
        rep["normalize"] = checks.cli_normalize_block(run_dir)
    if "verify_s" in rep:
        rep["verify"] = checks.cli_verify_block(run_dir)
    return rep


def rep_runner(workload):
    return cli_rep if workloads.WORKLOADS[workload].cli else library_rep


def check_rep(workload, seed, rep, reference):
    """Attempted and failed operations of one repetition, with the reasons.
    An operation whose process failed has no result block, so it fails."""
    spec = workloads.WORKLOADS[workload]
    ref = reference[workload]
    errors = {
        "normalize": checks.check_normalize(
            rep.get("normalize"), ref["normalize"], seed, not spec.seeded_normalize
        )
    }
    if spec.verifies:
        errors["verify"] = checks.check_verify(rep.get("verify"), ref["verify"], seed)
    problems = ["%s: %s" % (op, e) for op, errs in errors.items() for e in errs]
    if "error" in rep:
        problems.append(rep["error"])
    return len(errors), sum(1 for errs in errors.values() if errs), problems


def run_reps(workload, seed, tag, reference, trace_flags, deadline):
    """Repetitions with the given trace flags; the last flag repeats until
    the deadline.  Returns (reps, attempted, failed)."""
    run_fn = rep_runner(workload)
    reps, attempted, failed = [], 0, 0
    started = clock()
    i = 0
    while True:
        trace = trace_flags[min(i, len(trace_flags) - 1)]
        rep_dir = SCRATCH / tag / ("rep%02d" % i)
        rep_dir.mkdir(parents=True)
        timeout = max(1.0, started + HARD_LIMIT_S - clock())
        rep = run_fn(workload, seed, trace, rep_dir, timeout)
        rep["trace"] = trace
        if trace:
            rep["layers"] = layer_metrics(rep["spans"]) if "error" not in rep else {}
        n, bad, problems = check_rep(workload, seed, rep, reference)
        attempted += n
        failed += bad
        for p in problems:
            print("check failed (rep %d, kept in %s): %s" % (i, rep_dir, p))
        if not problems:
            shutil.rmtree(rep_dir)
        rep["total_s"] = sum(rep.get(k, 0.0) for k in ("setup_s", "normalize_s", "verify_s"))
        reps.append(rep)
        i += 1
        elapsed = clock() - started
        per_rep = elapsed / i
        # start another repetition only if it should end by the deadline plus
        # half a repetition, so a run lasts about --seconds on average
        if i >= len(trace_flags) and (elapsed + 0.5 * per_rep >= deadline or bad):
            break
        # and well inside the 180 s a run may take
        if elapsed + 1.5 * per_rep > HARD_LIMIT_S:
            break
    if not any((SCRATCH / tag).iterdir()):
        (SCRATCH / tag).rmdir()
    return reps, attempted, failed


def layer_metrics(span_files):
    import tracing

    return tracing.layer_metrics(*tracing.combine([tracing.load(f) for f in span_files]))


def median(values):
    return statistics.median(values) if values else 0.0


def describe(name, values, unit):
    """A timing as the benchmark reports it: median, sample count, and the
    highest percentile that still has ten samples beyond it (if any)."""
    line = "%-28s %12.6g %-6s median of n=%d" % (name, median(values), unit, len(values))
    n = len(values)
    if n >= 20:
        q = max(p for p in (50, 90, 95, 99) if n * (100 - p) / 100.0 >= 10)
        line += ", p%d %.6g" % (q, statistics.quantiles(values, n=100)[q - 1])
    else:
        line += " (no percentile has ten samples beyond it)"
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if not (SRC / "poisson_kam" / "__init__.py").is_file():
        raise Fail("no poisson_kam sources under %s" % SRC)
    SCRATCH.mkdir(exist_ok=True)

    probe = subprocess.run(
        python("environment.py"), cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=20,
    )
    if probe.returncode != 0:
        raise Fail("cannot import poisson_kam from %s: %s" % (SRC, probe.stderr.strip()[-500:]))
    env = json.loads(probe.stdout)
    if Path(env["poisson_kam_path"]).resolve() != (SRC / "poisson_kam").resolve():
        raise Fail("poisson_kam imported from %s, not %s" % (env["poisson_kam_path"], SRC))
    print("environment %s" % json.dumps(env, sort_keys=True))

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for name in names:
            write_reference(name, args.seed)
        return 0
    reference = json.loads(REFERENCE.read_text())
    results = {}
    for name in names:
        results[name] = run_workload(name, args, bench, reference, env)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_workload(workload, args, bench, reference, env):
    """Run one workload for ``args.seconds``, print its metrics by name with
    units, and return the result object."""
    tag = "%s-s%d-t%d-%d" % (workload, args.seed, args.trace, os.getpid())
    flags = [0, 1] if args.trace else [0]
    reps, attempted, failed = run_reps(workload, args.seed, tag, reference, flags, args.seconds)
    untraced = [r for r in reps if not r["trace"] and "error" not in r]
    traced = [r for r in reps if r["trace"] and "error" not in r]

    print("workload %s seed %d trace %d: %d repetitions, closed loop, one client"
          % (workload, args.seed, args.trace, len(reps)))
    metrics = {}
    if args.trace:
        overhead = median([r["total_s"] for r in traced]) - median([r["total_s"] for r in untraced])
        for m in bench["per_layer"]:
            if m["name"] == "tracing.overhead_s":
                value = overhead
            else:
                value = median([r["layers"][m["name"]] for r in traced])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        ranked = sorted(
            (k for k in metrics if k.endswith(".self_s")), key=lambda k: -metrics[k]["value"]
        )
        print("largest self times: " + ", ".join(
            "%s %.3f s" % (k[: -len(".self_s")], metrics[k]["value"]) for k in ranked[:5]))
    else:
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in untraced if m["name"] in r]
            metrics[m["name"]] = {"value": median(values), "unit": m["unit"]}
            print(describe(m["name"], values, m["unit"]))
        # the stage times inside total_s, printed but not gated
        for name in ("normalize_s", "verify_s"):
            values = [r[name] for r in untraced if name in r]
            if values and name not in metrics:
                print(describe(name, values, "s"))
    print("error_rate %d/%d = %.3g" % (failed, attempted, failed / attempted if attempted else 1.0))
    (SCRATCH / ("last-%s-trace%d.json" % (workload, args.trace))).write_text(json.dumps(
        {"workload": workload, "seed": args.seed, "environment": env,
         "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
         "metrics": metrics}, indent=1, default=str))
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_reference(workload, seed):
    """Record one repetition's result blocks as the workload's reference."""
    if seed != checks.DEFAULT_SEED:
        raise Fail("references are recorded for the default seed only")
    rep_dir = SCRATCH / ("%s-reference-%d" % (workload, os.getpid()))
    rep_dir.mkdir(parents=True)
    rep = rep_runner(workload)(workload, seed, 0, rep_dir, HARD_LIMIT_S)
    if "error" in rep:
        raise Fail(rep["error"])
    shutil.rmtree(rep_dir)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[workload] = {"seed": seed, "normalize": rep["normalize"], "verify": rep.get("verify")}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print("reference for %s recorded in %s" % (workload, REFERENCE))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Fail as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
