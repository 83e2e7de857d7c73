"""One library repetition in a fresh interpreter.

Sets up (import, problem construction, ``Problem.initialize()``), normalizes
and, on verify workloads, runs the persistence report, then writes the stage
timestamps and the result block as JSON.  With ``--spans`` the layer wrappers
are installed after the import and the spans are written there.

    python3 perfbench/worker.py --workload verify_rescaled --seed 0 --out rep.json
"""

import argparse
import json
import sys
import time


def clock():
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # spawn time from these stamps
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from poisson_kam import dynamics, kolmogorov

    import checks
    import workloads

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    problem = workloads.build(args.workload, args.seed)
    setup = problem.initialize()
    t_setup = clock()
    result = kolmogorov.run(setup)
    t_normalize = clock()
    report = None
    if workloads.WORKLOADS[args.workload].verifies:
        report = dynamics.torus_persistence_report(
            setup.decomp.full,
            setup.structure,
            result.chi_records,
            t_end=float(problem.option("t_end")),
            tol=float(problem.option("tol")),
            n_angles=workloads.N_ANGLES,
            threshold=float(problem.option("threshold")),
            angle_offset=workloads.angle_offset(args.seed),
            omega=setup.freq.omega,
        )
    t_verify = clock()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.spans)
    payload = {
        "t_setup": t_setup,
        "t_normalize": t_normalize,
        "t_verify": t_verify,
        "normalize": checks.normalize_block(result),
        "verify": checks.verify_block(report) if report is not None else None,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
