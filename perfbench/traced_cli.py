"""Run ``poisson_kam.cli.main`` with the layer wrappers installed.

Times the import of ``poisson_kam.cli`` (counted as ``cli.import_s``),
installs the wrappers, runs the command, removes the wrappers and writes the
spans, then exits with the command's exit code.

    python3 perfbench/traced_cli.py --spans spans.npz -- normalize --problem p.json --out run
"""

import time

_t0 = time.perf_counter()
import poisson_kam.cli  # noqa: E402

_import_s = time.perf_counter() - _t0

import argparse  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = poisson_kam.cli.main(command)
    finally:
        tracer.uninstall()
        tracer.count("cli.import_s", _import_s)
        tracer.save(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
