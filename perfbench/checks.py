"""Result blocks of one normalize and one verify, and their check against the
recorded reference.

A block holds what a speed-up must not change: the status, step count and
eps sequence of a normalization plus the sha256 of
``jsonio.dumps(normal_form.to_payload())``, and the verdict plus the sha256
of ``jsonio.dumps(report.as_dict())`` of a persistence report.  The CLI
writes exactly those strings (plus a newline) to ``normal_form.json`` and
``persistence_report.json``, so both paths produce comparable blocks.
"""

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0

# other seeds of normalize_3dof only rotate the forcing phases, which is an
# angle translation: norms, and so the eps sequence, agree up to rounding
EPS_RTOL = 1e-6


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def normalize_block(result):
    from poisson_kam import jsonio

    return {
        "status": result.status,
        "steps": len(result.trace.rows),
        "eps_sequence": [float(v) for v in result.trace.eps_sequence()],
        "normal_form_sha256": sha256(jsonio.dumps(result.normal_form.to_payload())),
    }


def verify_block(report):
    from poisson_kam import jsonio

    return {
        "passed": bool(report.passed),
        "min_improvement": float(report.min_improvement),
        "threshold": float(report.threshold),
        "report_sha256": sha256(jsonio.dumps(report.as_dict())),
    }


def _file_text(path):
    text = Path(path).read_text()
    return text[:-1] if text.endswith("\n") else text


def cli_normalize_block(out_dir):
    """The normalize block read back from a ``poisson-kam normalize`` run."""
    lines = Path(out_dir, "trace.jsonl").read_text().splitlines()
    header = json.loads(lines[0])["header"]
    rows = [json.loads(line) for line in lines[1:]]
    return {
        "status": header["status"],
        "steps": len(rows),
        "eps_sequence": [float(header["eps0_measured"])] + [float(r["eps_out"]) for r in rows],
        "normal_form_sha256": sha256(_file_text(Path(out_dir, "normal_form.json"))),
    }


def cli_verify_block(out_dir):
    text = _file_text(Path(out_dir, "persistence_report.json"))
    report = json.loads(text)
    return {
        "passed": bool(report["passed"]),
        "min_improvement": float(report["min_improvement"]),
        "threshold": float(report["threshold"]),
        "report_sha256": sha256(text),
    }


def check_normalize(block, ref, seed, seed_independent):
    """Problems found in a normalize block; empty when it is correct.

    The reference is exact for the default seed and for workloads whose
    normalization does not depend on the seed.  Other seeds must converge in
    the reference number of steps with an eps sequence within EPS_RTOL.
    """
    if block is None:
        return ["no result"]
    errors = []
    if block["status"] != "converged":
        errors.append("status %s" % block["status"])
    if block["steps"] != ref["steps"]:
        errors.append("%d steps, reference %d" % (block["steps"], ref["steps"]))
    if seed == DEFAULT_SEED or seed_independent:
        if block["eps_sequence"] != ref["eps_sequence"]:
            errors.append("eps sequence %s differs from reference" % block["eps_sequence"])
        if block["normal_form_sha256"] != ref["normal_form_sha256"]:
            errors.append("normal form sha256 differs from reference")
    elif len(block["eps_sequence"]) != len(ref["eps_sequence"]) or not all(
        math.isclose(a, b, rel_tol=EPS_RTOL)
        for a, b in zip(block["eps_sequence"], ref["eps_sequence"])
    ):
        errors.append("eps sequence %s far from reference" % block["eps_sequence"])
    return errors


def check_verify(block, ref, seed):
    """Problems found in a verify block; the report digest is compared for
    the default seed, the verdict for every seed."""
    if block is None:
        return ["no result"]
    errors = []
    if not block["passed"] or not block["min_improvement"] >= block["threshold"]:
        errors.append(
            "min_improvement %r below threshold %r"
            % (block["min_improvement"], block["threshold"])
        )
    if seed == DEFAULT_SEED and block["report_sha256"] != ref["report_sha256"]:
        errors.append("persistence report sha256 differs from reference")
    return errors
