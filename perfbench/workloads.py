"""The workloads, and the problems the benchmark feeds to poisson_kam, built
from the workload seed.

Only this module turns a seed into inputs; the package sees the generated
problems and nothing else.  poisson_kam is imported inside the builders, so
the benchmark's parent process can read the workload table without it.
"""

import math
import random
from typing import NamedTuple

N_ANGLES = 8


class Workload(NamedTuple):
    verifies: bool  # a repetition runs verify after normalize
    cli: bool  # through poisson-kam subprocesses instead of library calls
    seeded_normalize: bool  # the seed changes what normalize computes


WORKLOADS = {
    "normalize_3dof": Workload(verifies=False, cli=False, seeded_normalize=True),
    "verify_rescaled": Workload(verifies=True, cli=False, seeded_normalize=False),
    "cli_benchmark": Workload(verifies=True, cli=True, seeded_normalize=False),
}


def stress_phases(seed):
    """Three phases in [0, 2 pi), one per forcing term, fixed by the seed."""
    rng = random.Random(seed)
    return [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]


def stress_problem(seed):
    """Canonical 3-DOF stress problem: h = |y|^2/2 around y* = omega with
    omega = (1, phi, 1 + sqrt 2), and
    f = exp(-a xi) [cos(x1 + t1) + cos(x1 + x2 + t2)/2 + cos(x2 + x3 + t3)/2].
    """
    import numpy as np
    from poisson_kam.bracket import StructureMatrix
    from poisson_kam.problems import GOLDEN, Problem
    from poisson_kam.series import FourierTaylorSeries, Truncation

    a, epsilon, tau = 0.5, 1e-4, 1.2
    trunc = Truncation(8, 3, 8)
    omega = (1.0, GOLDEN, 1.0 + math.sqrt(2.0))
    zero_k = (0, 0, 0)
    h = FourierTaylorSeries.from_terms(
        3, 3, a, trunc,
        [(zero_k, tuple(2 if j == i else 0 for j in range(3)), 0, 0, 0.5) for i in range(3)],
    )
    terms = []
    for k, amp, theta in zip(
        ((1, 0, 0), (1, 1, 0), (0, 1, 1)), (1.0, 0.5, 0.5), stress_phases(seed)
    ):
        half = 0.5 * amp * complex(math.cos(theta), math.sin(theta))
        terms.append((k, zero_k, 0, 1, half))
        terms.append((tuple(-v for v in k), zero_k, 0, 1, half.conjugate()))
    f = FourierTaylorSeries.from_terms(3, 3, a, trunc, terms)
    return Problem(
        n=3,
        m=3,
        a=a,
        epsilon=epsilon,
        tau=tau,
        y_star=np.asarray(omega),
        trunc=trunc,
        h=h,
        f=f,
        structure=StructureMatrix.canonical(3, a, trunc),
        options={"rho": 0.5, "sigma": 1.0},
    )


def angle_offset(seed, n_angles=N_ANGLES):
    """The CLI's own rule for turning a problem seed into an angle offset."""
    return (seed % 1000) / 1000.0 * 2.0 * math.pi / n_angles


def build(workload, seed):
    """The workload's poisson_kam Problem for this seed."""
    from poisson_kam.problems import benchmark_problem, rescaled_benchmark_problem

    if workload == "normalize_3dof":
        return stress_problem(seed)
    if workload == "verify_rescaled":
        return rescaled_benchmark_problem()
    if workload == "cli_benchmark":
        return benchmark_problem(epsilon=1e-3, seed=seed)
    raise ValueError("unknown workload %r" % workload)
