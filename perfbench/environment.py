"""Print what a result depends on besides the code, as one JSON line.

Run once per benchmark run before timing starts; importing poisson_kam here
also fills the bytecode and page caches, so the first timed repetition pays
no more than the later ones.  ``thread_cap()`` is read with
POISSON_KAM_THREADS unset, as it is for every process the benchmark starts.

    PYTHONPATH=src python3 perfbench/environment.py
"""

import json
import os
import platform


def environment():
    import numpy
    import scipy

    import poisson_kam
    from poisson_kam import dynamics

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_cap": dynamics.thread_cap(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "poisson_kam": poisson_kam.__version__,
        "poisson_kam_path": os.path.dirname(poisson_kam.__file__),
    }


if __name__ == "__main__":
    print(json.dumps(environment()))
