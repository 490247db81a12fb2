"""Process settings the benchmark fixes before numpy is imported.

Child interpreters inherit them through the environment.
"""
import os


def apply() -> None:
    # One BLAS thread, so that dense products do not compete with the
    # measuring process for the host's two vCPUs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # numpy asks for transparent huge pages for large arrays; whether the
    # host grants them depends on its memory fragmentation at the time, and
    # with them the speed of dense work and the peak RSS.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
