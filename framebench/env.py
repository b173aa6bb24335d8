"""Process set-up shared by the benchmark and its self-tests.

Importing this module pins the BLAS thread count and puts the checkout's
``src/`` first on ``sys.path``. It must be imported before numpy, because
OpenBLAS reads its thread count once, when it is loaded.
"""

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class MissingSourceError(RuntimeError):
    """The checkout does not hold the mpfollow sources next to the benchmark."""


def require_source():
    """Import mpfollow from this checkout's ``src/``, never from elsewhere."""
    package = os.path.join(SRC, "mpfollow", "__init__.py")
    if not os.path.isfile(package):
        raise MissingSourceError(f"no mpfollow sources at {package}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import mpfollow
    if os.path.dirname(os.path.abspath(mpfollow.__file__)) != os.path.dirname(package):
        raise MissingSourceError(
            f"mpfollow imported from {mpfollow.__file__}, not from {SRC}")
    return mpfollow
