import os
import sys

# Before numpy loads: abbalab's BLAS products are tiny, so more threads only spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
