"""Load numpy before skd, so the suite runs at the BLAS library's default thread count.

Importing skd first would default BLAS to one thread (see ``skd/__init__.py``),
and which test module is collected first would then decide the thread count.
``TestStressGolden`` pins energies whose dot products run over more than
10,000 edges, which OpenBLAS splits across its threads, and its digest was
taken with OpenBLAS's default of one thread per core on two cores. Set
``OPENBLAS_NUM_THREADS`` explicitly to run the suite with another count.
"""

import numpy  # noqa: F401
