"""Import skd before numpy, so the suite runs at one BLAS thread, as the CLI does.

Importing skd defaults the BLAS libraries to one thread before numpy loads
(see ``skd/__init__.py``); importing it here, before any test module, makes
that hold whichever module is collected first. ``TestStressGolden`` pins
energies whose dot products run over more than 10,000 edges, which OpenBLAS
splits across its threads, so its digest is a one-thread value. A thread
count set explicitly in the environment still wins.
"""

import skd  # noqa: F401
