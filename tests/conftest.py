"""Import skd before numpy, so the suite runs at one BLAS thread, as the CLI does.

Importing skd defaults the BLAS libraries to one thread before numpy loads
(see ``skd/__init__.py``); importing it here, before any test module, makes
that hold whichever module is collected first, so the suite exercises the
CLI's configuration. Selection energies do not depend on it: they are numpy
sums, with no BLAS call (``tests/test_cli.py::TestBlasThreads`` checks the CLI
at one and two threads). A thread count set explicitly in the environment
still wins.
"""

import skd  # noqa: F401
