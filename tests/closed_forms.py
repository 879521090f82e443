"""Closed forms shared by the test modules.

They live outside conftest.py because a module named `conftest` is
ambiguous once the benchmark's own tests, with their own conftest.py, are
collected in the same run.
"""

import numpy as np


# frozen closed forms for the unpinned nearest-neighbour chain at gamma=1,
# k=1/4: the two half-band integrals behind the interface response cancel
# by the reflection symmetry of sin about k=1/4, so 1/nu = 1 + 1/(2cos(pi/4))
NU_QUARTER = 2.0 - np.sqrt(2.0)
P_PLUS_QUARTER = 6.0 - 4.0 * np.sqrt(2.0)
P_MINUS_QUARTER = 3.0 - 2.0 * np.sqrt(2.0)
ABSORB_QUARTER = 6.0 * np.sqrt(2.0) - 8.0
