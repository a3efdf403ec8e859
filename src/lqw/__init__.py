"""Lackadaisical quantum walks on the line: exact simulation and asymptotics.

The package simulates discrete-time quantum walks with ``tau`` self-loops
per vertex under the Grover coin, and evaluates every known closed form for
their long-time behavior (localization probability, travelling-peak
velocities, weak-limit density, ballistic spread coefficient), each one
cross-validated against an independent numerical route.

Each layer's public names are listed once, in its module's ``__all__``; the
package re-exports them.
"""

__version__ = "1.0.0"

from . import analytics, core, errors, harness, spectral
from .analytics import *  # noqa: F403
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .harness import *  # noqa: F403
from .spectral import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *spectral.__all__,
    *analytics.__all__,
    *harness.__all__,
    *errors.__all__,
]
