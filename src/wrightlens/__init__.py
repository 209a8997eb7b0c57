"""Numerics for a meromorphic operator class on the punctured unit disk.

The package covers the kernel series and its coefficients, truncated
Laurent-series arithmetic, the coefficient-bound sequence in recursive and
closed form, class-membership and convolution tests, a Schwarz-function
generator for members, and solvers for radii of starlikeness and convexity.
Each layer's ``__all__`` is re-exported here.
"""

from .bounds import *  # noqa: F403
from .errors import *  # noqa: F403
from .laurent import *  # noqa: F403
from .membership import *  # noqa: F403
from .radii import *  # noqa: F403
from .special import *  # noqa: F403

__version__ = "0.1.0"
