"""Trace-norm steering detection and monogamy analysis for three-qubit states.

The public names are those each module lists in its __all__.
"""

from .monogamy import *  # noqa: F403
from .randgen import *  # noqa: F403
from .states import *  # noqa: F403
from .steering import *  # noqa: F403

__version__ = "0.1.0"
