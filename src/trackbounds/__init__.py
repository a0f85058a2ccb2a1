"""Translate time-domain tracking specifications into frequency-domain bounds.

A specification (overshoot, rise time, settling time, settlement band,
frequency multiplier) generates a family of second-order curves; the
library selects or fits lower/upper bound transfer functions from that
family and verifies them by simulating their step responses back into
time-domain metrics.

Each module's __all__ lists its public names, and the package exports
them all; the cli module stays out of the package namespace.
"""

__version__ = "0.1.0"

from . import envelope, errors, family, pipeline, ratfit, simulate, sos_core, tf_model, timing
from .errors import *  # noqa: F403
from .tf_model import *  # noqa: F403
from .sos_core import *  # noqa: F403
from .timing import *  # noqa: F403
from .family import *  # noqa: F403
from .envelope import *  # noqa: F403
from .ratfit import *  # noqa: F403
from .simulate import *  # noqa: F403
from .pipeline import *  # noqa: F403

__all__ = ["__version__"] + [name for module in (errors, tf_model, sos_core, timing, family,
                                                 envelope, ratfit, simulate, pipeline)
                             for name in module.__all__]
