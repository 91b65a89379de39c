"""Range ambiguity functions and beamdepth metrics for near-field arrays."""

__version__ = "0.1.0"

from .geometry import *  # noqa: F403
from .ambiguity import *  # noqa: F403
from .closed_form import *  # noqa: F403
from .metrics import *  # noqa: F403
from .specfun import *  # noqa: F403

# the public names are those each layer module lists in its own __all__
__all__ = [*geometry.__all__, *ambiguity.__all__, *closed_form.__all__,  # noqa: F405
           *metrics.__all__, *specfun.__all__]
