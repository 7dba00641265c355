"""Oscillation/transient separation toolkit.

Simulates multichannel recordings where narrow-band gamma bursts coexist
with large sharp transients, separates the two by masked stationary wavelet
thresholding, maps normalized band energy across channels and time, and
models the arithmetic cost of running that chain on a small dataflow
pipeline, serially and with two parallel convolution units.

The public names are the `__all__` lists of the library modules below;
the command-line front end stays outside them, in `gammasep.cli`.
"""

from . import backends, despike, signal_core, simulate, swt, tfmap, tickmodel
from .backends import *
from .despike import *
from .signal_core import *
from .simulate import *
from .swt import *
from .tfmap import *
from .tickmodel import *

__version__ = "0.1.0"

__all__ = [
    *backends.__all__, *despike.__all__, *signal_core.__all__,
    *simulate.__all__, *swt.__all__, *tfmap.__all__, *tickmodel.__all__,
    "__version__",
]
