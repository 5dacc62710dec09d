"""``scipy.special``, imported on the first attribute read.

Importing ``scipy.special`` takes about as long as the rest of the package
(it pulls in ``numpy.testing``, ``unittest`` and ``importlib.metadata``), and
Poisson, GARCH and Gaussian-location simulation and coupling never need it.
The package therefore calls ``special.ndtri(...)`` and so on through this
module: the first read of a name imports ``scipy.special`` and stores the
function here, so every later read is a plain module attribute.  Nothing may
read a name at import time, or the saving is lost.
"""


def __getattr__(name):
    if name.startswith("_"):
        # probes such as the import system's ``__path__`` must neither import scipy
        # nor store scipy.special's own dunders here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    value = globals()[name] = getattr(special, name)
    return value
