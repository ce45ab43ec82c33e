"""Computational algebra for finite characteristic-one semirings.

Build or load a finite B1-algebra (idempotent addition, 1 + 1 = 1), then
compute its ideals, saturations, radicals, spectra, associated primes,
weak primary decompositions and Evans reports, or run the full audit that
checks every structural law on the given instance.
"""

__version__ = "0.1.0"

# The star import of .spectrum rebinds the name spectrum to the function.
from . import algebra, decompose, ideals, spectrum as _spectrum
from .algebra import *
from .ideals import *
from .spectrum import *
from .decompose import *

__all__ = ("__version__", *algebra.__all__, *ideals.__all__, *_spectrum.__all__, *decompose.__all__)
