"""huffkit: delta-correlated integer arrays and what they are good for.

Construct Huffman-style sequences and arrays whose aperiodic auto-correlation
is a near-perfect delta spike, score them, project them to lower dimensions,
tie them to their continuum (Airy) limit, and run the imaging experiments
they enable: diffuse-mask encode/decode and deblurring, two-shot pedestal
acquisition, computational ghost imaging, watermarking, and noise studies.
"""

import sys as _sys

from .lattice import *
from .metrics import *
from .construct import *
from .project import *  # binds huffkit.project to the function, not the module
from .continuum import *
from .imaging import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in ("lattice", "metrics", "construct", "project", "continuum", "imaging")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
]
