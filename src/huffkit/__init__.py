"""huffkit: delta-correlated integer arrays and what they are good for.

Construct Huffman-style sequences and arrays whose aperiodic auto-correlation
is a near-perfect delta spike, score them, project them to lower dimensions,
tie them to their continuum (Airy) limit, and run the imaging experiments
they enable: diffuse-mask encode/decode and deblurring, two-shot pedestal
acquisition, computational ghost imaging, watermarking, and noise studies.

``lattice``, ``metrics`` and ``project`` load with the package.
``construct``, ``continuum`` and ``imaging`` load on first use of one of
their names or of the submodule itself (PEP 562), so a program, such as one
CLI command, compiles and imports only the modules it runs.
"""

import sys as _sys

from .lattice import *
from .metrics import *
from .project import *  # binds huffkit.project to the function, not the module

__version__ = "0.1.0"

# the lazy submodules' export lists, here so that a name finds its module without
# importing it; each of those modules takes its __all__ from this table
_LAZY = {
    "construct": (
        "ConstructError", "HuffmanSpec", "AlphabetSolution", "phi_value", "fibonacci_huffman",
        "h5_family", "catalog", "diamond5_solve", "diamond7_solve", "diamond7_closed_form",
        "diamond_array", "build_diamond", "tensor_huffman", "build",
    ),
    "continuum": (
        "ContinuumError", "ProbeSpec", "DeltaReport", "TweakResult", "airy", "synthesize_probe",
        "verify_delta_correlation", "discretize_and_tweak",
    ),
    "imaging": (
        "ImagingError", "valid_region", "encode", "decode", "DeblurResult", "deblur",
        "pedestal_pair", "GhostResult", "ghost_image", "watermark_embed", "WatermarkMatch",
        "watermark_locate", "BaselineStats", "random_baseline", "NoiseStudy", "multiplex_noise_study",
        "trial_rng",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["__version__"] + [
    name
    for module in ("lattice", "metrics", "construct", "project", "continuum", "imaging")
    for name in _LAZY.get(module) or _sys.modules[f"{__name__}.{module}"].__all__
]


def __getattr__(name: str):
    owner = name if name in _LAZY else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{owner}")  # unlike importlib.import_module, it shows in -X importtime
    module = _sys.modules[f"{__name__}.{owner}"]
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
