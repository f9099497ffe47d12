"""huffkit: delta-correlated integer arrays and what they are good for.

Construct Huffman-style sequences and arrays whose aperiodic auto-correlation
is a near-perfect delta spike, score them, project them to lower dimensions,
tie them to their continuum (Airy) limit, and run the imaging experiments
they enable: diffuse-mask encode/decode and deblurring, two-shot pedestal
acquisition, computational ghost imaging, and noise studies.

``lattice`` and ``project`` (with numpy) load with the package; ``project``
loads eagerly so that ``huffkit.project`` is the function, which a later
import of the submodule would rebind to the module.  ``metrics``,
``construct``, ``continuum`` and ``imaging`` load on first use of one of
their names or of the submodule itself (PEP 562), so a program, such as one
CLI command, compiles and imports only the modules it runs.  The package and
each of those import with the cyclic garbage collector paused, then restored
to the caller's setting: their objects live as long as the process, so the
~40 collections a CLI command's imports ran took ~10 ms and freed almost nothing.
"""

import gc as _gc
import sys as _sys
from contextlib import contextmanager as _contextmanager


@_contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for an import; then move what it left to the oldest generation unscanned."""
    enabled = _gc.isenabled()
    _gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not _gc.get_freeze_count():  # else unfreeze() would release the caller's frozen objects
                _gc.freeze()  # every tracked object to the permanent generation; the allocation count to 0
                _gc.unfreeze()  # the permanent generation to the oldest, so no collection scans it all now
            _gc.enable()


with _collector_paused():
    from .lattice import *
    from .project import *  # binds huffkit.project to the function, not the module

__version__ = "0.1.0"

# the lazy submodules' export lists, here so that a name finds its module without
# importing it; each of those modules takes its __all__ from this table
_LAZY = {
    "metrics": (
        "QualityReport", "merit_factor", "side_lobe_ratio", "efficiency", "power", "spectral_flatness", "bits",
        "span_bits", "classify", "cross_metrics",
    ),
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
        "pedestal_pair", "GhostResult", "ghost_image", "BaselineStats", "random_baseline", "NoiseStudy",
        "multiplex_noise_study", "trial_rng",
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
    with _collector_paused():
        __import__(f"{__name__}.{owner}")  # unlike importlib.import_module, it shows in -X importtime
    module = _sys.modules[f"{__name__}.{owner}"]
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
