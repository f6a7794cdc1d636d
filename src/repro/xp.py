"""The array module of the numerical core: a plain alias of NumPy.

Every module of the numerical core (``repro.conv``, ``repro.lut``,
``repro.quantization``, ``repro.backends``, ``repro.cpusim``,
``repro.gpusim``) imports its arrays through this module::

    from repro import xp

    acc = xp.zeros((rows, cols), dtype=xp.int64)

Attribute access forwards to :mod:`numpy` (PEP 562 module ``__getattr__``),
so the core names one array namespace and a lint test keeps direct
``import numpy`` out of it.
"""

from __future__ import annotations

import numpy


def __getattr__(attr: str):
    """Forward attributes to :mod:`numpy`.

    Module dunders are deliberately *not* forwarded (``__version__``
    excepted): leaking numpy's ``__path__``/``__all__`` would make this
    module masquerade as a package of numpy's submodules to importlib and
    introspection tooling.
    """
    if attr.startswith("__") and attr.endswith("__") and attr != "__version__":
        raise AttributeError(f"module 'repro.xp' has no attribute {attr!r}")
    try:
        return getattr(numpy, attr)
    except AttributeError:
        raise AttributeError(
            f"numpy has no attribute {attr!r} (via repro.xp)") from None


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(dir(numpy)))
