"""CPU emulation baseline: the timing model of the ALWANN-style direct loop.

The loop itself is :func:`repro.conv.reference.approx_conv2d_direct`; the
``cpusim`` backend of :mod:`repro.backends` runs it per chunk.
"""

from .direct import CPUTimingModel

__all__ = ["CPUTimingModel"]
