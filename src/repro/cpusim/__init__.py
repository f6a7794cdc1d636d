"""CPU emulation baseline: the timing model of the ALWANN-style direct loop.

The loop itself is :func:`repro.conv.reference.approx_conv2d_direct`, the
reference the tests check the vectorised engine against.
"""

from .direct import CPUTimingModel

__all__ = ["CPUTimingModel"]
