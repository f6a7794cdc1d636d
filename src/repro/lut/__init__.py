"""Lookup-table emulation of approximate multipliers.

The flat table mirrors the CUDA implementation of the paper: the multiplier
truth table is bound once to texture memory and each approximate
multiplication becomes a single indexed fetch.  :class:`TextureCacheModel`
estimates how well those fetches hit the texture cache.
"""

from .table import LookupTable
from .texture import TextureCacheModel

__all__ = [
    "LookupTable",
    "TextureCacheModel",
]
