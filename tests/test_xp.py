"""Tests of the ``repro.xp`` NumPy alias.

Three concerns are covered here:

1. the alias itself -- attribute forwarding to numpy and the module-dunder
   guard;
2. a lint-style sweep enforcing that the numerical core imports its arrays
   *only* through ``repro.xp`` -- direct ``import numpy`` is allowed only in
   ``xp.py`` itself and in the whitelisted shim packages that sit above the
   numerical core;
3. the fixed LUT-GEMM kernel table (its names, the unknown-name error and
   the size rule that picks a kernel when none is named).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro import xp
from repro.conv.gemm import KERNELS, default_gemm_kernel, lut_matmul
from repro.errors import RegistryError
from repro.lut import LookupTable
from repro.multipliers import library

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestAttributeForwarding:
    def test_default_backend_is_numpy(self):
        assert xp.ndarray is np.ndarray
        assert xp.asarray is np.asarray

    def test_attributes_forward_to_active_module(self):
        assert xp.int64 is np.int64
        arr = xp.zeros((2, 3), dtype=xp.int32)
        assert isinstance(arr, np.ndarray)
        assert xp.array_equal(xp.arange(4) + 1, np.arange(1, 5))

    def test_missing_attribute_names_the_backend(self):
        with pytest.raises(AttributeError, match="numpy"):
            xp.definitely_not_an_array_function

    def test_module_dunders_are_not_forwarded(self):
        """Leaked ``__path__``/``__all__`` would make xp masquerade as a
        package of numpy's submodules to importlib and doc tooling."""
        with pytest.raises(AttributeError, match="repro.xp"):
            xp.__path__
        with pytest.raises(AttributeError, match="repro.xp"):
            xp.__all__
        assert xp.__version__ == np.__version__   # the useful exception

    def test_dir_merges_module_and_backend_names(self):
        names = dir(xp)
        assert "numpy" in names             # xp's own global
        assert "ndarray" in names           # forwarded from numpy


# ----------------------------------------------------------------------
# Lint sweep: the numerical core must import arrays only through repro.xp
# ----------------------------------------------------------------------

#: Top-level shim packages allowed to import numpy directly: they adapt
#: external interfaces (model zoo, datasets, multiplier bit-level designs,
#: the graph/serving/training layers) rather than run the numerical core.
NUMPY_WHITELIST = {
    "multipliers", "graph", "models", "datasets",
    "serve", "train", "dse", "evaluation",
}


def _module_files():
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro")
        if rel.name == "xp.py":
            continue
        if rel.parts[0] in NUMPY_WHITELIST:
            continue
        yield path, rel


def test_core_modules_import_arrays_only_via_xp():
    offenders = []
    for path, rel in _module_files():
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped.startswith(("import numpy", "from numpy")):
                offenders.append(f"{rel}:{lineno}: {stripped}")
    assert not offenders, (
        "core modules must use `from repro import xp`, not numpy directly:\n"
        + "\n".join(offenders)
    )


def test_core_module_sweep_is_not_vacuous():
    """The lint walk must actually visit the numerical core."""
    names = {str(rel) for _, rel in _module_files()}
    assert "conv/gemm.py" in names
    assert "lut/table.py" in names
    assert "quantization/affine.py" in names
    assert "backends/registry.py" in names


# ----------------------------------------------------------------------
# LUT-GEMM kernel table
# ----------------------------------------------------------------------

class TestGemmKernelRegistry:
    def test_default_variants_are_registered(self):
        assert sorted(KERNELS) == ["blocked", "factored", "rowgather"]

    def test_unknown_kernel_raises_listing_known_names(self):
        lut = LookupTable.from_multiplier(library.create("mul8s_exact"))
        with pytest.raises(RegistryError, match="blocked"):
            lut_matmul([[1, 2]], [[3], [4]], lut, kernel="bogus")

    def test_default_follows_size_rule(self):
        assert default_gemm_kernel(0, 8) == "blocked"
        assert default_gemm_kernel(511, 8) == "blocked"
        assert default_gemm_kernel(512, 8) == "rowgather"
        assert default_gemm_kernel(8191, 12) == "blocked"
        assert default_gemm_kernel(8192, 12) == "rowgather"
