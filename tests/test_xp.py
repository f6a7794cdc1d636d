"""Tests of the ``repro.xp`` array-backend indirection.

Three concerns are covered here:

1. the indirection itself -- attribute forwarding, backend registry
   round-trips, the ``REPRO_XP`` environment variable (exercised in
   subprocesses, since it is read once at import time), and the capability
   probe for optional array modules;
2. a lint-style sweep enforcing that the numerical core imports its arrays
   *only* through ``repro.xp`` -- direct ``import numpy`` is allowed only in
   ``xp.py`` itself and in the whitelisted shim packages that sit above the
   numerical core;
3. the LUT-GEMM *kernel* registry (register/unregister, default resolution
   by call size, ``REPRO_GEMM_KERNEL``).
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from repro import xp
from repro.conv.gemm import (
    available_gemm_kernels,
    default_gemm_kernel,
    get_gemm_kernel,
    lut_matmul_naive,
    register_gemm_kernel,
    set_default_gemm_kernel,
    unregister_gemm_kernel,
)
from repro.errors import ConfigurationError, RegistryError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_py(code: str, **env_vars) -> subprocess.CompletedProcess:
    """Run a snippet in a fresh interpreter with src/ importable."""
    import os

    env = dict(os.environ, PYTHONPATH=str(SRC), **env_vars)
    return subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True,
    )


class TestAttributeForwarding:
    def test_default_backend_is_numpy(self):
        assert xp.backend_name() == "numpy"
        assert xp.current_backend() is np

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
        package of the backend's submodules to importlib and doc tooling."""
        with pytest.raises(AttributeError, match="repro.xp"):
            xp.__path__
        with pytest.raises(AttributeError, match="repro.xp"):
            xp.__all__
        assert xp.__version__ == np.__version__   # the useful exception

    def test_dir_merges_module_and_backend_names(self):
        names = dir(xp)
        assert "use_backend" in names       # xp's own API
        assert "ndarray" in names           # forwarded from numpy


class TestBackendRegistry:
    def test_numpy_and_cupy_are_preregistered(self):
        names = xp.available_array_backends()
        assert "numpy" in names and "cupy" in names

    def test_unknown_backend_raises_listing_known_names(self):
        with pytest.raises(ConfigurationError, match="numpy"):
            xp.use_backend("tpu")

    def test_register_use_unregister_round_trip(self):
        fake = types.ModuleType("fake_arrays")
        fake.zeros = np.zeros
        fake.marker = "fake"
        xp.register_array_backend("fake", lambda: fake)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                xp.register_array_backend("fake", lambda: fake)
            xp.use_backend("fake")
            try:
                assert xp.backend_name() == "fake"
                assert xp.marker == "fake"
                # The active backend cannot be unregistered out from under us.
                with pytest.raises(ConfigurationError, match="active"):
                    xp.unregister_array_backend("fake")
            finally:
                xp.use_backend("numpy")
        finally:
            xp.unregister_array_backend("fake")
        assert "fake" not in xp.available_array_backends()
        with pytest.raises(ConfigurationError, match="not registered"):
            xp.unregister_array_backend("fake")

    def test_numpy_backend_cannot_be_unregistered(self):
        with pytest.raises(ConfigurationError, match="numpy"):
            xp.unregister_array_backend("numpy")

    def test_register_rejects_non_callable_loader(self):
        with pytest.raises(ConfigurationError, match="callable"):
            xp.register_array_backend("broken", np)  # type: ignore[arg-type]

    def test_loader_returning_non_module_raises(self):
        xp.register_array_backend("broken", lambda: 42)  # type: ignore[return-value]
        try:
            with pytest.raises(ConfigurationError, match="not a module"):
                xp.use_backend("broken")
            assert xp.backend_name() == "numpy"   # selection did not change
        finally:
            xp.unregister_array_backend("broken")

    @pytest.mark.skipif(xp.has_module("cupy"),
                        reason="cupy present: the loader would succeed")
    def test_cupy_selection_fails_clearly_when_absent(self):
        with pytest.raises(ConfigurationError, match="cupy"):
            xp.use_backend("cupy")
        assert xp.backend_name() == "numpy"


class TestEnvironmentSelection:
    def test_env_var_selects_backend_at_import(self):
        proc = run_py(
            "from repro import xp; print(xp.backend_name())",
            REPRO_XP="numpy",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"

    def test_unknown_env_backend_fails_at_import(self):
        proc = run_py("import repro", REPRO_XP="not-a-backend")
        assert proc.returncode != 0
        assert "not-a-backend" in proc.stderr

    def test_no_env_var_defaults_to_numpy(self):
        code = (
            "import os; os.environ.pop('REPRO_XP', None)\n"
            "import importlib; import repro.xp\n"
            "print(repro.xp.backend_name())"
        )
        proc = run_py(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"


class TestCapabilities:
    def test_probe_reports_numpy_and_optional_packages(self):
        caps = xp.capabilities()
        assert caps["numpy"] is True
        assert set(caps) == {"numpy", "cupy"}
        assert caps["cupy"] == xp.has_module("cupy")

    def test_probe_is_cached_and_refreshable(self):
        first = xp.capabilities()
        assert xp.capabilities() == first
        assert xp.capabilities(refresh=True) == first

    def test_has_module_on_missing_module(self):
        assert xp.has_module("os")
        assert not xp.has_module("definitely_not_a_module_xyz")


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
# LUT-GEMM kernel registry
# ----------------------------------------------------------------------

class TestGemmKernelRegistry:
    def test_default_variants_are_registered(self):
        assert available_gemm_kernels() == ["blocked", "naive", "rowgather"]

    def test_unknown_kernel_raises_listing_known_names(self):
        with pytest.raises(RegistryError, match="blocked"):
            get_gemm_kernel("definitely-not-a-kernel")

    def test_register_and_unregister_round_trip(self):
        register_gemm_kernel("naive_alias", lut_matmul_naive)
        try:
            assert get_gemm_kernel("naive_alias") is lut_matmul_naive
            with pytest.raises(RegistryError, match="already registered"):
                register_gemm_kernel("naive_alias", lut_matmul_naive)
        finally:
            unregister_gemm_kernel("naive_alias")
        assert "naive_alias" not in available_gemm_kernels()
        with pytest.raises(RegistryError, match="not registered"):
            unregister_gemm_kernel("naive_alias")

    def test_register_rejects_non_callable(self):
        with pytest.raises(RegistryError, match="callable"):
            register_gemm_kernel("bogus", object())  # type: ignore[arg-type]

    def test_default_resolution_override_wins(self):
        assert default_gemm_kernel() in available_gemm_kernels()
        set_default_gemm_kernel("naive")
        try:
            assert default_gemm_kernel() == "naive"
        finally:
            set_default_gemm_kernel(None)
        with pytest.raises(RegistryError):
            set_default_gemm_kernel("not-a-kernel")

    def test_env_var_selects_default_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_GEMM_KERNEL", "naive")
        assert default_gemm_kernel() == "naive"
        monkeypatch.setenv("REPRO_GEMM_KERNEL", "not-a-kernel")
        with pytest.raises(RegistryError):
            default_gemm_kernel()

    def test_default_follows_size_rule(self, monkeypatch):
        monkeypatch.delenv("REPRO_GEMM_KERNEL", raising=False)
        assert default_gemm_kernel() == "blocked"
        assert default_gemm_kernel(511) == "blocked"
        assert default_gemm_kernel(512) == "rowgather"
        assert default_gemm_kernel(8191, bit_width=12) == "blocked"
        assert default_gemm_kernel(8192, bit_width=12) == "rowgather"
        # The environment variable beats the size rule.
        monkeypatch.setenv("REPRO_GEMM_KERNEL", "naive")
        assert default_gemm_kernel(1 << 20) == "naive"
