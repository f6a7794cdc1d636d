"""Array-module indirection: the single seam between ``repro`` and its arrays.

Every module of the numerical core (``repro.conv``, ``repro.lut``,
``repro.quantization``, ``repro.backends``, ``repro.cpusim``,
``repro.gpusim``) imports its array library through this module::

    from repro import xp

    acc = xp.zeros((rows, cols), dtype=xp.int64)

``xp`` resolves to NumPy by default and forwards attribute access to the
*active* array module at call time (PEP 562 module ``__getattr__``), so
swapping the array library is a process-wide, single-point operation -- the
idiom QuantumTransportToolbox uses to run the same kernels on NumPy or CuPy
without touching call sites.

Resolution order of the active backend:

1. :func:`use_backend` -- an explicit programmatic selection always wins;
2. the ``REPRO_XP`` environment variable, read once at import time
   (``REPRO_XP=cupy python ...``);
3. the default, ``numpy``.

Array backends are named loaders in a registry mirroring
:mod:`repro.backends.registry`: ``numpy`` is always present, ``cupy`` is
pre-registered and resolved lazily (selecting it raises a clear
:class:`~repro.errors.ConfigurationError` when the package is missing), and
user code may add further array modules with :func:`register_array_backend`.
:func:`capabilities` reports which of those optional array modules this
environment can import.

The module deliberately has no dependency on the rest of ``repro`` beyond
:mod:`repro.errors`, so it can never participate in an import cycle with the
numerical modules that use it.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import threading
import types
from typing import Callable

import numpy

from .errors import ConfigurationError

#: Environment variable selecting the array backend at interpreter start.
ENV_VAR = "REPRO_XP"

#: Optional third-party modules probed by :func:`capabilities`.
_PROBED_MODULES = ("cupy",)

_LOCK = threading.RLock()

BackendLoader = Callable[[], types.ModuleType]


def _load_cupy() -> types.ModuleType:
    try:
        return importlib.import_module("cupy")
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise ConfigurationError(
            "array backend 'cupy' is registered but the cupy package is not "
            "installed in this environment"
        ) from exc


_LOADERS: dict[str, BackendLoader] = {
    "numpy": lambda: numpy,
    "cupy": _load_cupy,
}

_ACTIVE_NAME: str = "numpy"
_ACTIVE_MODULE: types.ModuleType = numpy


def register_array_backend(name: str, loader: BackendLoader, *,
                           overwrite: bool = False) -> None:
    """Register a zero-argument loader returning an array module.

    Mirrors :func:`repro.backends.register_backend`: duplicate names raise
    :class:`~repro.errors.ConfigurationError` unless ``overwrite`` is set.
    The loader runs on first :func:`use_backend` selection, so registering a
    backend whose package may be absent is safe.
    """
    if not callable(loader):
        raise ConfigurationError(
            f"array backend loader must be callable, got {type(loader).__name__}"
        )
    with _LOCK:
        if not overwrite and name in _LOADERS:
            raise ConfigurationError(
                f"array backend {name!r} is already registered"
            )
        _LOADERS[name] = loader


def unregister_array_backend(name: str) -> None:
    """Remove a registered array backend (unknown names raise)."""
    with _LOCK:
        if name not in _LOADERS:
            raise ConfigurationError(f"array backend {name!r} is not registered")
        if name == "numpy":
            raise ConfigurationError("the numpy backend cannot be unregistered")
        if name == _ACTIVE_NAME:
            raise ConfigurationError(
                f"array backend {name!r} is active; switch with use_backend() "
                "before unregistering it"
            )
        del _LOADERS[name]


def available_array_backends() -> list[str]:
    """Sorted names of every registered array backend."""
    with _LOCK:
        return sorted(_LOADERS)


def use_backend(name: str) -> types.ModuleType:
    """Select the active array module by registry name and return it.

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing the
    registered backends, so a typo in ``REPRO_XP`` fails fast instead of
    silently computing on the wrong library.
    """
    with _LOCK:
        try:
            loader = _LOADERS[name]
        except KeyError:
            known = ", ".join(sorted(_LOADERS))
            raise ConfigurationError(
                f"unknown array backend {name!r}; registered backends: {known}"
            ) from None
        module = loader()
        if not isinstance(module, types.ModuleType):
            raise ConfigurationError(
                f"loader for array backend {name!r} returned "
                f"{type(module).__name__}, not a module"
            )
        global _ACTIVE_NAME, _ACTIVE_MODULE
        _ACTIVE_NAME = name
        _ACTIVE_MODULE = module
        return module


def current_backend() -> types.ModuleType:
    """The active array module (``numpy`` unless switched)."""
    return _ACTIVE_MODULE


def backend_name() -> str:
    """Registry name of the active array module."""
    return _ACTIVE_NAME


def has_module(name: str) -> bool:
    """True when ``name`` is importable in this environment (no import run)."""
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic finders
        return False


def capabilities(*, refresh: bool = False) -> dict[str, bool]:
    """Probe which optional array packages this environment offers.

    Returns a name -> available mapping covering ``numpy`` (always True) and
    the optional array modules (``cupy`` for device arrays).  The probe is
    cached -- pass ``refresh=True`` after installing a package into a live
    process.
    """
    global _CAPABILITIES
    with _LOCK:
        if _CAPABILITIES is None or refresh:
            _CAPABILITIES = {"numpy": True}
            for module in _PROBED_MODULES:
                _CAPABILITIES[module] = has_module(module)
        return dict(_CAPABILITIES)


_CAPABILITIES: dict[str, bool] | None = None


def __getattr__(attr: str):
    """Forward unknown attributes to the active array module (PEP 562).

    Module dunders are deliberately *not* forwarded (``__version__``
    excepted): leaking the backend's ``__path__``/``__all__`` would make
    this module masquerade as a package of the backend's submodules to
    importlib and introspection tooling.
    """
    if attr.startswith("__") and attr.endswith("__") and attr != "__version__":
        raise AttributeError(f"module 'repro.xp' has no attribute {attr!r}")
    try:
        return getattr(_ACTIVE_MODULE, attr)
    except AttributeError:
        raise AttributeError(
            f"array backend {_ACTIVE_NAME!r} has no attribute {attr!r}"
        ) from None


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(dir(_ACTIVE_MODULE)))


_env_backend = os.environ.get(ENV_VAR)
if _env_backend:
    use_backend(_env_backend)
