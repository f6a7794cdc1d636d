"""The whole-model benchmark instruments the package from outside.

``perfbench/tracer.py`` wraps public functions and methods of ``repro`` by
name.  This test installs and uninstalls its hooks, so renaming or deleting
a wrapped function fails the test suite rather than a later benchmark run.
Run from the repository root (``python -m pytest``), which puts
``perfbench`` on the import path.
"""

from __future__ import annotations

from perfbench.tracer import Tracer


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_install_and_uninstall_restore_every_hook():
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert patched, "the tracer instrumented nothing"
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr
