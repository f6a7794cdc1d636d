"""Drift gate of the generated API reference (``docs/API.md``).

``docs/API.md`` is produced by ``tools/gen_api_docs.py``; this test
regenerates the text in-process and compares it to the committed file, so
any public-surface change that forgets to regenerate fails the tier-1 run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO_ROOT / "tools" / "gen_api_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("gen_api_docs", module)
    spec.loader.exec_module(module)
    return module


def test_api_reference_matches_source():
    generator = load_generator()
    committed = (REPO_ROOT / "docs" / "API.md").read_text()
    assert committed == generator.generate(), (
        "docs/API.md is stale; regenerate with "
        "`PYTHONPATH=src python tools/gen_api_docs.py` and commit the diff"
    )


def test_api_reference_covers_public_subpackages():
    generator = load_generator()
    text = generator.generate()
    for package in ("repro.backends", "repro.serve", "repro.train",
                    "repro.dse", "repro.evaluation"):
        assert f"## `{package}`" in text
    # Spot-check that the tentpole surface is actually documented.
    for symbol in ("EmulationService", "Batcher", "shared_pipeline",
                   "stats_snapshot", "ModelSession", "LatencyStats",
                   "lut_matmul_factored", "choose_gemm_kernel", "LutFactors"):
        assert symbol in text, f"{symbol} missing from the API reference"


def test_generator_is_deterministic():
    generator = load_generator()
    assert generator.generate() == generator.generate()
