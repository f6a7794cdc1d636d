"""Error-path coverage: failures must raise specific `repro.errors` types.

Misuse of the layer-wise transformation and the
multiplier library must surface as the documented :mod:`repro.errors`
exception (with an actionable message), never as a bare ``KeyError`` /
``TypeError`` leaking from an internal dictionary.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, GraphError, RegistryError
from repro.graph import approximate_graph_layerwise
from repro.models import build_simple_cnn
from repro.multipliers import library


class TestLayerwiseErrorPaths:
    def test_unknown_layer_name_raises_graph_error(self):
        model = build_simple_cnn(seed=0)
        with pytest.raises(GraphError, match="unknown Conv2D layers.*conv9"):
            approximate_graph_layerwise(
                model.graph, {"conv9": "mul8s_exact"})

    def test_unknown_multiplier_name_raises_registry_error(self):
        model = build_simple_cnn(seed=0)
        with pytest.raises(RegistryError, match="unknown multiplier"):
            approximate_graph_layerwise(
                model.graph, {"conv1": "mul8s_does_not_exist"})

    def test_non_conv2d_node_raises_graph_error(self):
        model = build_simple_cnn(seed=0)
        # "pool1" exists in the graph but is a MaxPool2D, not a Conv2D; the
        # message must say so instead of claiming the layer is unknown.
        with pytest.raises(GraphError,
                           match=r"non-Conv2D node.*pool1 \(MaxPool2D\)"):
            approximate_graph_layerwise(
                model.graph, {"pool1": "mul8s_exact"})

    def test_invalid_multiplier_value_raises_config_error(self):
        model = build_simple_cnn(seed=0)
        with pytest.raises(ConfigurationError, match="got float"):
            approximate_graph_layerwise(model.graph, {"conv1": 3.14})


class TestRegistryErrorPaths:
    def test_unknown_multiplier_library_name_raises_registry_error(self):
        with pytest.raises(RegistryError, match="unknown multiplier"):
            library.create("mul8s_unobtainium")

    def test_double_multiplier_registration_raises_registry_error(self):
        with pytest.raises(RegistryError, match="already registered"):
            library.register(
                "mul8s_exact", lambda: None)  # name taken by the defaults