"""E3 -- Fig. 1: the graph transformation Conv2D -> AxConv2D + Min/Max.

Benchmarks the transformation itself (it must stay cheap even for deep
networks, since the design-space exploration the paper motivates transforms
graphs thousands of times) and prints the op histogram before and after, the
information Fig. 1 conveys pictorially.
"""

from __future__ import annotations

import pytest

from repro.graph import approximate_graph
from repro.models import build_resnet
from repro.multipliers import library


@pytest.mark.benchmark(group="transform")
@pytest.mark.parametrize("depth", [8, 20, 62])
def test_transform_resnet(benchmark, depth):
    """Time Conv2D->AxConv2D conversion of a full ResNet graph."""
    lut_multiplier = library.create("mul8s_mitchell")

    def build_and_transform():
        model = build_resnet(depth, seed=0)
        report = approximate_graph(model.graph, lut_multiplier)
        return model, report

    model, report = benchmark(build_and_transform)
    histogram = model.graph.op_type_histogram()
    print(f"\nResNet-{depth}: {report.summary()}")
    print(f"  op histogram after transform: "
          f"AxConv2D={histogram.get('AxConv2D', 0)}, "
          f"ReduceMin={histogram.get('ReduceMin', 0)}, "
          f"ReduceMax={histogram.get('ReduceMax', 0)}, "
          f"Conv2D={histogram.get('Conv2D', 0)}")

    assert report.converted_layers == depth - 1
    assert histogram.get("Conv2D", 0) == 0
    assert histogram["ReduceMin"] == 2 * (depth - 1)

