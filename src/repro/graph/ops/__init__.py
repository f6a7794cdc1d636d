"""Operation catalogue of the dataflow-graph framework."""

from .basic import (
    Add,
    BiasAdd,
    Constant,
    Flatten,
    Identity,
    Pad,
    Placeholder,
    ReduceMax,
    ReduceMin,
    ReLU,
    Softmax,
)
from .conv import AxConv2D, Conv2D
from .dense import MatMul
from .pool import AvgPool2D, GlobalAvgPool, MaxPool2D

__all__ = [
    "Placeholder",
    "Constant",
    "Identity",
    "Add",
    "BiasAdd",
    "ReLU",
    "Softmax",
    "Flatten",
    "Pad",
    "ReduceMin",
    "ReduceMax",
    "Conv2D",
    "AxConv2D",
    "MatMul",
    "MaxPool2D",
    "AvgPool2D",
    "GlobalAvgPool",
]
