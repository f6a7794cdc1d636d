"""Model zoo: CIFAR ResNets (Table I) and a small demo CNN."""

from functools import partial

from .calibration import calibrate_classifier, extract_features, temper_classifier
from .resnet import (
    PAPER_DEPTHS,
    ResNetModel,
    blocks_per_stage,
    build_resnet,
    conv_workloads_for_depth,
)
from .simple_cnn import SimpleCNNModel, build_simple_cnn

#: The models ``tfapprox-dse`` and ``tfapprox-serve`` build by name, each
#: called as ``MODELS[name](input_size=size)`` (seed 0).
MODELS = {
    "simple_cnn": build_simple_cnn,
    "resnet8": partial(build_resnet, 8),
    "resnet14": partial(build_resnet, 14),
}

__all__ = [
    "MODELS",
    "calibrate_classifier",
    "extract_features",
    "temper_classifier",
    "PAPER_DEPTHS",
    "ResNetModel",
    "build_resnet",
    "blocks_per_stage",
    "conv_workloads_for_depth",
    "SimpleCNNModel",
    "build_simple_cnn",
]
