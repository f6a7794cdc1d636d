"""Model zoo: CIFAR ResNets (Table I) and a small demo CNN."""

from .calibration import calibrate_classifier, extract_features, temper_classifier
from .resnet import (
    PAPER_DEPTHS,
    ResNetModel,
    blocks_per_stage,
    build_resnet,
    conv_workloads_for_depth,
)
from .simple_cnn import SimpleCNNModel, build_simple_cnn

__all__ = [
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
