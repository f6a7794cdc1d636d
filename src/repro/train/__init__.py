"""Approximate-aware training: the loss, the optimiser and the loop.

The paper's point is that emulation fast enough for *retraining* is what
makes approximate accelerators practical -- its evaluation retrains CIFAR
ResNets through the emulated multipliers, and the follow-ups ApproxTrain
(Gong et al., 2022) and AdaPT (Danopoulos et al., 2022) are built entirely
around gradient support for approximate-multiplier emulation.  This package
adds that capability to the reproduction:

* :mod:`repro.train.losses` -- softmax cross-entropy and its logit gradient;
* :mod:`repro.train.optim` -- SGD with momentum over graph ``Constant``
  parameters;
* :mod:`repro.train.trainer` -- the mini-batch :class:`Trainer` loop with
  deterministic shuffling and filter-bank cache hygiene.

Gradients flow through the approximate ``AxConv2D`` layers under the
straight-through-estimator convention: quantised, approximate forward;
exact float backward through the dequantised values.
"""

from .losses import log_softmax, one_hot, softmax_cross_entropy
from .optim import Optimizer, SGD
from .trainer import EpochMetrics, Trainer, TrainHistory, trainable_constants

__all__ = [
    "softmax_cross_entropy",
    "log_softmax",
    "one_hot",
    "Optimizer",
    "SGD",
    "Trainer",
    "TrainHistory",
    "EpochMetrics",
    "trainable_constants",
]
