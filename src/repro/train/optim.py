"""Gradient descent over graph ``Constant`` parameters.

Parameters in the graph framework are :class:`~repro.graph.ops.basic.Constant`
nodes; an optimiser owns a list of them and applies in-place updates through
``Constant.set_value`` from the gradient dictionary produced by
:meth:`repro.graph.Executor.backward`.  SGD with momentum is the update rule
of the paper's CIFAR retraining and of the ApproxTrain fine-tuning recipe.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..graph.node import Node
from ..graph.ops.basic import Constant


class Optimizer:
    """Base class: owns the parameter list and the learning rate."""

    def __init__(self, params: Sequence[Constant], lr: float) -> None:
        params = list(params)
        if not params:
            raise ConfigurationError("optimizer needs at least one parameter")
        for param in params:
            if not isinstance(param, Constant):
                raise ConfigurationError(
                    f"parameters must be Constant nodes, got {param!r}"
                )
        if lr <= 0:
            raise ConfigurationError("learning rate must be positive")
        self._params = params
        self.lr = float(lr)

    @property
    def params(self) -> tuple[Constant, ...]:
        """The parameters this optimiser updates."""
        return tuple(self._params)

    # ------------------------------------------------------------------
    def _gradient_for(self, grads: Mapping[Node, np.ndarray],
                      param: Constant) -> np.ndarray | None:
        grad = grads.get(param)
        if grad is None:
            return None
        if np.shape(grad) != param.value.shape:
            raise ConfigurationError(
                f"gradient shape {np.shape(grad)} does not match parameter "
                f"{param.name!r} of shape {param.value.shape}"
            )
        return np.asarray(grad, dtype=np.float64)

    def step(self, grads: Mapping[Node, np.ndarray]) -> None:
        """Apply one update from a gradient dictionary.

        Parameters missing from ``grads`` are left untouched.  A zero
        gradient is a real gradient: momentum keeps coasting, per the
        classic formulation.
        (Non-trainable constants are excluded structurally by
        :func:`repro.train.trainer.trainable_constants`, not by gradient
        value.)
        """
        for index, param in enumerate(self._params):
            grad = self._gradient_for(grads, param)
            if grad is None:
                continue
            self._update(index, param, grad)

    def _update(self, index: int, param: Constant, grad: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum.

    The update follows the classic formulation used by the CIFAR ResNet
    training recipes: ``v = momentum * v + g``; ``w -= lr * v``.
    """

    def __init__(self, params: Sequence[Constant], lr: float = 0.01, *,
                 momentum: float = 0.0) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: dict[int, np.ndarray] = {}

    def _update(self, index: int, param: Constant, grad: np.ndarray) -> None:
        if self.momentum:
            velocity = self._velocity.get(index)
            if velocity is None:
                velocity = np.zeros_like(param.value)
            grad = self.momentum * velocity + grad
            self._velocity[index] = grad
        param.set_value(param.value - self.lr * grad)
