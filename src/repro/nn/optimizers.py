"""First-order optimizers operating on parameter/gradient dictionaries.

Optimizers are decoupled from network classes: they receive a list of
``(parameters, gradients)`` dictionaries — an :class:`~repro.nn.network.MLP`
hands over one group holding its flat parameter and gradient vectors — and
update the parameter arrays in place.  Per-parameter optimizer state
(momenta, second moments) is keyed by ``(group index, parameter name)`` and
created on a key's first step, together with scratch arrays that each update
writes its temporaries into, so a step allocates nothing.  Every update runs
the textbook formula's float operations in their usual order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

ParameterGroup = Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]


class Optimizer(ABC):
    """Interface of all optimizers."""

    def __init__(self, learning_rate: float) -> None:
        check_positive(learning_rate, "learning_rate")
        self.learning_rate = learning_rate
        self.steps = 0
        self._scratch_buffers: Dict[Tuple[int, str], np.ndarray] = {}

    @abstractmethod
    def _update_parameter(
        self, key: Tuple[int, str], parameter: np.ndarray, gradient: np.ndarray
    ) -> None:
        """Apply one update to a single parameter array in place."""

    def step(self, groups: List[ParameterGroup]) -> None:
        """Apply one optimization step over all parameter groups."""
        self.steps += 1
        for index, (parameters, gradients) in enumerate(groups):
            for name, parameter in parameters.items():
                gradient = gradients[name]
                self._update_parameter((index, name), parameter, gradient)

    def state_size(self) -> int:
        """Number of per-parameter state arrays held (used in tests).

        Scratch arrays are not state and are not counted.
        """
        return 0

    def _scratch(self, key: Tuple[int, str], parameter: np.ndarray) -> np.ndarray:
        """A reusable ``(2, *shape)`` temporary buffer for ``key``'s updates."""
        buffer = self._scratch_buffers.get(key)
        if buffer is None:
            buffer = self._scratch_buffers[key] = np.empty((2, *parameter.shape))
        return buffer


class SGD(Optimizer):
    """Plain stochastic gradient descent, optionally with momentum."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        check_non_negative(momentum, "momentum")
        if momentum >= 1.0:
            raise ValueError(f"momentum must be < 1, got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def _update_parameter(self, key, parameter, gradient) -> None:
        step = self._scratch(key, parameter)[0]
        np.multiply(gradient, self.learning_rate, out=step)
        if self.momentum > 0.0:
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = self._velocity[key] = np.zeros_like(parameter)
            velocity *= self.momentum
            velocity -= step
            parameter += velocity
        else:
            parameter -= step

    def state_size(self) -> int:
        return len(self._velocity)


class RMSProp(Optimizer):
    """RMSProp: scale updates by a running average of squared gradients."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        decay: float = 0.99,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        check_positive(epsilon, "epsilon")
        self.decay = decay
        self.epsilon = epsilon
        self._square_avg: Dict[Tuple[int, str], np.ndarray] = {}

    def _update_parameter(self, key, parameter, gradient) -> None:
        square_avg = self._square_avg.get(key)
        if square_avg is None:
            square_avg = self._square_avg[key] = np.zeros_like(parameter)
        step, denominator = self._scratch(key, parameter)
        square_avg *= self.decay
        np.square(gradient, out=step)
        step *= 1.0 - self.decay
        square_avg += step
        # parameter -= (lr * gradient) / (sqrt(square_avg) + eps)
        np.multiply(gradient, self.learning_rate, out=step)
        np.sqrt(square_avg, out=denominator)
        denominator += self.epsilon
        step /= denominator
        parameter -= step

    def state_size(self) -> int:
        return len(self._square_avg)


class Adam(Optimizer):
    """Adam with bias-corrected first and second moment estimates."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        check_positive(epsilon, "epsilon")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment: Dict[Tuple[int, str], np.ndarray] = {}
        self._second_moment: Dict[Tuple[int, str], np.ndarray] = {}

    def _update_parameter(self, key, parameter, gradient) -> None:
        first = self._first_moment.get(key)
        if first is None:
            first = self._first_moment[key] = np.zeros_like(parameter)
            self._second_moment[key] = np.zeros_like(parameter)
        second = self._second_moment[key]
        step, denominator = self._scratch(key, parameter)
        first *= self.beta1
        np.multiply(gradient, 1.0 - self.beta1, out=step)
        first += step
        second *= self.beta2
        np.square(gradient, out=step)
        step *= 1.0 - self.beta2
        second += step
        # Bias correction uses the global step count, which is incremented in
        # step() before parameter updates, so it is always >= 1 here.
        # parameter -= (lr * first_hat) / (sqrt(second_hat) + eps)
        np.divide(first, 1.0 - self.beta1**self.steps, out=step)
        step *= self.learning_rate
        np.divide(second, 1.0 - self.beta2**self.steps, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += self.epsilon
        step /= denominator
        parameter -= step

    def state_size(self) -> int:
        return len(self._first_moment) + len(self._second_moment)


def get_optimizer(name: str, learning_rate: float = 1e-3, **kwargs) -> Optimizer:
    """Look up an optimizer by name (``sgd``, ``rmsprop``, ``adam``)."""
    name = name.lower()
    if name == "sgd":
        return SGD(learning_rate, **kwargs)
    if name == "rmsprop":
        return RMSProp(learning_rate, **kwargs)
    if name == "adam":
        return Adam(learning_rate, **kwargs)
    raise ValueError(
        f"unknown optimizer {name!r}; available: ['sgd', 'rmsprop', 'adam']"
    )


def clip_gradients(groups: List[ParameterGroup], max_norm: float) -> float:
    """Globally clip gradients to ``max_norm`` (L2) and return the raw norm."""
    check_positive(max_norm, "max_norm")
    total = 0.0
    for _, gradients in groups:
        for gradient in gradients.values():
            total += float(np.sum(gradient**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, gradients in groups:
            for gradient in gradients.values():
                gradient *= scale
    return norm
