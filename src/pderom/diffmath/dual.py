"""A value with ``k`` stacked tangents: the decoder's forward-mode currency.

:func:`pderom.networks.decode` takes a :class:`DualBatch` of a code and
its tangent directions and returns one of the field and its directional
derivatives.  It is the decoder's Jacobian API: with one unit tangent per
latent, ``decode(config, params, DualBatch(alpha, constant(eye(k))), X)``
returns the field and, as its tangent, the (k, N, m) transposed Jacobian.
The tangents are ordinary tape tensors, so a Jacobian assembled this way
stays differentiable in reverse mode (forward-over-reverse); this is what
lets the training loss differentiate through the decoder Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tape import Tensor

__all__ = ["DualBatch"]


@dataclass
class DualBatch:
    """Value plus ``k`` stacked tangents of identical shape."""

    value: Tensor
    tangent: Tensor  # shape (k, *value.shape)

    def __post_init__(self):
        if self.tangent.ndim != self.value.ndim + 1:
            raise ValueError("tangent must stack k copies of the value shape")
        if self.tangent.shape[1:] != self.value.shape:
            raise ValueError(
                f"tangent shape {self.tangent.shape} does not stack value "
                f"shape {self.value.shape}"
            )
        if self.tangent.shape[0] < 1:
            raise ValueError("need at least one tangent")

    @property
    def num_tangents(self) -> int:
        return self.tangent.shape[0]
