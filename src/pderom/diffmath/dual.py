"""A value with ``k`` stacked tangents: the siren decoder's Jacobian currency.

:func:`pderom.networks.decode` of a siren takes a :class:`DualBatch` of
a code and its tangent directions and returns one of the field and its
directional derivatives: with one unit tangent per latent, the (k, N, 1)
transposed Jacobian.  The decoder runs one reverse sweep and contracts
it with the tangents, so no work beyond that last contraction grows
with ``k``.  The tangents are ordinary tape tensors, so the training
loss can differentiate through the Jacobian.  A hyper decoder takes no
:class:`DualBatch`: it is affine in the code, and its Jacobian is the
``A`` of :func:`pderom.networks.affine_decomposition`.
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
