"""Inversion: located failures."""

import numpy as np
import pytest

from pderom.diffmath import NonFiniteError
from pderom.inference import InversionConfig, invert
from pderom.networks import DecoderConfig, init_decoder

HYPER = DecoderConfig("hyper", latent_dim=3, layers=1, width=8, coord_dim=1,
                      coord_lo=(0.0,), coord_hi=(1.0,))


def test_non_finite_field_names_the_inversion_step():
    params = {k: v.data for k, v in init_decoder(HYPER, seed=0).items()}
    X = np.linspace(0.0, 1.0, 20)[:, None]
    u0 = np.ones((20, 1))
    u0[7, 0] = np.inf
    with pytest.raises(NonFiniteError, match=r"\(inversion step 0\)") as err:
        invert(HYPER, params, u0, X, InversionConfig(steps=3))
    assert err.value.op == "sub"
