"""Elementwise numeric helpers shared by the network and the optimizer."""

import numpy as np


def sigmoid(x):
    """Logistic function that never overflows.

    exp only ever sees min(x, -x) = -|x| <= 0, and each side of zero uses
    the form whose division cannot lose the result: 1 / (1 + e^-x) for
    x >= 0 and e^x / (1 + e^x) below. `np.minimum` passes a NaN through
    as it is, so NaN inputs come back bit for bit.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
