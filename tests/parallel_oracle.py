"""Parallel pairs of infinitesimal weights, x_w = -w0 . x_wbar: an oracle for
the tests, which nothing in galdesk computes any more."""

import numpy as np

from galdesk.padic_weights import WeightsError


def is_parallel_pair(x_w, x_wbar, minus_w0, p: int) -> bool:
    """x_w = -w0 . x_wbar coordinate-wise, generator-major layout."""
    x_w = np.asarray(x_w, dtype=np.int64) % p
    x_wbar = np.asarray(x_wbar, dtype=np.int64) % p
    d = len(minus_w0)
    if x_w.shape != x_wbar.shape or x_w.size % d:
        raise WeightsError("weight vectors have mismatched arity")
    f = x_w.size // d
    for j in range(f):
        for i in range(d):
            if x_w[j * d + i] != x_wbar[j * d + minus_w0[i]]:
                return False
    return True
