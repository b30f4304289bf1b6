"""Span intersection by the kernel of [a | -b]: an oracle for the tests,
which nothing in galdesk computes any more."""

import numpy as np

from galdesk import ffield as ff


def intersect_spans(a, b, p: int) -> np.ndarray:
    """Basis of span(a) ∩ span(b)."""
    a = ff.normalize(a, p)
    b = ff.normalize(b, p)
    k = ff.nullspace(np.hstack([a, -b]), p)
    return ff.column_space((a @ k[: a.shape[1]]) % p, p)
