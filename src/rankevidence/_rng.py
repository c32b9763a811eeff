"""Deterministic random substreams.

All randomness in the package flows through :func:`substream`, which builds a
counter-based Philox generator keyed by ``(seed, purpose-tag, index)``.  Keying
streams this way means adding new sample sizes or new draw purposes never
perturbs draws from existing streams, and the bit stream is reproducible
across runs, platforms, and thread counts.
"""

from __future__ import annotations

import zlib

import numpy as np

SEED_LIMIT = 2**64           # seeds lie in [0, SEED_LIMIT)
STREAM_INDEX_LIMIT = 2**32   # stream indices (sample sizes) lie in [0, STREAM_INDEX_LIMIT)


def substream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the generator for the ``(seed, tag, index)`` stream.

    ``seed`` is the user-facing 64-bit seed, ``tag`` names the purpose of the
    draws (e.g. ``"design"``), and ``index`` separates per-sample-size streams.
    """
    seed = int(seed)
    if seed < 0 or seed >= SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    if index < 0 or index >= STREAM_INDEX_LIMIT:
        raise ValueError(f"stream index out of range: {index}")
    key = np.random.SeedSequence(
        entropy=seed,
        spawn_key=(zlib.crc32(tag.encode("ascii")), int(index)),
    )
    return np.random.Generator(np.random.Philox(key))


def wishart_roots(seed: int, tag: str, n_grid: list[int], q: int) -> np.ndarray:
    """The rows ``Z = T^T`` of a factor with ``T T^T ~ Wishart_q(n, I)`` for
    each n of ``n_grid``, from the ``(seed, tag, n)`` streams, in one
    (len(n_grid), q, q) stack, for both models (``"wishart"`` and
    ``"dict-wishart"``).  For ``n >= q``, ``T`` is the lower-triangular
    Bartlett factor, O(q^3) whatever ``n`` is: the square roots of chi-square
    draws on n, n-1, ..., n-q+1 degrees of freedom on its diagonal, then
    normals below it in row-major order.  Below q, ``Z`` is n x q normals
    above q - n zero rows."""
    if any(n < 1 for n in n_grid):
        raise ValueError(f"sample sizes must be >= 1, got {n_grid}")
    Z = np.zeros((len(n_grid), q, q))
    rows, cols = np.tril_indices(q, -1)
    upper = cols * q + rows   # where T's strict lower triangle goes in a flat Z[i]
    for Z_n, n in zip(Z.reshape(len(n_grid), q * q), n_grid):
        rng = substream(seed, tag, n)
        if n >= q:
            Z_n[::q + 1] = np.sqrt(rng.chisquare(n - np.arange(q)))
            Z_n[upper] = rng.standard_normal(len(upper))
        else:
            Z_n[:n * q] = rng.standard_normal(n * q)
    return Z
