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


def wishart_factor(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    """Draw a factor ``T`` with ``T T^T ~ Wishart_q(n, I)``.

    For ``n >= q`` this is the Bartlett factor: a q x q lower-triangular
    matrix with square roots of chi-square draws on n, n-1, ..., n-q+1 degrees
    of freedom on its diagonal and standard normals below it, O(q^3) whatever
    ``n`` is.  For ``n < q``, where that factorization does not apply, it is
    ``Z^T`` for an n x q standard normal draw ``Z``.
    """
    if n >= q:
        T = np.diag(np.sqrt(rng.chisquare(n - np.arange(q))))
        # a boolean mask fills in row-major order, the order of np.tril_indices(q, -1)
        T[np.tri(q, k=-1, dtype=bool)] = rng.standard_normal(q * (q - 1) // 2)
        return T
    return rng.standard_normal((n, q)).T


def wishart_factors(seed: int, tag: str, n_grid: list[int], q: int) -> list[np.ndarray]:
    """The :func:`wishart_factor` of each n of ``n_grid`` from the
    ``(seed, tag, n)`` streams, for both models (``"wishart"`` and
    ``"dict-wishart"``): q x q for ``n >= q``, q x n below."""
    if any(n < 1 for n in n_grid):
        raise ValueError(f"sample sizes must be >= 1, got {n_grid}")
    return [wishart_factor(substream(seed, tag, n), n, q) for n in n_grid]
