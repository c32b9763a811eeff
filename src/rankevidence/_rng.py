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
