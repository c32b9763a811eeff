"""Deterministic random substreams.

All randomness of the studies flows through Philox streams keyed by
``(seed, purpose-tag, index)``: :func:`substream` defines one, and
:func:`stream_keys`, checked against it bit for bit, keys a whole grid at
once.  Keying streams this way means adding new sample sizes or new draw
purposes never perturbs draws from existing streams, and the bit stream is
reproducible across runs, platforms, and thread counts.  Every Wishart root,
of a keyed stream or of ``verify``'s generator, is one :func:`wishart_root`.
"""

from __future__ import annotations

import functools
import itertools
import zlib

import numpy as np

SEED_LIMIT = 2**64           # seeds lie in [0, SEED_LIMIT)
STREAM_INDEX_LIMIT = 2**32   # stream indices (sample sizes) lie in [0, STREAM_INDEX_LIMIT)


# numpy's SeedSequence hash: step k xors with the constant c_k and multiplies by
# c_(k+1); 24 steps mix six entropy words into a pool of four, 4 more read a key
_STEPS = [(np.uint32(c * m**k % 2**32), np.uint32(c * m**(k + 1) % 2**32))
          for c, m, count in ((0x43B0D7E5, 0x931E8875, 24), (0x8B51F9DD, 0x58F38DED, 4))
          for k in range(count)]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _fold(x: np.ndarray) -> np.ndarray:
    return x ^ x >> np.uint32(16)


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


def stream_keys(seeds: list[int], tag: str, indices: list[int]) -> np.ndarray:
    """The (len(seeds), len(indices), 2) uint64 Philox keys of the
    ``(seed, tag, index)`` streams of :func:`substream`: its ``SeedSequence``
    hash on uint32 arrays, which wrap as its C integers do, of six entropy
    words, seed low, seed high, 0, 0 (padding to the pool), crc32(tag), index."""
    seeds, indices = [int(s) for s in seeds], [int(i) for i in indices]
    for seed, index in itertools.zip_longest(seeds, indices, fillvalue=0):
        if not (0 <= seed < SEED_LIMIT and 0 <= index < STREAM_INDEX_LIMIT):
            substream(seed, tag, index)   # its ValueError; a uint32 cast would alias 2**32 to 0
    words = np.zeros((6, len(seeds), len(indices)), dtype=np.uint32)
    words[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T[..., None]   # low, high
    words[4], words[5] = zlib.crc32(tag.encode("ascii")), indices
    steps = iter(_STEPS)

    def hashmix(value):
        xor, mult = next(steps)
        return _fold((value ^ xor) * mult)

    pool = [hashmix(word) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = _fold(_MIX_L * pool[dst] - _MIX_R * hashmix(word))
    state = np.stack([hashmix(word) for word in pool], axis=-1)   # little-endian, as numpy reads it
    return state.astype("<u4").view("<u8").astype(np.uint64)


def wishart_roots(seeds: list[int], tag: str, n_grid: list[int], q: int) -> np.ndarray:
    """The :func:`wishart_root` of each seed and n of ``n_grid`` from its
    ``(seed, tag, n)`` stream, in one (seeds, sizes, q, q) stack, drawn by
    one Philox set to each :func:`stream_keys` key in turn."""
    if any(n < 1 for n in n_grid):
        raise ValueError(f"sample sizes must be >= 1, got {n_grid}")
    Z = np.zeros((len(seeds), len(n_grid), q, q))
    bitgen = np.random.Philox(0)
    rng, state = np.random.Generator(bitgen), bitgen.state
    for seed_keys, seed_Z in zip(stream_keys(seeds, tag, n_grid), Z):
        for key, Z_n, n in zip(seed_keys, seed_Z, n_grid):
            state["state"]["key"] = key
            bitgen.state = state
            Z_n[:] = wishart_root(rng, n, q)
    return Z


def wishart_root(rng: np.random.Generator, n: int, q: int) -> np.ndarray:
    """The rows ``Z = T^T`` (q, q) of a factor with ``T T^T ~ Wishart_q(n, I)``
    from ``rng``.  For ``n >= q``, ``T`` is the lower-triangular Bartlett
    factor, O(q^3) whatever ``n`` is: the square roots of chi-square draws on
    n, n-1, ..., n-q+1 degrees of freedom on its diagonal, then normals below
    it in row-major order.  Below q, ``Z`` is n x q normals above q - n zero rows."""
    Z = np.zeros(q * q)
    if n >= q:
        Z[::q + 1] = np.sqrt(rng.chisquare(np.arange(n, n - q, -1)))
        Z[_tril_flat(q)] = rng.standard_normal(q * (q - 1) // 2)
    else:
        Z[:n * q] = rng.standard_normal(n * q)
    return Z.reshape(q, q)


# where T's strict lower triangle, in row-major order, lies in a flat T^T; one array per q
_tril_flat = functools.cache(lambda q: np.ravel_multi_index(np.tril_indices(q, -1)[::-1], (q, q)))
