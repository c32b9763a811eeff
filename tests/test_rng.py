"""The batched stream keys against numpy's own SeedSequence, bit for bit."""

import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import rankevidence
from rankevidence._rng import stream_keys, substream
from rankevidence.dictionary import make_dictionary_pair, sample_dictionary_statistics
from rankevidence.linear_models import DataGenConfig, make_spec, sample_statistics

# every purpose tag a stream is opened with in the package source
SOURCE = "\n".join(path.read_text(encoding="utf-8")
                   for path in Path(rankevidence.__file__).parent.glob("*.py"))
TAGS = sorted(set(re.findall(r'(?:substream|wishart_roots)\([^()"]*"([a-z-]+)"', SOURCE)))

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
         *np.random.default_rng(28).integers(0, 2**64, 20, dtype=np.uint64).tolist()]
INDICES = [0, 1, 50, 2**31, 2**32 - 1]


def test_tags_are_found():
    assert {"dataset", "dict-basis", "dict-data", "dict-mix", "dict-wishart", "factor",
            "importance", "theta", "wishart"} <= set(TAGS)


@pytest.mark.parametrize("tag", TAGS)
def test_stream_keys_equal_seed_sequence_keys(tag):
    """Each key is the one numpy's SeedSequence gives the (seed, tag, index)
    stream, and so the key of substream's Philox."""
    keys = stream_keys(SEEDS, tag, INDICES)
    assert keys.shape == (len(SEEDS), len(INDICES), 2) and keys.dtype == np.uint64
    for seed, seed_keys in zip(SEEDS, keys):
        for index, key in zip(INDICES, seed_keys):
            expected = np.random.SeedSequence(
                entropy=seed, spawn_key=(zlib.crc32(tag.encode()), index)
            ).generate_state(2, np.uint64)
            np.testing.assert_array_equal(key, expected, err_msg=f"{tag} {seed} {index}")
    state = substream(SEEDS[-1], tag, INDICES[-1]).bit_generator.state["state"]
    np.testing.assert_array_equal(state["key"], keys[-1, -1])


@pytest.mark.parametrize("seed, index, message", [
    (-1, 0, "seed must be an unsigned 64-bit integer"),
    (2**64, 0, "seed must be an unsigned 64-bit integer"),
    (0, 2**32, "stream index out of range"),
    (0, -1, "stream index out of range"),
])
def test_out_of_range_keys_raise_as_substream_does(seed, index, message):
    """A seed outside [0, 2**64) or an index outside [0, 2**32) is refused,
    not cast: index 2**32 would alias index 0 as a uint32 word."""
    with pytest.raises(ValueError, match=message):
        substream(seed, "wishart", index)
    with pytest.raises(ValueError, match=message):
        stream_keys([0, seed], "wishart", [1, index])


def test_one_cell_draws_refuse_a_size_past_the_index_range():
    spec = make_spec(3, 3, 2, seed=0)
    with pytest.raises(ValueError, match="stream index out of range"):
        sample_statistics(spec, 2**32, DataGenConfig(seed=0))
    minimal, _ = make_dictionary_pair(4, 2, 3, 0)
    with pytest.raises(ValueError, match="stream index out of range"):
        sample_dictionary_statistics(minimal, 2**32, 0)
