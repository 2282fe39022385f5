"""RNG derivation: a stream's generator is a pure function of (seed, *stream),
and equals the generator of the list-entropy `SeedSequence` it was first
defined by, so every recorded run keeps its draws."""

import zlib

import numpy as np
import pytest

from plural._rng import derive_rng, derive_seed


def list_entropy(seed, *stream):
    """The entropy list as first defined: 32-bit ints, strings by crc32."""
    def word(part):
        if isinstance(part, (int, np.integer)):
            return int(part) & 0xFFFFFFFF
        return zlib.crc32(str(part).encode("utf-8"))
    return [word(seed)] + [word(p) for p in stream]


STREAMS = [(), (3,), (0, 0), ("mf",), ("react", 4, 17), ("explore", 2 ** 32 - 1, "x"),
           (np.int64(9), "fcm", -5)]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, -1])
@pytest.mark.parametrize("stream", STREAMS, ids=repr)
def test_derived_streams_equal_list_entropy(seed, stream):
    want = np.random.default_rng(np.random.SeedSequence(list_entropy(seed, *stream)))
    got = derive_rng(seed, *stream)
    assert got.random(6).tolist() == want.random(6).tolist()
    assert got.integers(0, 2 ** 40, size=4).tolist() == want.integers(0, 2 ** 40, size=4).tolist()
    assert got.normal(size=3).tolist() == want.normal(size=3).tolist()
    ss = np.random.SeedSequence(list_entropy(seed, *stream))
    assert derive_seed(seed, *stream) == int(ss.generate_state(1, dtype=np.uint32)[0])
