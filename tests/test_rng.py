"""RNG derivation: a stream's generator is a pure function of (seed, *stream),
and equals the generator of the list-entropy `SeedSequence` it was first
defined by, so every recorded run keeps its draws. The batched derivation
gives each id of a column the generator `derive_rng` gives it."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plural._rng import derive_rng, derive_rngs, derive_seed


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


def _maybe_int64(value, wrap):
    return np.int64(value) if wrap and -2 ** 63 <= value < 2 ** 63 else value


@settings(max_examples=80, deadline=None)
@given(seed=st.sampled_from([0, -1, 2 ** 32 - 1]) | st.integers(-2 ** 63, 2 ** 63 - 1),
       tag=st.sampled_from(["react", "explore"]) | st.text(max_size=4) | st.integers(-9, 9),
       round_=st.integers(-2 ** 40, 2 ** 40),
       ids=st.lists(st.integers(-3, 3) | st.integers(-2 ** 63, 2 ** 63 - 1), max_size=12),
       wrap=st.booleans(), as_array=st.booleans())
@example(seed=0, tag="react", round_=0, ids=[], wrap=False, as_array=False)
@example(seed=-1, tag="react", round_=3, ids=[-1, -1, 0, 2 ** 32], wrap=True, as_array=True)
@example(seed=2 ** 32 - 1, tag="explore", round_=-1, ids=[5, 5, -5], wrap=False, as_array=False)
def test_batched_streams_equal_single_streams(seed, tag, round_, ids, wrap, as_array):
    seed, round_ = _maybe_int64(seed, wrap), _maybe_int64(round_, wrap)
    column = np.array(ids, dtype=np.int64) if as_array else ids
    batch = derive_rngs(seed, column, tag, round_)
    assert len(batch) == len(ids)
    for i, got in zip(ids, batch):
        want = derive_rng(seed, tag, round_, _maybe_int64(i, wrap))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(4).tolist() == want.random(4).tolist()
        assert got.integers(0, 2 ** 40, size=3).tolist() == want.integers(0, 2 ** 40, size=3).tolist()


@pytest.mark.parametrize("stream", [(), ("react",), ("react", 1, 2)], ids=repr)
def test_batched_streams_need_four_words(stream):
    with pytest.raises(ValueError):
        derive_rngs(0, [1, 2], *stream)
