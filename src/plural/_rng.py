"""Deterministic RNG derivation.

Every random draw in the package comes from a generator derived here, so a
run is a pure function of the scenario seed. Streams are derived per entity
and per phase, so the draws of one entity do not depend on the order in
which other entities are processed.

`derive_rng` is the single-stream API and the definition of every stream.
`derive_rngs` gives the same generators for a whole column of ids at once:
it runs numpy's SeedSequence arithmetic as array passes over the column and
hands each id's precomputed PCG64 seed words to the bit generator, so one
round's per-citizen streams cost one batch instead of one SeedSequence each.
The tests hold it to `derive_rng`, id by id.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


# Run seeds are 32-bit: `_entropy` keeps only the low 32 bits of an int, so
# seeds outside [0, SEED_MAX] would alias seeds inside it.
SEED_MAX = 2 ** 32 - 1


def _entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    return zlib.crc32(str(part).encode("utf-8"))


def _seed_sequence(seed: int, stream: tuple) -> np.random.SeedSequence:
    # One uint32 word per part: the same entropy as the list of ints, taken
    # without SeedSequence's per-item coercion.
    words = np.array([_entropy(seed)] + [_entropy(p) for p in stream], dtype=np.uint32)
    return np.random.SeedSequence(words)


def derive_rng(seed: int, *stream: object) -> np.random.Generator:
    """Generator for the stream identified by (seed, *stream).

    Stream parts may be ints or strings; the mapping is stable across
    platforms and process restarts.
    """
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, stream)))


def derive_seed(seed: int, *stream: object) -> int:
    """A 32-bit integer seed for APIs that take a seed rather than a Generator."""
    return int(_seed_sequence(seed, stream).generate_state(1, dtype=np.uint32)[0])


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool is
# _POOL_SIZE uint32 words, filled and mixed with hash multipliers A, then read
# out with hash multipliers B.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


class _Hash:
    """SeedSequence's `hashmix` over uint32 columns: each call xors with the
    current multiplier, steps it, multiplies and folds the high half down.
    The multiplier sequence depends on nothing but the call count."""

    def __init__(self, init: int, mult: int) -> None:
        self._const, self._mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self._const)
        self._const = (self._const * self._mult) & 0xFFFFFFFF
        value = value * np.uint32(self._const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's `mix` of two uint32 columns."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, uint64)` for each row of a
    (n, _POOL_SIZE) uint32 array: the entropy fills the pool exactly, so
    `mix_entropy` is the fill and the all-pairs mix, with no spill words."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    readout = _Hash(_INIT_B, _MULT_B)
    state = np.stack([readout(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    # uint32 pairs to uint64 little-endian, as generate_state assembles them
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence whose PCG64 seed words are already computed.

    PCG64 asks its seed sequence for `generate_state(4, uint64)` once, when
    it is built; nothing else in the package asks a derived stream's seed
    sequence for anything.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("_Words holds only PCG64's generate_state(4, uint64)")
        return self._state


def derive_rngs(seed: int, ids, *stream: object) -> list[np.random.Generator]:
    """`[derive_rng(seed, *stream, i) for i in ids]`, derived in one batch.

    Only four-word streams are batched, (seed, *stream, id) with two
    `stream` parts, which fill SeedSequence's pool exactly. `ids` is a
    sequence of integers within int64.
    """
    if len(stream) != _POOL_SIZE - 2:
        raise ValueError(f"derive_rngs takes {_POOL_SIZE - 2} stream parts, got {len(stream)}")
    column = np.asarray(ids, dtype=np.int64).reshape(-1)
    words = np.empty((column.size, _POOL_SIZE), dtype=np.uint32)
    words[:, :-1] = [_entropy(seed)] + [_entropy(p) for p in stream]
    words[:, -1] = column & 0xFFFFFFFF
    PCG64, Generator = np.random.PCG64, np.random.Generator
    return [Generator(PCG64(_Words(row))) for row in _pcg64_seeds(words)]
