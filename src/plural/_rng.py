"""Deterministic RNG derivation.

Every random draw in the package comes from a generator derived here, so a
run is a pure function of the scenario seed. Streams are derived per entity
and per phase, so the draws of one entity do not depend on the order in
which other entities are processed.
"""

from __future__ import annotations

import zlib

import numpy as np


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
