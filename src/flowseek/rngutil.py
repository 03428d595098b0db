"""Deterministic RNG substreams.

All randomness in the package flows from a single 64-bit seed. Independent
streams are derived by hashing string/int tags into SeedSequence entropy, so
`substream(seed, "train", iteration, slot)` is reproducible across platforms
and independent of call order.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.lru_cache(maxsize=65536)
def _text_word(text: str) -> int:
    """The word of a string tag, hashed once: phase names and instance ids repeat."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _tag_to_word(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return _text_word(str(tag))


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return a Generator for the stream named by `tags` under `seed`."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    # the uint32 words SeedSequence coerces the list [seed, *tag words] into,
    # so every stream stays the same: low word, high word if nonzero, tags
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    words += [_tag_to_word(t) for t in tags]
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
