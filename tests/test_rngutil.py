import numpy as np
import pytest

from flowseek.rngutil import _tag_to_word, substream


def list_substream(seed, *tags):
    """The construction that hands SeedSequence a list of Python ints to coerce."""
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_to_word(t) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, -1, -(2**33)])
@pytest.mark.parametrize("tags", [
    (),
    ("rollout", 3, 0),
    (-1, -(2**40)),
    (2**32, 2**32 + 5, 2**70),
    ("policy-init", "mlp", 91, 32),
    ("", "g24-7", np.int64(9)),
])
def test_substream_draws_what_the_list_construction_draws(seed, tags):
    assert substream(seed, *tags).random(3).tolist() == list_substream(seed, *tags).random(3).tolist()
