"""Unit tests for the seeded streams."""

import numpy as np
import pytest

from votemargin.rng import stream


@pytest.mark.parametrize(
    "key",
    [(0,), (2,), (2, 1, 37), (0, 0, 0), (2**32 - 1, 5), (2**32, 1), (5, 2**40, 3), (7, 2**64 + 1)],
    ids=["zero", "seed", "path", "zeros", "largest-word", "two-words", "wide-part", "three-words"],
)
def test_stream_is_the_tuple_seeded_generator(key):
    # SeedSequence reads a part below 2**32 as one uint32 word, so the array
    # key gives the tuple's entropy; a wider part goes as the tuple itself
    expected = np.random.default_rng(np.random.SeedSequence(key))
    drawn = stream(*key)
    assert drawn.bit_generator.state == expected.bit_generator.state
    assert np.array_equal(drawn.random(5), expected.random(5))


def test_stream_accepts_numpy_integers_and_refuses_a_negative_part():
    assert stream(np.int64(3), np.uint8(1)).bit_generator.state == stream(3, 1).bit_generator.state
    with pytest.raises(ValueError, match="non-negative"):
        stream(3, -1)
