"""Counter-based streams: the uniform conversion and index addressing."""

import numpy as np
import pytest

from obsdriven.rngstream import IndexedStream, _open_unit


def test_open_unit_excludes_both_ends():
    # the all-ones word rounds (2**53 - 1) * 2**-53 + 2**-54 up to 1.0
    u = _open_unit(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert u.tolist() == [2.0**-54, 1.0 - 2.0**-53]


def test_open_unit_unchanged_below_the_top():
    raw = IndexedStream(5, 3, 4).raw(-10, 500).ravel()
    raw = np.concatenate([raw, np.array([2**64 - 2**11 - 1, 2**64 - 2**12], dtype=np.uint64)])
    want = (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54
    assert np.array_equal(_open_unit(raw), want)
    assert want.max() < 1.0


@pytest.mark.parametrize("words", [1, 4, 7, 2001])
def test_block_rows_are_the_single_index_rows(words):
    # a backward loop fetches a block of times per call: row i of the block
    # must be the row that index t_lo + i gives on its own
    stream = IndexedStream(9, 201, words)
    for t_lo, n in [(-20, 16), (-9, 16), (-3, 7), (-1, 2), (0, 16), (5, 1)]:
        block = stream.uniforms(t_lo, n)
        assert block.shape == (n, words)
        for i in range(n):
            assert np.array_equal(block[i], stream.uniforms(t_lo + i, 1)[0])
