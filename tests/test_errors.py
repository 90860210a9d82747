"""The whole-number reader every entry point reads its counts with."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelcg import InvalidInput
from kernelcg.errors import whole_number


@given(st.integers(-(2**70), 2**70), st.sampled_from([None, 0, 1]))
def test_whole_number_reads_ints_and_whole_floats_and_refuses_the_rest(i, lo):
    forms = [i, float(i)] if float(i) == i else [i]
    if -(2**63) <= i < 2**63:
        forms.append(np.int64(i))
    for value in forms:
        if lo is not None and i < lo:
            with pytest.raises(InvalidInput, match="count must be"):
                whole_number("count", value, lo)
        else:
            got = whole_number("count", value, lo)
            assert got == i and type(got) is int
    refused = [
        True, False, np.True_, np.False_, str(i), None, Fraction(2 * i + 1, 2), i % 2**20 + 0.5,
        math.nan, math.inf, -math.inf, np.array([i]), np.array([[i]]),
    ]
    for value in refused:
        with pytest.raises(InvalidInput, match="count must be"):
            whole_number("count", value, lo)
