"""Fixtures shared by the test modules."""

import pytest


def _object_holding_complex(a):
    out = a.astype(object)
    out.flat[-1] += 1j
    return out


# A float array's values in each dtype kind the float64 gate rejects. A plain
# cast would keep the real part of the complex array, parse the strings and
# bytes, cast the object floats, and raise numpy's TypeError on the object
# complex.
NON_REAL = {
    "complex": lambda a: a + 1j,
    "str": lambda a: a.astype(str),
    "bytes": lambda a: a.astype(bytes),
    "object_complex": _object_holding_complex,
    "object_float": lambda a: a.astype(object),
}


@pytest.fixture(params=list(NON_REAL))
def non_real(request):
    """Maps a float array to the same values in a dtype that is not bool, integer or float."""
    return NON_REAL[request.param]
