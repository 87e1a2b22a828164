"""Shared simulation-backed fixtures for the test suite.

Session-scoped: the transient simulator is validated once in its own
tests, and the (much more numerous) technique tests run either on these
cached waveforms or on synthetic ones from :mod:`tests.helpers`.
"""

import pytest

from repro.library.cells import standard_cell
from tests.helpers import characterisation_response


@pytest.fixture(scope="session")
def invx4_response():
    """INVX4 driven by a 150 ps rising ramp into 20 fF (one simulation)."""
    return characterisation_response(standard_cell(4), 150e-12, 20e-15,
                                     input_rising=True, dt=2e-12)


@pytest.fixture(scope="session")
def noiseless_pair(invx4_response):
    """(v_in, v_out) of the simulated INVX4 -- a realistic overlapping pair."""
    return invx4_response.v_in, invx4_response.v_out
