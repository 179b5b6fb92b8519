import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make the oracles importable


@pytest.fixture(autouse=True)
def _runtime_warnings_are_errors():
    # numpy reports a NaN or an overflow as a RuntimeWarning; fail the test
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0xA11CE)
