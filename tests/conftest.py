import importlib
from pathlib import Path

import numpy as np
import pytest

from dmmsim.builtin_codes import builtin_code
from dmmsim.linear_code import BinaryCode, extend_repetition

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def script():
    """Import a module from ``scripts/`` by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        yield importlib.import_module


@pytest.fixture(scope="session")
def hamming():
    return builtin_code("hamming_7_4")


@pytest.fixture(scope="session")
def code24():
    return builtin_code("ldpc_r12_n24")


@pytest.fixture(scope="session")
def code256():
    return builtin_code("ldpc_r12_n256")


@pytest.fixture(scope="session")
def code64_r14():
    return builtin_code("ldpc_r14_n64")


@pytest.fixture(scope="session")
def rep16_n256(code64_r14):
    """Rate-1/16 repetition extension matching the n=256 first-stream code."""
    return extend_repetition(code64_r14, 4)


@pytest.fixture(scope="session")
def toy_code():
    """A hand-checkable (6,3) code."""
    h = np.array(
        [
            [1, 1, 0, 1, 0, 0],
            [0, 1, 1, 0, 1, 0],
            [1, 0, 1, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    return BinaryCode(h, name="toy_6_3")
