import os
import random
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
SRC_DIR = TESTS_DIR.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child interpreters, such as the CLI round trip, import the package
    from the same source tree as the tests, installed or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC_DIR), prepend=os.pathsep)
        yield


@pytest.fixture
def rng():
    return random.Random(0x5EC7)
