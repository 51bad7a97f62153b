import os
from pathlib import Path

import pytest
from hypothesis import settings

from fraczeta.zeros import digitize, parse_zero_file

DATA_DIR = Path(__file__).parent / "data"
ZEROS_100 = DATA_DIR / "riemann_zeros_100.txt"

# Under CI a failing example also prints the blob that replays it locally
# (@reproduce_failure).  The profile's parent is the one already in force
# (recent hypothesis loads its own "ci" profile under CI), so example counts
# and deadlines stay as they were.
settings.register_profile("ci", settings.default, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def zeros_path() -> Path:
    return ZEROS_100


@pytest.fixture(scope="session")
def zero_table(zeros_path):
    return parse_zero_file(zeros_path)


@pytest.fixture(scope="session")
def zero_digits(zero_table):
    return digitize(zero_table, precision_digits=50)
