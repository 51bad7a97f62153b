"""The README quick tour, compared byte for byte against recorded outputs.

Each command runs in-process through ``main`` in a directory that holds
the shipped zero file as ``zeros.txt``, with ``FRACZETA_PRECISION``
unset.  Its stdout (and the ``points.csv`` the boxcount command writes)
must equal the file under ``tests/data/golden/`` once the manifest
timestamp is masked.

To record the goldens again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import os
import re
import shlex
import shutil
from pathlib import Path

import pytest

from fraczeta.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

TOUR = [
    "construct pess --depth 3 --format csv",
    "construct --zeros zeros.txt --depth 5",
    "construct --modq 6 --keep 1,5 --depth 2",
    "dimension pess --method similarity",
    "dimension cantor13 --method boxcount --depth 10 --points-csv points.csv",
    "dimension --modq 8 --keep 1,3,5,7 --method similarity",
    "zeta --s 0.5 --terms 10000 --k 10 --digits 50",
    "zeros digitize --file zeros.txt",
    "zeros stats --file zeros.txt",
    "zeros reorder --file zeros.txt --mode random --seed 11",
    "compare --a pess --b cantor13",
    "catalog --format table",
    "conservation --zeros zeros.txt",
    "conservation --format table",
    "axioms",
    "perturb --p 0.75 --depth 12 --trials 500 --seed 7",
    "multifractal --ratios 1/4,1/4 --weights 1/2,1/2 --q-range=-5:5:0.5",
]

WRITTEN_FILES = ["points.csv"]

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def mask(text: str) -> str:
    return _TIMESTAMP.sub('"timestamp": "<masked>"', text)


def golden_name(index: int) -> str:
    return f"{index + 1:02d}.out"


def run_tour(workdir: Path) -> dict[str, str]:
    """Masked output of every tour command (and written file), by golden name."""
    shutil.copy(DATA_DIR / "riemann_zeros_100.txt", workdir / "zeros.txt")
    outputs = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i, command in enumerate(TOUR):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(shlex.split(command))
            assert code == 0, command
            outputs[golden_name(i)] = mask(buf.getvalue())
        for name in WRITTEN_FILES:
            outputs[name] = mask((workdir / name).read_text())
    finally:
        os.chdir(cwd)
    return outputs


@pytest.fixture(scope="module")
def tour_outputs(tmp_path_factory):
    saved = os.environ.pop("FRACZETA_PRECISION", None)
    try:
        return run_tour(tmp_path_factory.mktemp("tour"))
    finally:
        if saved is not None:
            os.environ["FRACZETA_PRECISION"] = saved


@pytest.mark.parametrize(
    "name", [golden_name(i) for i in range(len(TOUR))] + WRITTEN_FILES
)
def test_quick_tour_matches_golden(tour_outputs, name):
    assert tour_outputs[name] == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    import tempfile

    os.environ.pop("FRACZETA_PRECISION", None)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_tour(Path(tmp)).items():
            (GOLDEN_DIR / name).write_text(text)
