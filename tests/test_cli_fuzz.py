"""In-process fuzzing of the command line: every drawn argv ends in a documented way.

An argv is drawn from a grammar of subcommands and flags, each flag taking
a valid, an edge or a garbage value, and so is ``FRACZETA_PRECISION``.  The
edges of every text value, of every flag that argparse reads as a number or
a choice, of the command and of a trailing extra argument include texts of
thousands of characters and digits.  File arguments name the shipped zero
file, malformed data files (an ``inf`` line, a huge exponent, a
4000-character line, bytes that are not UTF-8, an empty file, a directory,
a missing path), and outputs that can or cannot be written.  Each run must exit 0, 2, 3, 4, 5 or 6, never 1
or a traceback; exit 0 writes strict JSON, or the documented CSV or table,
and an error ends with exactly one ``error:`` line of bounded length.

Valid values lie well inside the caps of :mod:`fraczeta.limits`; values
past a cap are drawn to check that the run is refused at once.  A valid
run at a cap itself costs seconds to minutes by design, so it is not drawn,
and neither is a ``--cap`` above the default, which opts into more work.
"""

import contextlib
import io
import json
import shutil
import signal
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fraczeta.cli import main

DATA_DIR = Path(__file__).parent / "data"

# every drawn run ends within this many seconds
BUDGET_S = 5.0

# An error line has at most this many characters once each file path in it,
# which a message shows whole, is shown as its token.  The longest the grammar
# can draw, an unknown set name of 4000 characters cut to 80, has 184; an
# argparse usage error shows its message as one text cut to 80 characters.
MAX_ERROR_LINE = 189

# an integer of 4000 digits, which argparse reads and every message must abbreviate
NINES = "9" * 4000

# Texts every message must bound: 4000 characters of garbage, a digit run of
# 4000 after a letter, and a number that passes the exponent guard but has
# more digits than Python prints.
LONG_TEXTS = ["x/,:;e-#" * 500, "x" + NINES, "-" + "9" * 4299 + "e1000"]

# What no number flag or choice reads: the long texts, and an integer of more digits than Python reads.
UNREADABLE = [*LONG_TEXTS, "9" * 5000]

# 4000 characters that a template's !r prints as 16000
CONTROL = "\x01" * 4000

# A process argument cannot hold a NUL byte, so the drawn text holds none.
GARBAGE = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1/0", "1e9999999", "1e-9999999", "0.5.5", "1,,2"]),
    st.text(st.characters(blacklist_characters="\x00"), max_size=4),
)


def values(valid, edge=()):
    """A flag value: in twenty draws, sixteen ``valid``, three ``edge`` and one garbage."""
    valid = st.sampled_from([str(v) for v in valid])
    edge = st.sampled_from([str(v) for v in edge]) if edge else valid
    return st.integers(0, 19).flatmap(lambda i: GARBAGE if i == 0 else edge if i <= 3 else valid)


def opt(flag, strategy):
    """``[]`` or ``["FLAG=value"]``; the joined form keeps values such as ``-1`` values."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"{flag}={v}"]))


def req(flag, strategy):
    """A required flag: ``["FLAG=value"]``, or missing one time in ten."""
    present = strategy.map(lambda v: [f"{flag}={v}"])
    return st.integers(0, 9).flatmap(lambda i: st.just([]) if i == 0 else present)


def argv_of(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for p in ps for arg in p])


def fixed(*args):
    return st.just(list(args))


DATA_FILES = values(["@ZEROS"], ["@INF_ZEROS", "@HUGE_ZEROS", "@LONG_LINE", "@NOT_UTF8", "@EMPTY", "@DIR", "@MISSING"])
WEIGHT_FILES = values(["@WEIGHTS"], ["@HUGE_WEIGHTS", "@NOT_UTF8", "@DIR", "@MISSING"])
OUT = opt("--out", values(["@OUT"], ["@NO_DIR/out", "@DIR"]))
SIDE_PATHS = values(["@SIDE"], ["@NO_DIR/side.csv", "@DIR"])
DIGITS = opt("--digits", values([20, 30, 50, 1000], [-1, 0, 19, 1001, 10**8, *UNREADABLE]))
SEED = values([1, 11], [-1, 2**64, *UNREADABLE])
CATALOG_NAMES = values(["pess", "cantor13", "zf", "unit-interval", "cantor", "trivial-zeros"], ["nope"])

SET_CHOICES = st.one_of(
    # argparse reads a positional that starts with '-', such as the third long text, as an unknown option
    values(["pess", "cantor13", "classic-cantor", "mod6", "mod8"], ["wat", *LONG_TEXTS]).map(lambda n: [n]),
    req("--zeros", DATA_FILES),
    argv_of(
        req("--modq", values([6, 8, 10**30], [1, 0, -3, NINES, *UNREADABLE])),
        req("--keep", values(["1,5", "1,3,5,7", "1"], ["0,1,2,3,4,5", "9", "-1", "1,x", *LONG_TEXTS, CONTROL])),
    ),
)
# one set, else none or two of them
SET_CHOICE = st.integers(0, 9).flatmap(
    lambda i: st.lists(SET_CHOICES, max_size=2).map(lambda ps: [a for p in ps for a in p])
    if i == 0
    else SET_CHOICES
)
SET_FLAGS = argv_of(
    SET_CHOICE,
    opt("--order", values(["standard", "random"], UNREADABLE)),
    opt("--seed", SEED),
    opt("--tol", values([1e-3, 1e-6], [0, -1, *UNREADABLE])),
)
DEPTH = values([0, 1, 2, 3, 5], [-1, 21, 30, 10**6, 10**30, "-" + NINES, *UNREADABLE])

CONSTRUCT = argv_of(
    fixed("construct"),
    SET_FLAGS,
    req("--depth", DEPTH),
    opt("--format", values(["json", "csv"], UNREADABLE)),
    opt("--cap", values([100, 2**20], [-5, 0, 1, "-" + NINES, *UNREADABLE])),
    DIGITS,
    OUT,
)
DIMENSION = argv_of(
    fixed("dimension"),
    SET_FLAGS,
    opt("--method", values(["similarity", "boxcount"], UNREADABLE)),
    opt("--depth", DEPTH),
    opt(
        "--scales",
        values(
            ["1/4,1/16,1/64", "1/3,1/5,1/7", "1e-300,1/2,1/4"],
            [
                "1/2", "0,1/2,1/4", "-1/2,1/4,1/8", "1/0,1/2", "1e-400,1/4,1/16", "1e400,1/4,1/16",
                "1e9999999,1/4,1/16", ",".join(f"1/{10**999 + k}" for k in range(16)),
                *(f"{text},1/2,1/4" for text in LONG_TEXTS),
            ],
        ),
    ),
    opt("--points-csv", SIDE_PATHS),
    DIGITS,
    OUT,
)
ZETA = argv_of(
    fixed("zeta"),
    req("--s", values([0.5, 2, "2/3", 3, "1e-30", 10**6], [1, 0, -0.5, 10**6 + 1, "1e400", *LONG_TEXTS, CONTROL])),
    opt("--terms", values([10, 50, 1000], [2, 100_001, 0, -5, 10**30, *UNREADABLE])),
    opt("--k", values([1, 4, 30], [31, 0, -1, *UNREADABLE])),
    DIGITS,
    OUT,
)
ZEROS = argv_of(
    fixed("zeros"),
    values(["digitize", "stats", "reorder"], ["nope", *UNREADABLE]).map(lambda c: [c]),
    req("--file", DATA_FILES),
    opt("--mode", values(["as-is", "standard", "random", "external"], UNREADABLE)),
    opt("--seed", SEED),
    opt("--weights", WEIGHT_FILES),
    opt("--tol", values([1e-3, 1e-6], [0, -1, 1, *UNREADABLE])),
    opt("--format", values(["csv", "json"], UNREADABLE)),
    DIGITS,
    OUT,
)
COMPARE = argv_of(
    fixed("compare"),
    req("--a", CATALOG_NAMES),
    req("--b", CATALOG_NAMES),
    st.sampled_from([[], ["--extended"]]),
    DIGITS,
    OUT,
)
CATALOG = argv_of(fixed("catalog"), opt("--format", values(["json", "table"], UNREADABLE)), DIGITS, OUT)
CONSERVATION = argv_of(
    fixed("conservation"),
    opt("--zeros", DATA_FILES),
    opt("--format", values(["json", "table"], UNREADABLE)),
    DIGITS,
    OUT,
)
AXIOMS = argv_of(fixed("axioms"), DIGITS, OUT)
PERTURB = argv_of(
    fixed("perturb"),
    # exactly one of --p and --bias is valid
    st.one_of(
        req("--p", values([0, 0.25, 0.5, 0.75, 1], [1.5, -0.1, *UNREADABLE])),
        req("--bias", values(["0.6,0.9", "1,1", "0,0"], ["0.5", "x,0.5", "nan,0.5", "2,0", *LONG_TEXTS])),
        argv_of(opt("--p", values([0.5])), opt("--bias", values(["0.6,0.9"]))),
    ),
    req("--depth", values([1, 3, 12, 64, 70], [0, -1, 1_000_001, "-" + NINES, *UNREADABLE])),
    req("--trials", values([1, 5, 20], [0, -1, 10**8, *UNREADABLE])),
    req("--seed", SEED),
    opt("--base", values([2, 4, 10**30], [1, 0, *UNREADABLE])),
    opt("--per-trial", SIDE_PATHS),
    DIGITS,
    OUT,
)
MULTIFRACTAL = argv_of(
    fixed("multifractal"),
    req("--ratios", values(
        ["1/4,1/4", "1/2,1/3", "1/3,1/5,1/7"],
        ["0,1/2", "1,1/2", "1/4", "-1/4,1/4", "1e9999999,1/4", "1e-400,1/2", "0." + "9" * 20,
         "0." + "9" * 20 + ",1/2", *(f"{t},1/4" for t in LONG_TEXTS)],
    )),
    req("--weights", values(
        ["1/2,1/2", "1/3,2/3", "1/4,1/4,1/2"],
        ["1", "0,1", "1/2,1/3", "1e-9999999,1/2", "2e-400,0." + "9" * 399 + "8", *(f"{t},1/2" for t in LONG_TEXTS)],
    )),
    # exactly one of --q and --q-range is needed
    st.one_of(
        req("--q", values(["0,1,2.5", "-10,10"], ["1e6", "-1e6", "1e300", "", *LONG_TEXTS])),
        req("--q-range", values(
            ["-5:5:0.5", "-10:10:1/100", "0:0:1"],
            ["1:0:1", "0:1:0", "0:1:1e-6", "0:1", "0:1e9999999:1", "1e400:1e400:1", *LONG_TEXTS,
             *(f"0:{t}:1" for t in LONG_TEXTS), *(f"0:1:1:{t}" for t in LONG_TEXTS)],
        )),
    ),
    DIGITS,
    OUT,
)
ARGV = argv_of(
    st.one_of(
        CONSTRUCT, DIMENSION, ZETA, ZEROS, COMPARE, CATALOG, CONSERVATION, AXIOMS, PERTURB, MULTIFRACTAL,
        fixed(), values(["nope"], UNREADABLE).map(lambda c: [c]),
    ),
    # an extra argument one time in ten
    st.integers(0, 9).flatmap(
        lambda i: st.sampled_from(["--bogus", "extra", *UNREADABLE]).map(lambda t: [t]) if i == 0 else st.just([])
    ),
)
# FRACZETA_PRECISION is set in one run in four
PRECISION = st.integers(0, 3).flatmap(
    lambda i: values([30, 50], [5, 10**8, *LONG_TEXTS]) if i == 0 else st.none()
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Token -> path for every file argument the grammar draws."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copy(DATA_DIR / "riemann_zeros_100.txt", root / "zeros.txt")
    contents = {
        "inf_zeros.txt": b"14.134725141734693\ninf\n",
        "huge_zeros.txt": b"14.134725141734693\n1e999999\n",
        "long_line.txt": b"14.134725141734693\n" + b"x/,:;e-#" * 500 + b"\n",
        "not_utf8.txt": b"\xff\xfe",
        "empty.txt": b"",
        "weights.txt": "".join(f"{i} {i * 37 % 101}\n" for i in range(1, 101)).encode(),
        "huge_weights.txt": b"1 0.5\n2 1e999999\n",
    }
    for name, data in contents.items():
        (root / name).write_bytes(data)
    (root / "dir").mkdir()
    return {
        "@ZEROS": root / "zeros.txt",
        "@INF_ZEROS": root / "inf_zeros.txt",
        "@HUGE_ZEROS": root / "huge_zeros.txt",
        "@LONG_LINE": root / "long_line.txt",
        "@NOT_UTF8": root / "not_utf8.txt",
        "@EMPTY": root / "empty.txt",
        "@WEIGHTS": root / "weights.txt",
        "@HUGE_WEIGHTS": root / "huge_weights.txt",
        "@DIR": root / "dir",
        "@MISSING": root / "missing.txt",
        "@NO_DIR": root / "missing",
        "@OUT": root / "out",
        "@SIDE": root / "side.csv",
    }


def _flag(argv, name):
    """The value of the last ``name=value`` argument, or None."""
    found = [a.split("=", 1)[1] for a in argv if a.startswith(f"{name}=")]
    return found[-1] if found else None


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def check_json(text):
    assert set(strict_json(text)) == {"manifest", "result"}


def check_csv(text):
    """A '# manifest: {json}' line, a header, then rows with the header's columns."""
    first, header, *rows = text.splitlines()
    strict_json(first.removeprefix("# manifest: "))
    assert all(row.count(",") == header.count(",") for row in rows)


def check_ordinates(text):
    first, *rows = text.splitlines()
    strict_json(first.removeprefix("# manifest: "))
    assert rows and all(Decimal(row).is_finite() for row in rows)


def check_table(text):
    lines = text.splitlines()
    assert set(lines[1]) <= {"-", " "} and "-" in lines[1]
    assert not any(word in text.lower().split() for word in ("nan", "inf", "-inf"))


def check_output(argv, text):
    """``text`` is what the command documents: JSON, CSV, a table or an ordinate list."""
    command = " ".join(argv[:2]) if argv[0] == "zeros" else argv[0]
    fmt = _flag(argv, "--format") or ("csv" if command == "zeros digitize" else "json")
    if command == "zeros reorder":
        check_ordinates(text)
    elif fmt == "csv":
        check_csv(text)
    elif fmt == "table":
        check_table(text)
    else:
        check_json(text)


def _over_budget(signum, frame):
    raise TimeoutError(f"run exceeded {BUDGET_S} s")


def run(argv):
    """(exit code, stdout, stderr, seconds) of ``main(argv)``; a traceback propagates."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="the time budget needs SIGALRM")
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARGV, PRECISION)
def test_every_argv_ends_in_a_documented_way(monkeypatch, files, argv, precision):
    if precision is None:
        monkeypatch.delenv("FRACZETA_PRECISION", raising=False)
    else:
        monkeypatch.setenv("FRACZETA_PRECISION", precision)
    monkeypatch.chdir(files["@DIR"])  # garbage output paths land here
    for token in ("@OUT", "@SIDE"):
        files[token].unlink(missing_ok=True)
    for token, path in sorted(files.items(), key=lambda item: -len(item[0])):
        argv = [arg.replace(token, str(path)) for arg in argv]
    code, out, err, seconds = run(argv)
    assert code in {0, 2, 3, 4, 5, 6}, (code, err)
    assert seconds < BUDGET_S
    if code != 0:
        line = err.splitlines()[-1]
        for token, path in sorted(files.items(), key=lambda item: -len(str(item[1]))):
            line = line.replace(str(path), token)
        assert len(line) <= MAX_ERROR_LINE, line
    if code == 0:
        assert err == ""
        to_file = _flag(argv, "--out")
        check_output(argv, Path(to_file).read_text() if to_file else out)
        if to_file:
            assert out == ""
        # --points-csv is written by the boxcount method only
        if files["@SIDE"].exists():
            check_csv(files["@SIDE"].read_text())
    elif code == 2:
        lines = err.splitlines()
        assert sum("error:" in line for line in lines) == 1 and ": error: " in lines[-1], err
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
