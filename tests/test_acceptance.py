"""Acceptance gate: one test per release criterion, stated tolerances only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
ACCEPTANCE line per criterion.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp

from fraczeta.cardinality import (
    InfoCardinality,
    catalog_map,
    compare,
    compare_trace,
    conservation_report,
)
from fraczeta.cli import main
from fraczeta.dimension import (
    box_dimension_fit,
    multifractal_spectrum,
    similarity_dimension,
)
from fraczeta.grids import (
    build_stage,
    ifs_of_grid,
    make_named_spec,
    make_pess_spec,
    make_zf_spec,
    self_similarity_check,
)
from fraczeta.montecarlo import RetentionConfig, run_trials
from fraczeta.zeros import digit_stats, digitize, reorder
from fraczeta.zeta import functional_equation_residual, zeta_euler_maclaurin

F = Fraction

PAPER_ZETA_HALF = "-1.460354508809586812889499152515440424"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_zeta_half(capsys):
    with criterion(1, "zeta(1/2) matches the reference to >= 12 digits in < 5 s"):
        start = time.perf_counter()
        code = main(
            ["zeta", "--s", "0.5", "--terms", "10000", "--k", "10", "--digits", "50"]
        )
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        value = json.loads(out)["result"]["value"]
        with mp.workdps(60):
            diff = abs(mp.mpf(value) - mp.mpf(PAPER_ZETA_HALF))
            assert diff < mp.mpf("1e-11")  # 12 significant digits of ~1.46
        assert elapsed < 5.0


def test_criterion_02_zeta_two():
    with criterion(2, "zeta(2) = pi^2/6 within 1e-12"):
        zv = zeta_euler_maclaurin(2, 10_000, 10, 50)
        with mp.workdps(60):
            assert abs(zv.value - mp.pi**2 / 6) < mp.mpf("1e-12")


def test_criterion_03_functional_equation():
    with criterion(3, "functional-equation residual < 1e-10 at s in {0.3, 0.5, 0.7}"):
        for s in ("0.3", "0.5", "0.7"):
            assert functional_equation_residual(s, 4000, 10, 50) < mp.mpf("1e-10")


def test_criterion_04_similarity_dimensions():
    with criterion(4, "similarity dimensions match closed forms within 1e-12"):
        expected = {
            "pess": 0.5,
            "cantor13": 1 / 3,
            "mod6": math.log(2) / math.log(6),
            "mod8": 2 / 3,
            "classic-cantor": math.log(2) / math.log(3),
        }
        assert abs(expected["mod6"] - 0.38685) < 1e-5
        assert abs(expected["classic-cantor"] - 0.63092) < 1e-5
        for name, target in expected.items():
            ratios = ifs_of_grid(make_named_spec(name)).ratios
            assert abs(similarity_dimension(ratios).value - target) < 1e-12


def test_criterion_05_exact_measure_law():
    with criterion(5, "total_length(pess, n) = 2^-n exactly for n <= 20"):
        spec = make_pess_spec()
        for n in range(21):
            assert build_stage(spec, n).total_length == F(1, 2**n)


def test_criterion_06_box_count_regression(zero_table):
    with criterion(6, "box slope 0.5 (r^2 = 1) for pess and for zf in both orderings"):
        scales = [F(1, 4**k) for k in range(1, 13)]
        fit = box_dimension_fit(build_stage(make_pess_spec(), 12), scales)
        assert abs(fit.value - 0.5) < 1e-12
        assert fit.residual > 1 - 1e-12

        for table in (zero_table, reorder(zero_table, "random", seed=20260810)):
            digits = digitize(table, precision_digits=50)
            assert len(digits) >= 12
            stage = build_stage(make_zf_spec(digits), 12)
            fit = box_dimension_fit(stage, scales)
            assert abs(fit.value - 0.5) < 1e-12


def test_criterion_07_comparison_and_catalog():
    with criterion(7, "pess > cantor13 with alpha-equal/delta-strict trace; table rows live"):
        entries = catalog_map()
        rel, trace = compare_trace(
            entries["pess"].cardinality, entries["cantor13"].cardinality
        )
        assert rel == "greater"
        assert trace[0]["component"] == "alpha" and trace[0]["relation"] == "equal"
        assert trace[1]["component"] == "delta" and trace[1]["relation"] == "greater"

        rows = {
            "pess": (1, 0.5, 1.46035),
            "cantor13": (1, 1 / 3, 0.0),
            "zf": (1, 0.5, -1.46035),
            "unit-interval": (1, 1.0, 0.0),
            "cantor": (1, math.log(2) / math.log(3), 0.0),
            "trivial-zeros": (0, 0.0, 0.0),
        }
        for name, (alpha, delta, iota) in rows.items():
            card = entries[name].cardinality
            assert card.alpha == alpha
            assert abs(card.delta - delta) < 1e-12
            assert abs(float(card.iota) - iota) < 1e-5
        # live evaluation, not a constant: shared value negates exactly
        assert entries["pess"].cardinality.iota + entries["zf"].cardinality.iota == 0


def test_criterion_08_conservation_report(zero_digits):
    with criterion(8, "conservation sum exactly 0 with definitional caveat and digit stats"):
        report = conservation_report(zero_digits=zero_digits)
        assert report.total == 0
        assert report.iota_pess > 0 > report.iota_zf
        with mp.workdps(60):
            assert report.iota_pess == -report.iota_zf
        assert "definitional" in report.caveat
        assert report.digit_stats is not None
        assert sum(report.digit_stats.counts) == len(zero_digits)


def test_criterion_09_multifractal_degeneracy():
    with criterion(9, "pess-as-weighted-IFS spectrum collapses to (1/2, 1/2) within 1e-9"):
        ifs = ifs_of_grid(make_pess_spec(), weights=[F(1, 2), F(1, 2)])
        q_grid = [q / 2 for q in range(-10, 11)]  # -5..5 step 0.5
        for point in multifractal_spectrum(ifs, q_grid):
            assert abs(point.alpha - 0.5) < 1e-9
            assert abs(point.f - 0.5) < 1e-9


def test_criterion_10_monte_carlo():
    with criterion(10, "retention trials: p=0.75 within 0.03 of log1.5/log4, p=1 exact, < 10 s"):
        start = time.perf_counter()
        run = run_trials(RetentionConfig.uniform(0.75, 12, 500, seed=20260810))
        predicted = math.log(1.5) / math.log(4)
        assert abs(predicted - 0.29248) < 1e-5
        assert abs(run.aggregate.mean_dim - predicted) < 0.03

        exact = run_trials(RetentionConfig.uniform(1.0, 12, 100, seed=1))
        assert all(o.dim_estimate == 0.5 for o in exact.outcomes)
        assert time.perf_counter() - start < 10.0


def test_criterion_11_property_suites(zero_table):
    with criterion(11, "order axioms on 1e4 triples; exact depth-8 checks; 40->60 digit stability"):
        rng = random.Random(682026)
        deltas = [0.0, 1 / 3, 0.5, math.log(2) / math.log(3), 1.0]
        iotas = [0.0, 1.4603545, -1.4603545, 0.25]

        def random_triple():
            return InfoCardinality(
                alpha=rng.randint(0, 1),
                delta=rng.choice(deltas),
                iota=rng.choice(iotas),
            )

        pool = [random_triple() for _ in range(300)]
        flip = {"less": "greater", "greater": "less", "equal": "equal"}
        for _ in range(10_000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ab = compare(a, b)
            assert compare(b, a) == flip[ab]  # antisymmetry
            bc = compare(b, c)
            if ab == bc or bc == "equal":
                assert compare(a, c) == ab  # transitivity through strict or tie
            elif ab == "equal":
                assert compare(a, c) == bc
            assert compare(a, a) == "equal"

        for name in ("pess", "cantor13"):
            spec = make_named_spec(name)
            assert self_similarity_check(spec, 8).ok
            for n in range(8):
                parents = list(build_stage(spec, n).intervals())
                for lo, hi in build_stage(spec, n + 1).intervals():
                    assert sum(1 for plo, phi in parents if plo <= lo and hi <= phi) == 1

        seq40 = digitize(zero_table, 40)
        seq60 = digitize(zero_table, 60)
        assert len(seq40) == 100
        for e40, e60 in zip(seq40, seq60):
            if not e40.boundary_flag:
                assert e40.a == e60.a
        digit_stats(seq40)  # report must be computable on the real digits
