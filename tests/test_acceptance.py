"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every tolerance is pinned here: the exact checks admit zero
tolerance, the floating cross-checks use the 1e-9 threshold, and each timed
criterion asserts its wall-clock budget.
"""

import cmath
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from conftest import DATA_DIR
from chain_oracle import two_stage_lift
from cyclotomic_oracle import ExponentMultiset
from spectratile.certio import parse, serialize
from spectratile.counterexample import (
    HADAMARD_EXPONENTS,
    base_point_set,
    base_spectrum_certificate,
    run_counterexample,
)
from spectratile.cyclotomic import is_vanishing_sum
from spectratile.guard import GuardExceeded
from spectratile.modlinalg import (
    IntMatrix,
    det_and_adjugate,
    matmul_mod,
    rank_factorize_mod_p,
    rank_mod_p,
)
from spectratile.spectral import (
    GroupSpec,
    PhaseMatrix,
    PointSet,
    SpectrumCertificate,
    compose_spectral,
    find_spectrum,
    is_log_hadamard,
    is_m_spectral,
    verify_spectrum,
)
from spectratile.tiling import (
    DivisibilityObstruction,
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    independent_tile,
    verify_tiling,
)

GOLDEN = DATA_DIR / "counterexample_n2.json"


def report(name: str, ok: bool, elapsed: float | None = None, budget: float | None = None):
    extra = ""
    if elapsed is not None and budget is not None:
        extra = f" [{elapsed:.2f}s of {budget:.0f}s budget]"
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{extra}", flush=True)
    assert ok, f"acceptance criterion failed: {name}"


def line_set(*values: int) -> PointSet:
    return PointSet(1, tuple((v,) for v in values))


@pytest.fixture(scope="module")
def pipeline2():
    start = time.perf_counter()
    result = run_counterexample(2)
    return result, time.perf_counter() - start


class TestCriterion1TheoremPipeline:
    def test_end_to_end(self, pipeline2):
        result, elapsed = pipeline2
        record = result.envelope.payload if result.envelope else None
        ok = (
            result.overall
            and record is not None
            # (1) the phase matrix over 3 is log-Hadamard, checked exactly
            and is_log_hadamard(PhaseMatrix(HADAMARD_EXPONENTS, 3))
            # (2) rank 4 mod 3
            and rank_mod_p(HADAMARD_EXPONENTS, 3) == 4
            # (3) the published pair re-multiplies entry for entry
            and matmul_mod(
                record.published_factorization.left,
                record.published_factorization.right,
                3,
            )
            == HADAMARD_EXPONENTS.reduced_mod(3)
            # (4) the six-point set is 3-spectral
            and is_m_spectral(record.base_spectrum.set, record.base_spectrum.spectrum)
            # (5) not a 3-tile: divisibility and exhaustive search both say so
            and isinstance(record.base_non_tiling_divisibility, NonTilingCertificate)
            and record.base_non_tiling_divisibility.reason
            == DivisibilityObstruction(6, 81)
            and isinstance(record.base_non_tiling_search.reason, ExhaustedSearch)
            # (6) the 96-point composition is 6-spectral, all 4560 pairs exact
            and len(record.composed_spectrum.set) == 96
            and record.composed_spectrum.group.modulus == 6
            and verify_spectrum(record.composed_spectrum)
            # (7) the 96 | 1296 obstruction is reported
            and record.obstructions.extension_size == 96
            and record.obstructions.extended_group_order == 1296
            and not record.obstructions.size_divides
            and elapsed < 60.0
        )
        report("1 theorem-pipeline-n2", ok, elapsed, 60.0)


class TestCriterion2FreshFactorization:
    def test_factorization_is_spectral_witness(self):
        start = time.perf_counter()
        fact = rank_factorize_mod_p(HADAMARD_EXPONENTS, 3)
        points = PointSet(
            fact.right.rows,
            tuple(fact.right.column(j) for j in range(fact.right.cols)),
        )
        spectral_ok = is_m_spectral(points, PhaseMatrix(fact.left, 3))
        elapsed = time.perf_counter() - start
        ok = (
            fact.product_mod_p() == HADAMARD_EXPONENTS.reduced_mod(3)
            and spectral_ok
            and elapsed < 1.0
        )
        report("2 fresh-factorization-spectral", ok, elapsed, 1.0)


def brute_force_tiles(points: PointSet, m: int) -> bool:
    # Assumption-free oracle: try every complement size and subset of Z_m.
    residues = [p[0] % m for p in points.points]
    cells = list(range(m))
    for size in range(1, m + 1):
        if size * len(residues) != m:
            continue
        for complement in itertools.combinations(cells, size):
            covered = set()
            ok = True
            for sigma in complement:
                for t in residues:
                    cell = (sigma + t) % m
                    if cell in covered:
                        ok = False
                        break
                    covered.add(cell)
                if not ok:
                    break
            if ok and len(covered) == m:
                return True
    return False


class TestCriterion3TilingOracle:
    def test_all_small_instances(self):
        start = time.perf_counter()
        instances = mismatches = 0
        for m in range(1, 9):
            for k in range(1, min(4, m) + 1):
                for subset in itertools.combinations(range(m), k):
                    points = line_set(*subset)
                    verdict = decide_m_tile(points, GroupSpec(m, 1))
                    tiles = isinstance(verdict, TilingCertificate)
                    if tiles != brute_force_tiles(points, m):
                        mismatches += 1
                    if tiles and not verify_tiling(verdict):
                        mismatches += 1
                    instances += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and instances == 372 and elapsed < 60.0
        report("3 tiling-oracle-equivalence", ok, elapsed, 60.0)


def float_rows_spectral(points: PointSet, rows, m: int) -> bool:
    for a, b in itertools.combinations(rows, 2):
        total = sum(
            cmath.exp(2j * cmath.pi * ((a - b) * t[0]) / m) for t in points.points
        )
        if abs(total) > 1e-9:
            return False
    return True


class TestCriterion4SpectrumOracle:
    def test_all_small_instances(self):
        start = time.perf_counter()
        instances = mismatches = 0
        for m in range(1, 7):
            for k in range(1, min(4, m) + 1):
                for subset in itertools.combinations(range(m), k):
                    points = line_set(*subset)
                    found = find_spectrum(points, m)
                    brute = any(
                        float_rows_spectral(points, rows, m)
                        for rows in itertools.combinations(range(m), k)
                    )
                    if (found is not None) != brute:
                        mismatches += 1
                    if found is not None and not verify_spectrum(found):
                        mismatches += 1
                    instances += 1
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and instances == 112 and elapsed < 120.0
        report("4 spectrum-oracle-equivalence", ok, elapsed, 120.0)


class TestCriterion5CyclotomicCrossCheck:
    def test_float_oracle_thousand_multisets(self):
        rng = random.Random(2024)
        disagreements = 0
        for _ in range(1000):
            m = rng.randint(1, 36)
            total = rng.randint(0, 24)
            exps = ExponentMultiset.from_exponents(
                m, (rng.randrange(m) for _ in range(total))
            )
            numeric = (
                abs(
                    sum(
                        c * cmath.exp(2j * cmath.pi * j / m)
                        for j, c in enumerate(exps.counts)
                    )
                )
                < 1e-9
            )
            if is_vanishing_sum(m, exps.exponents()) != numeric:
                disagreements += 1
        report("5a cyclotomic-float-oracle", disagreements == 0)

    def test_prime_equal_counts_exhaustive(self):
        mismatches = 0
        for m in (2, 3, 5):
            for counts in itertools.product(range(11), repeat=m):
                if sum(counts) > 10:
                    continue
                expected = len(set(counts)) == 1
                if is_vanishing_sum(m, ExponentMultiset(m, counts).exponents()) != expected:
                    mismatches += 1
        report("5b cyclotomic-prime-characterization", mismatches == 0)


class TestCriterion6PropertySuites:
    def test_translation_invariance_spectral(self):
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            m = rng.randint(1, 5)
            d = rng.randint(1, 2)
            k = rng.randint(1, 3)
            points = set()
            while len(points) < k:
                points.add(tuple(rng.randint(-3, 3) for _ in range(d)))
            ps = PointSet(d, tuple(points))
            cert = find_spectrum(ps, m)
            translated = ps.translated([rng.randint(-4, 4) for _ in range(d)])
            if cert is None:
                assert find_spectrum(translated, m) is None
            else:
                assert is_m_spectral(translated, cert.spectrum)
            checked += 1
        report("6a translation-invariance-spectral", checked >= 100)

    def test_translation_invariance_tiling(self):
        rng = random.Random(62)
        checked = 0
        while checked < 100:
            m = rng.randint(1, 6)
            d = rng.choice([1, 2])
            pool = list(itertools.product(range(m), repeat=d))
            k = rng.randint(1, min(4, len(pool)))
            ps = PointSet(d, tuple(rng.sample(pool, k)))
            offset = [rng.randint(-5, 5) for _ in range(d)]
            before = decide_m_tile(ps, GroupSpec(m, d))
            after = decide_m_tile(ps.translated(offset), GroupSpec(m, d))
            assert isinstance(before, TilingCertificate) == isinstance(
                after, TilingCertificate
            )
            checked += 1
        report("6b translation-invariance-tiling", checked >= 100)

    def test_spectrum_row_translation(self):
        rng = random.Random(63)
        checked = 0
        while checked < 100:
            m = rng.randint(2, 6)
            k = rng.randint(1, min(3, m))
            cert = find_spectrum(line_set(*rng.sample(range(m), k)), m)
            if cert is None:
                continue
            shift = rng.randrange(m)
            shifted = IntMatrix(
                k, 1, tuple((x + shift) % m for x in cert.spectrum.numerators.entries)
            )
            assert is_m_spectral(cert.set, PhaseMatrix(shifted, m))
            checked += 1
        report("6c spectrum-row-translation", checked >= 100)

    def test_transpose_symmetry(self):
        rng = random.Random(64)
        accepted = rejected = 0
        cases = [PhaseMatrix(HADAMARD_EXPONENTS, 3)]
        for m in (2, 3, 4, 5):
            cases.append(
                PhaseMatrix(
                    IntMatrix.from_rows(
                        [[(i * j) % m for j in range(m)] for i in range(m)]
                    ),
                    m,
                )
            )
        while len(cases) < 110:
            k = rng.randint(1, 4)
            m = rng.randint(1, 6)
            cases.append(
                PhaseMatrix(IntMatrix(k, k, tuple(rng.randrange(m) for _ in range(k * k))), m)
            )
        for mat in cases:
            verdict = is_log_hadamard(mat)
            assert is_log_hadamard(mat.transpose()) == verdict
            accepted += verdict
            rejected += not verdict
        report("6d transpose-symmetry", accepted > 0 and rejected > 0 and len(cases) >= 100)

    def test_adjugate_identity(self):
        rng = random.Random(65)
        for _ in range(100):
            n = rng.randint(1, 5)
            mat = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
            det, adj = det_and_adjugate(mat)
            expected = IntMatrix(
                n, n, tuple(det if i == j else 0 for i in range(n) for j in range(n))
            )
            assert matmul_mod(adj, mat, None) == expected
        report("6e adjugate-identity", True)

    def _tiling_pool(self, rng, dimension):
        pool = []
        while len(pool) < 8:
            m = rng.randint(1, 4)
            cells = list(itertools.product(range(m), repeat=dimension))
            k = rng.randint(1, min(3, len(cells)))
            verdict = decide_m_tile(
                PointSet(dimension, tuple(rng.sample(cells, k))), GroupSpec(m, dimension)
            )
            if isinstance(verdict, TilingCertificate):
                pool.append(verdict)
        return pool

    def test_compose_tile_reverifies(self):
        rng = random.Random(66)
        pools = {1: self._tiling_pool(rng, 1), 2: self._tiling_pool(rng, 2)}
        checked = 0
        while checked < 100:
            d = rng.choice([1, 2])
            left, right = rng.choice(pools[d]), rng.choice(pools[d])
            composed = compose_tile(left, right)
            assert verify_tiling(composed)
            checked += 1
        report("6f compose-tile-reverifies", checked >= 100)

    def _spectrum_pool(self, rng, dimension):
        pool = []
        while len(pool) < 8:
            m = rng.randint(1, 4)
            cells = list(itertools.product(range(m), repeat=dimension))
            k = rng.randint(1, min(3, len(cells)))
            cert = find_spectrum(
                PointSet(dimension, tuple(rng.sample(cells, k))), m
            )
            if cert is not None:
                pool.append(cert)
        return pool

    def test_compose_spectral_reverifies(self):
        rng = random.Random(67)
        pools = {1: self._spectrum_pool(rng, 1), 2: self._spectrum_pool(rng, 2)}
        checked = 0
        while checked < 100:
            d = rng.choice([1, 2])
            left, right = rng.choice(pools[d]), rng.choice(pools[d])
            composed = compose_spectral(left, right)
            assert verify_spectrum(composed)
            checked += 1
        report("6g compose-spectral-reverifies", checked >= 100)

    def test_independent_tile_always_verifies(self):
        rng = random.Random(68)
        checked = 0
        while checked < 100:
            d = rng.choice([2, 3])
            k = rng.randint(1, min(d, 3))
            points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
            if len(set(points)) != k:
                continue
            try:
                chain = independent_tile(PointSet(d, tuple(points)), guard=200_000)
            except GuardExceeded:
                continue
            except ValueError:
                continue  # dependent draw
            projected, lifted = two_stage_lift(chain)
            assert verify_tiling(chain.one_dimensional)
            assert verify_tiling(projected)
            assert verify_tiling(chain.final)
            assert chain.final == lifted
            checked += 1
        report("6h independent-tile-verifies", checked >= 100)


class TestCriterion7CertificateRoundTrip:
    def test_round_trip_and_golden_stability(self, pipeline2, tmp_path):
        result, _ = pipeline2
        envelope = result.envelope
        assert envelope is not None
        in_process = serialize(envelope)

        # parse/serialize identity
        assert parse(in_process) == envelope

        # independent run in a fresh interpreter via the CLI
        out = tmp_path / "counterexample_n2.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "spectratile.cli",
                "--quiet",
                "verify-counterexample",
                "-n",
                "2",
                "--json",
                str(out),
            ],
            capture_output=True,
            timeout=120,
        )
        subprocess_bytes = out.read_bytes() if out.exists() else b""
        stable_across_runs = proc.returncode == 0 and subprocess_bytes == in_process

        golden_matches = GOLDEN.is_file() and GOLDEN.read_bytes() == in_process
        report(
            "7 certificate-round-trip-and-golden",
            stable_across_runs and golden_matches,
        )
