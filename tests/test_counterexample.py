import time

import pytest

import spectratile.counterexample as counterexample_module
import spectratile.spectral as spectral_module
import spectratile.tiling as tiling_module
from conftest import DATA_DIR
from spectratile.certio import trust_marker
from spectratile.guard import GuardExceeded
from spectratile.counterexample import (
    DATA_FILES,
    HADAMARD_EXPONENTS,
    PHASE_DENOMINATOR,
    POINT_COLUMNS,
    SPECTRUM_ROWS,
    base_point_set,
    base_spectrum_certificate,
    data_path,
    published_factorization,
    run_counterexample,
)
from spectratile.modlinalg import format_matrix, parse_matrix
from spectratile.spectral import cube_spectrum, verify_spectrum
from spectratile.tiling import ExhaustedSearch


EXPECTED_STEPS = (
    "phase-matrix-log-hadamard",
    "rank-mod-3",
    "published-factorization",
    "fresh-factorization",
    "base-set-spectral",
    "base-set-not-a-tile-divisibility",
    "base-set-not-a-tile-exhaustive",
    "composed-set-spectral",
    "extension-obstructions",
)


class TestFixtures:
    def test_phase_denominator(self):
        assert PHASE_DENOMINATOR == 3

    @pytest.mark.parametrize(
        "constant,name",
        [
            (HADAMARD_EXPONENTS, "hadamard_exponents"),
            (SPECTRUM_ROWS, "spectrum_rows"),
            (POINT_COLUMNS, "point_columns"),
        ],
    )
    def test_bundled_data_matches_embedded_constant(self, constant, name):
        bundled = data_path(DATA_FILES[name]).read_text()
        assert bundled == format_matrix(constant)
        assert parse_matrix(bundled) == constant

    @pytest.mark.parametrize(
        "constant,name",
        [
            (HADAMARD_EXPONENTS, "hadamard_exponents"),
            (SPECTRUM_ROWS, "spectrum_rows"),
            (POINT_COLUMNS, "point_columns"),
        ],
    )
    def test_transcription_against_reviewed_copy(self, constant, name):
        # The tests/data copies were transcribed and reviewed independently of
        # the package data; all three representations must agree byte for byte.
        reviewed = (DATA_DIR / DATA_FILES[name]).read_text()
        assert reviewed == format_matrix(constant)
        assert reviewed == data_path(DATA_FILES[name]).read_text()

    def test_unknown_data_file(self):
        with pytest.raises(FileNotFoundError):
            data_path("nonexistent.txt")

    def test_base_point_set_is_right_factor_columns(self):
        ps = base_point_set()
        assert len(ps) == 6
        assert ps.points[0] == (0, 0, 0, 0)
        assert ps.points[5] == (2, 2, 2, 2)

    def test_base_certificate_verifies(self):
        assert verify_spectrum(base_spectrum_certificate())

    def test_published_factorization_shape(self):
        fact = published_factorization()
        assert fact.left.rows == 6 and fact.left.cols == 4
        assert fact.right.rows == 4 and fact.right.cols == 6
        assert fact.rank == 4


class TestPipeline:
    def test_rejects_nonpositive_side_count(self):
        with pytest.raises(ValueError):
            run_counterexample(0)
        with pytest.raises(ValueError):
            run_counterexample(-1)

    def test_degenerate_side_count_one(self):
        report = run_counterexample(1)
        assert report.overall
        assert tuple(s.name for s in report.steps) == EXPECTED_STEPS
        record = report.envelope.payload
        assert record.composed_spectrum.set == base_point_set()
        assert record.composed_spectrum.group.modulus == 3

    def test_side_count_two(self):
        report = run_counterexample(2)
        assert report.overall
        record = report.envelope.payload
        assert len(record.composed_spectrum.set) == 96
        assert record.composed_spectrum.group.modulus == 6
        assert record.obstructions.extension_size == 96
        assert record.obstructions.extended_group_order == 1296
        assert not record.obstructions.size_divides
        assert isinstance(record.base_non_tiling_search.reason, ExhaustedSearch)
        assert trust_marker(report.envelope) == "verified"

    def test_step_metadata(self):
        report = run_counterexample(1)
        for step in report.steps:
            assert step.seconds >= 0
            assert step.detail
            assert step.certificate.startswith("payload.")
        assert report.envelope.provenance
        assert all(p.operation for p in report.envelope.provenance)

    def test_reports_are_deterministic_apart_from_timing(self):
        a = run_counterexample(1)
        b = run_counterexample(1)
        assert a.envelope == b.envelope
        assert [(s.name, s.passed, s.detail) for s in a.steps] == [
            (s.name, s.passed, s.detail) for s in b.steps
        ]


class TestEachSpectrumVerifiedOnce:
    def test_base_and_composed_verified_once_each(self, monkeypatch):
        """The base is verified in its own step and again as a premise of
        compose_spectral, with the cube; the composed spectrum is proved by
        the product lemma and never verified.  The repeat of the six-point
        base keeps the public construction's bad-input ValueError, with one
        code path and no flag."""
        checked = []
        original = spectral_module.verify_spectrum

        def recording(cert):
            checked.append(cert)
            return original(cert)

        monkeypatch.setattr(spectral_module, "verify_spectrum", recording)
        monkeypatch.setattr(counterexample_module, "verify_spectrum", recording)
        report = run_counterexample(2)
        assert report.overall
        assert tuple(s.name for s in report.steps) == EXPECTED_STEPS
        base = base_spectrum_certificate()
        assert checked == [base, base, cube_spectrum(2, 4)]

    def test_composes_through_the_public_function(self, monkeypatch):
        composed = []
        original = spectral_module.compose_spectral

        def recording(left, right):
            composed.append(original(left, right))
            return composed[-1]

        monkeypatch.setattr(spectral_module, "compose_spectral", recording)
        monkeypatch.setattr(counterexample_module, "compose_spectral", recording)
        report = run_counterexample(2)
        assert report.overall
        assert composed == [report.envelope.payload.composed_spectrum]


class TestExtensionBuiltOnce:
    def test_obstructions_reuse_the_composed_set_and_the_base_verdict(self, monkeypatch):
        """compose_spectral builds T + 3*[0,n)^4, and the obstruction report
        derives its numbers by arithmetic; the base verdict is the
        divisibility step's.  So the pipeline decides the base twice: once
        with the divisibility shortcut and once by exhausting the search."""
        decided = []
        original = tiling_module.decide_m_tile

        def recording(point_set, group, *args, **kwargs):
            decided.append(kwargs.get("divisibility_shortcut", True))
            return original(point_set, group, *args, **kwargs)

        monkeypatch.setattr(tiling_module, "decide_m_tile", recording)
        monkeypatch.setattr(counterexample_module, "decide_m_tile", recording)
        report = run_counterexample(2)
        assert report.overall
        assert decided == [True, False]

    def test_no_report_without_the_composed_set(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("left spectrum fails verification")

        monkeypatch.setattr(counterexample_module, "compose_spectral", refuse)
        report = run_counterexample(2)
        failed = {s.name: s.detail for s in report.steps if not s.passed}
        assert list(failed) == ["composed-set-spectral"]
        assert report.envelope is None


class TestStepsTimeTheirOwnWork:
    @pytest.mark.parametrize(
        "name, callee",
        [
            ("rank-mod-3", "rank_mod_p"),
            ("fresh-factorization", "rank_factorize_mod_p"),
            ("base-set-not-a-tile-divisibility", "decide_m_tile"),
            ("base-set-not-a-tile-exhaustive", "decide_m_tile"),
            ("composed-set-spectral", "cube_spectrum"),
        ],
    )
    def test_work_runs_inside_its_step(self, monkeypatch, name, callee):
        original = getattr(counterexample_module, callee)

        def slow(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(counterexample_module, callee, slow)
        report = run_counterexample(2)
        assert report.overall
        assert {s.name: s.seconds for s in report.steps}[name] >= 0.05

    @pytest.mark.parametrize("n, guard", [(2, 10), (20, 100_000)])
    def test_guard_is_raised_not_reported(self, n, guard):
        # Z_3^4 has 81 cells for the base searches; the cube of side 20 has 160,000.
        with pytest.raises(GuardExceeded):
            run_counterexample(n, guard)
