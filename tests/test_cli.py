import json

import pytest

from conftest import DATA_DIR
from spectratile import certio, spectral, tiling
from spectratile.cli import main
from spectratile.counterexample import DATA_FILES, data_path
from spectratile.modlinalg import IntMatrix, format_matrix
from spectratile.spectral import PointSet, format_phase_matrix, format_point_set
from spectratile.spectral import GroupSpec, PhaseMatrix
from spectratile.tiling import ExhaustedSearch, NonTilingCertificate


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return tmp_path, write


def line_file(write, name, *values):
    return write(name, format_point_set(PointSet(1, tuple((v,) for v in values))))


class TestVerifyCounterexample:
    def test_passes_and_writes_certificate(self, files, capsys):
        tmp_path, _ = files
        out = tmp_path / "cert.json"
        assert main(["verify-counterexample", "-n", "1", "--json", str(out)]) == 0
        captured = capsys.readouterr()
        assert "overall: PASS" in captured.out
        envelope = certio.parse(out.read_bytes())
        assert envelope.kind == "counterexample"

    def test_zero_side_count_is_usage_error(self, capsys):
        assert main(["verify-counterexample", "-n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_guard_exceeded_is_exit_two(self, capsys):
        assert main(["verify-counterexample", "-n", "2", "--guard", "10"]) == 2

    def test_quiet_suppresses_steps(self, capsys):
        assert main(["--quiet", "verify-counterexample", "-n", "1"]) == 0
        assert capsys.readouterr().out == ""


class TestSpectrumCommands:
    def test_check_fixture_files(self, files):
        _, write = files
        # build the point set file from the bundled matrix columns
        columns = data_path(DATA_FILES["point_columns"]).read_text()
        rows = [list(map(int, line.split())) for line in columns.splitlines()[1:]]
        points = PointSet(4, tuple(zip(*rows)))
        set_file = write("points.txt", format_point_set(points))
        spectrum_text = data_path(DATA_FILES["spectrum_rows"]).read_text() + "denominator 3\n"
        spectrum_file = write("spectrum.txt", spectrum_text)
        assert main(["spectrum", "check", "--set", set_file, "--spectrum", spectrum_file]) == 0
        assert (
            main(
                ["spectrum", "check", "--set", set_file, "--spectrum", spectrum_file, "-m", "3"]
            )
            == 0
        )
        assert (
            main(
                ["spectrum", "check", "--set", set_file, "--spectrum", spectrum_file, "-m", "5"]
            )
            == 2
        )

    def test_check_negative_verdict(self, files):
        _, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        bad_spectrum = write(
            "bad.txt",
            format_phase_matrix(PhaseMatrix(IntMatrix.from_rows([[0], [0]]), 2)),
        )
        assert main(["spectrum", "check", "--set", set_file, "--spectrum", bad_spectrum]) == 1

    def test_find_positive(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        out = tmp_path / "spec.json"
        assert main(["spectrum", "find", "--set", set_file, "-m", "2", "--json", str(out)]) == 0
        assert certio.parse(out.read_bytes()).kind == "spectrum"
        assert "denominator 2" in capsys.readouterr().out

    def test_find_negative(self, files):
        _, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        assert main(["spectrum", "find", "--set", set_file, "-m", "3"]) == 1

    def test_missing_file_is_exit_two(self):
        assert main(["spectrum", "find", "--set", "/nonexistent", "-m", "2"]) == 2

    def test_dimension_mismatch_is_exit_two(self, files):
        _, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        wide = write(
            "wide.txt",
            format_phase_matrix(PhaseMatrix(IntMatrix.from_rows([[0, 0], [1, 0]]), 2)),
        )
        assert main(["spectrum", "check", "--set", set_file, "--spectrum", wide]) == 2


class TestTileCommands:
    def test_decide_tiles(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        out = tmp_path / "tile.json"
        assert main(["tile", "decide", "--set", set_file, "-m", "4", "--json", str(out)]) == 0
        assert "complement" in capsys.readouterr().out
        assert certio.parse(out.read_bytes()).kind == "tiling"

    def test_decide_non_tiling(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1, 2)
        out = tmp_path / "non.json"
        assert main(["tile", "decide", "--set", set_file, "-m", "4", "--json", str(out)]) == 1
        envelope = certio.parse(out.read_bytes())
        assert envelope.kind == "non-tiling"
        assert "does not divide" in capsys.readouterr().out

    def test_verify_round_trip(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        out = tmp_path / "tile.json"
        main(["tile", "decide", "--set", set_file, "-m", "4", "--json", str(out)])
        capsys.readouterr()
        assert main(["tile", "verify", str(out)]) == 0
        assert "trust: verified" in capsys.readouterr().out

    def test_verify_tampered_is_exit_one(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        out = tmp_path / "tile.json"
        main(["tile", "decide", "--set", set_file, "-m", "4", "--json", str(out)])
        doc = json.loads(out.read_bytes())
        doc["payload"]["complement"]["points"][1] = ["1"]
        out.write_text(json.dumps(doc))
        assert main(["tile", "verify", str(out)]) == 1

    def test_verify_garbage_is_exit_two(self, files):
        tmp_path, write = files
        bad = write("bad.json", "{not json")
        assert main(["tile", "verify", bad]) == 2

    def test_compose(self, files, capsys):
        tmp_path, write = files
        a_set = line_file(write, "a.txt", 0, 1)
        out_a = tmp_path / "a.json"
        main(["tile", "decide", "--set", a_set, "-m", "2", "--json", str(out_a)])
        out = tmp_path / "composed.json"
        assert main(["tile", "compose", str(out_a), str(out_a), "--json", str(out)]) == 0
        assert certio.parse(out.read_bytes()).kind == "composition"

    def test_lift(self, files, capsys):
        tmp_path, write = files
        base_set = line_file(write, "base.txt", 0, 1)
        base_cert = tmp_path / "base.json"
        main(["tile", "decide", "--set", base_set, "-m", "2", "--json", str(base_cert)])
        plane = write(
            "plane.txt", format_point_set(PointSet(2, ((0, 0), (1, 0))))
        )
        transform = write("transform.txt", format_matrix(IntMatrix.from_rows([[1, 0]])))
        out = tmp_path / "lifted.json"
        assert (
            main(
                [
                    "tile",
                    "lift",
                    "--set",
                    plane,
                    "--matrix",
                    transform,
                    str(base_cert),
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        assert certio.parse(out.read_bytes()).kind == "lift"

    def test_independent(self, files, capsys):
        tmp_path, write = files
        set_file = write(
            "indep.txt", format_point_set(PointSet(2, ((1, 0), (0, 1))))
        )
        out = tmp_path / "chain.json"
        assert main(["tile", "independent", "--set", set_file, "--json", str(out)]) == 0
        assert certio.parse(out.read_bytes()).kind == "independence-chain"

    def test_independent_walks_no_group(self, files, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("lift_tile called")

        monkeypatch.setattr(tiling, "lift_tile", refuse)
        tmp_path, write = files
        set_file = write("indep.txt", format_point_set(PointSet(3, ((2, 0, 1), (0, 3, 0)))))
        out = tmp_path / "chain.json"
        assert main(["tile", "independent", "--set", set_file, "--json", str(out)]) == 0
        assert "tiles Z_12^3; complement size 864" in capsys.readouterr().out
        assert certio.parse(out.read_bytes()).kind == "independence-chain"

    def test_independent_dependent_input_is_exit_two(self, files):
        _, write = files
        set_file = write(
            "dep.txt", format_point_set(PointSet(2, ((1, 1), (2, 2))))
        )
        assert main(["tile", "independent", "--set", set_file]) == 2


class TestMatrixCommands:
    def test_rank_of_fixture(self, capsys):
        path = str(data_path(DATA_FILES["hadamard_exponents"]))
        assert main(["matrix", "rank", "--matrix", path, "-p", "3"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_rank_non_prime_is_exit_two(self):
        path = str(data_path(DATA_FILES["hadamard_exponents"]))
        assert main(["matrix", "rank", "--matrix", path, "-p", "4"]) == 2

    def test_factorize_prints_both_factors(self, capsys):
        path = str(data_path(DATA_FILES["hadamard_exponents"]))
        assert main(["matrix", "factorize", "--matrix", path, "-p", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank 4" in out and "left" in out and "right" in out

    def test_hadamard_fixture(self):
        path = str(data_path(DATA_FILES["hadamard_exponents"]))
        assert main(["matrix", "hadamard", "--matrix", path, "-m", "3"]) == 0

    def test_hadamard_zeros_is_exit_one(self, files):
        _, write = files
        path = write("zeros.txt", format_matrix(IntMatrix.zeros(2, 2)))
        assert main(["matrix", "hadamard", "--matrix", path, "-m", "2"]) == 1

    def test_non_decimal_token_is_exit_two(self, files, capsys):
        _, write = files
        path = write("underscore.txt", "1 2\n1_0 1\n")
        assert main(["matrix", "rank", "--matrix", path, "-p", "3"]) == 2
        assert "'1_0'" in capsys.readouterr().err

    def test_hadamard_denominator_past_the_cyclotomic_bound_is_exit_two(self, capsys):
        path = str(data_path(DATA_FILES["hadamard_exponents"]))
        m = "100000000000000000000"
        assert main(["matrix", "hadamard", "--matrix", path, "-m", m]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGuardEnvironment:
    def test_env_var_guard(self, files, monkeypatch):
        _, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        monkeypatch.setenv("SPECTRATILE_GUARD", "2")
        assert main(["tile", "decide", "--set", set_file, "-m", "4"]) == 2
        monkeypatch.setenv("SPECTRATILE_GUARD", "1000")
        assert main(["tile", "decide", "--set", set_file, "-m", "4"]) == 0

    def test_explicit_guard_overrides_env(self, files, monkeypatch):
        _, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        monkeypatch.setenv("SPECTRATILE_GUARD", "2")
        assert main(["tile", "decide", "--set", set_file, "-m", "4", "--guard", "100"]) == 0


class TestVerifyReplay:
    GOLDEN_NODES = b'"nodes":"750"'

    def golden(self, tmp_path, nodes=b"750"):
        data = (DATA_DIR / "counterexample_n2.json").read_bytes()
        assert data.count(self.GOLDEN_NODES) == 1
        path = tmp_path / "bundle.json"
        path.write_bytes(data.replace(self.GOLDEN_NODES, b'"nodes":"' + nodes + b'"'))
        return str(path)

    def test_golden_bundle_replays(self, tmp_path, capsys):
        assert main(["tile", "verify", "--replay", self.golden(tmp_path)]) == 0
        assert "exhausted after 750 nodes, as recorded" in capsys.readouterr().out

    def test_tampered_node_count_fails_only_on_replay(self, tmp_path, capsys):
        bundle = self.golden(tmp_path, b"751")
        assert main(["tile", "verify", bundle]) == 0
        assert main(["tile", "verify", "--replay", bundle]) == 1
        assert "replay fails" in capsys.readouterr().out

    def test_non_tiling_envelope(self, files, capsys):
        tmp_path, write = files
        # {0, 1, 3} has a size dividing 6 but does not tile Z_6.
        set_file = line_file(write, "set.txt", 0, 1, 3)
        out = tmp_path / "non.json"
        assert main(["tile", "decide", "--set", set_file, "-m", "6", "--json", str(out)]) == 1
        assert main(["tile", "verify", "--replay", str(out)]) == 0
        assert "trust: replay-required" in capsys.readouterr().out
        doc = json.loads(out.read_bytes())
        doc["payload"]["reason"]["nodes"] = str(int(doc["payload"]["reason"]["nodes"]) - 1)
        out.write_text(json.dumps(doc))
        assert main(["tile", "verify", str(out)]) == 0
        assert main(["tile", "verify", "--replay", str(out)]) == 1

    def test_hostile_claim_is_refused_on_replay(self, tmp_path, capsys):
        points = PointSet(3, ((0, 0, 0), (1, 2, 3)))
        cert = NonTilingCertificate(GroupSpec(5, 3), points, ExhaustedSearch(5))
        envelope = certio.CertificateEnvelope(
            certio.SCHEMA_VERSION,
            "non-tiling",
            cert,
            (certio.ProvenanceEntry("decide_m_tile", ("hostile",)),),
        )
        out = tmp_path / "hostile.json"
        out.write_bytes(certio.serialize(envelope))
        assert main(["tile", "verify", str(out)]) == 0
        assert main(["tile", "verify", "--replay", str(out)]) == 1
        assert "replay fails" in capsys.readouterr().out

    def test_nothing_to_replay(self, files, capsys):
        tmp_path, write = files
        set_file = line_file(write, "set.txt", 0, 1)
        out = tmp_path / "tile.json"
        main(["tile", "decide", "--set", set_file, "-m", "4", "--json", str(out)])
        assert main(["tile", "verify", "--replay", str(out)]) == 0
        assert "no exhausted search" in capsys.readouterr().out


class TestEachCertificateVerifiedOnce:
    """tile lift and tile compose verify their inputs in parse and again as
    premises of the construction, and never their output."""

    @pytest.fixture
    def verified(self, monkeypatch):
        calls = []
        original = tiling.verify_tiling

        def recording(cert):
            calls.append(cert)
            return original(cert)

        monkeypatch.setattr(certio, "verify_tiling", recording)
        monkeypatch.setattr(tiling, "verify_tiling", recording)
        return calls

    def _decide(self, tmp_path, write, name, m):
        out = tmp_path / f"{name}.json"
        set_file = line_file(write, f"{name}.txt", 0, 1)
        assert main(["tile", "decide", "--set", set_file, "-m", str(m), "--json", str(out)]) == 0
        return out

    def test_compose(self, files, verified):
        """Each input is verified in parse as it loads and again as a premise
        of compose_tile, which proves the product by its lemma and never
        verifies it.  The repeat keeps the public construction's bad-input
        ValueError, with one code path and no flag."""
        tmp_path, write = files
        left = self._decide(tmp_path, write, "left", 2)
        right = self._decide(tmp_path, write, "right", 4)
        out = tmp_path / "composed.json"
        verified.clear()
        assert main(["tile", "compose", str(left), str(right), "--json", str(out)]) == 0
        calls = list(verified)
        record = certio.parse(out.read_bytes()).payload
        assert calls == [record.left, record.right, record.left, record.right]

    def test_lift(self, files, verified):
        """The base is verified in parse as it loads and again as a premise
        of lift_tile, whose pullback lemma proves the lifted tiling."""
        tmp_path, write = files
        base = self._decide(tmp_path, write, "base", 2)
        plane = write("plane.txt", format_point_set(PointSet(2, ((0, 0), (1, 0)))))
        transform = write("transform.txt", format_matrix(IntMatrix.from_rows([[1, 0]])))
        out = tmp_path / "lifted.json"
        verified.clear()
        argv = ["tile", "lift", "--set", plane, "--matrix", transform, str(base)]
        assert main(argv + ["--json", str(out)]) == 0
        calls = list(verified)
        record = certio.parse(out.read_bytes()).payload
        assert calls == [record.base, record.base]
