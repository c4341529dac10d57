"""Command-line interface.

Exit codes follow one convention everywhere: 0 for an affirmative verdict,
1 for a negative verdict (not spectral, not a tile, certificate does not
verify, pipeline step failed), 2 for usage, input, or guard errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import certio
from .counterexample import run_counterexample
from .modlinalg import (
    _decimal,
    format_matrix,
    parse_matrix,
    rank_factorize_mod_p,
    rank_mod_p,
)
from .spectral import (
    GroupSpec,
    PhaseMatrix,
    find_spectrum,
    format_phase_matrix,
    format_point_set,
    is_log_hadamard,
    is_m_spectral,
    parse_phase_matrix,
    parse_point_set,
)
from .tiling import (
    DivisibilityObstruction,
    DuplicateResidues,
    ExhaustedSearch,
    NonTilingCertificate,
    TilingCertificate,
    compose_tile,
    decide_m_tile,
    independent_tile,
    lift_tile,
    replay_search,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_envelope(path: str | None, kind: str, payload, operation: str, inputs: tuple[str, ...]):
    if path:
        provenance = (certio.ProvenanceEntry(operation, inputs),)
        envelope = certio.CertificateEnvelope(certio.SCHEMA_VERSION, kind, payload, provenance)
        Path(path).write_bytes(certio.serialize(envelope))


def _load_tiling_envelope(path: str) -> TilingCertificate:
    envelope = certio.parse(Path(path).read_bytes())
    if envelope.kind != "tiling":
        raise ValueError(f"{path}: expected a tiling certificate, got kind {envelope.kind!r}")
    return envelope.payload


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _cmd_verify_counterexample(args) -> int:
    report = run_counterexample(args.n, args.guard)
    for step in report.steps:
        tag = "ok  " if step.passed else "FAIL"
        _say(args, f"{tag} {step.name}: {step.detail} ({step.seconds * 1000:.3f} ms)")
    _say(args, f"overall: {'PASS' if report.overall else 'FAIL'}")
    if report.envelope is not None and args.json:
        Path(args.json).write_bytes(certio.serialize(report.envelope))
        _say(args, f"certificate written to {args.json}")
    return EXIT_YES if report.overall else EXIT_NO


def _cmd_spectrum_find(args) -> int:
    point_set = parse_point_set(_read(args.set))
    cert = find_spectrum(point_set, args.m, args.guard)
    if cert is None:
        _say(args, f"no spectrum with denominator {args.m} exists")
        return EXIT_NO
    _say(args, format_phase_matrix(cert.spectrum).rstrip("\n"))
    _write_envelope(
        args.json, "spectrum", cert, "find_spectrum", (f"set={args.set}", f"m={args.m}")
    )
    return EXIT_YES


def _cmd_spectrum_check(args) -> int:
    point_set = parse_point_set(_read(args.set))
    spectrum = parse_phase_matrix(_read(args.spectrum))
    if args.m is not None and args.m != spectrum.denominator:
        raise ValueError(
            f"-m {args.m} disagrees with the spectrum file denominator {spectrum.denominator}"
        )
    if is_m_spectral(point_set, spectrum):
        _say(args, "spectral: the spectrum verifies")
        return EXIT_YES
    _say(args, "not spectral: the spectrum does not verify")
    return EXIT_NO


def _describe_non_tiling(cert: NonTilingCertificate) -> str:
    reason = cert.reason
    if isinstance(reason, DivisibilityObstruction):
        return f"not a tile: {reason.set_size} does not divide {reason.group_order}"
    if isinstance(reason, DuplicateResidues):
        return f"not a tile: points {reason.first} and {reason.second} collide mod m"
    return f"not a tile: {reason.rule} exact-cover search exhausted after {reason.nodes} nodes"


def _cmd_tile_decide(args) -> int:
    point_set = parse_point_set(_read(args.set))
    verdict = decide_m_tile(point_set, GroupSpec(args.m, point_set.dimension), args.guard)
    inputs = (f"set={args.set}", f"m={args.m}")
    if isinstance(verdict, TilingCertificate):
        _say(args, "tiles; complement:")
        _say(args, format_point_set(verdict.complement).rstrip("\n"))
        _write_envelope(args.json, "tiling", verdict, "decide_m_tile", inputs)
        return EXIT_YES
    _say(args, _describe_non_tiling(verdict))
    _write_envelope(args.json, "non-tiling", verdict, "decide_m_tile", inputs)
    return EXIT_NO


def _cmd_tile_verify(args) -> int:
    try:
        envelope = certio.parse(Path(args.certificate).read_bytes())
    except certio.InvariantViolation as exc:
        _say(args, f"does not verify: {exc}")
        return EXIT_NO
    _say(args, f"verifies ({envelope.kind}); trust: {certio.trust_marker(envelope)}")
    if not args.replay:
        return EXIT_YES
    # Re-run the exhausted search the envelope records, if it records one.
    if envelope.kind == "counterexample":
        cert = envelope.payload.base_non_tiling_search
    elif envelope.kind == "non-tiling" and isinstance(envelope.payload.reason, ExhaustedSearch):
        cert = envelope.payload
    else:
        _say(args, "replay: no exhausted search to replay")
        return EXIT_YES
    if replay_search(cert):
        _say(args, f"replay: search exhausted after {cert.reason.nodes} nodes, as recorded")
        return EXIT_YES
    _say(args, f"replay fails: the search does not exhaust after {cert.reason.nodes} nodes")
    return EXIT_NO


def _cmd_tile_compose(args) -> int:
    left = _load_tiling_envelope(args.left)
    right = _load_tiling_envelope(args.right)
    composed = compose_tile(left, right)
    _say(args, "composed tiling is the product of two verified tilings; complement:")
    _say(args, format_point_set(composed.complement).rstrip("\n"))
    record = certio.CompositionRecord("tiling", left, right, composed)
    _write_envelope(args.json, "composition", record, "compose_tile", (args.left, args.right))
    return EXIT_YES


def _cmd_tile_lift(args) -> int:
    point_set = parse_point_set(_read(args.set))
    transform = parse_matrix(_read(args.matrix))
    base = _load_tiling_envelope(args.certificate)
    lifted = lift_tile(point_set, transform, base, args.guard)
    _say(args, "lifted tiling is the pullback of a verified tiling; complement:")
    _say(args, format_point_set(lifted.complement).rstrip("\n"))
    record = certio.LiftRecord("tiling", transform, base, lifted)
    _write_envelope(
        args.json, "lift", record, "lift_tile",
        (f"set={args.set}", f"matrix={args.matrix}", args.certificate),
    )
    return EXIT_YES


def _cmd_tile_independent(args) -> int:
    point_set = parse_point_set(_read(args.set))
    chain = independent_tile(point_set, args.guard)
    d = point_set.dimension
    _say(
        args,
        f"independent set tiles Z_{chain.modulus}^{d}; complement size "
        f"{chain.modulus**d // len(point_set)}",
    )
    _write_envelope(
        args.json, "independence-chain", chain, "independent_tile", (f"set={args.set}",)
    )
    return EXIT_YES


def _cmd_matrix_rank(args) -> int:
    _say(args, str(rank_mod_p(parse_matrix(_read(args.matrix)), args.p)))
    return EXIT_YES


def _cmd_matrix_factorize(args) -> int:
    fact = rank_factorize_mod_p(parse_matrix(_read(args.matrix)), args.p)
    _say(args, f"rank {fact.rank}")
    _say(args, "left")
    _say(args, format_matrix(fact.left).rstrip("\n"))
    _say(args, "right")
    _say(args, format_matrix(fact.right).rstrip("\n"))
    return EXIT_YES


def _cmd_matrix_hadamard(args) -> int:
    phase = PhaseMatrix.reduce(parse_matrix(_read(args.matrix)), args.m)
    if is_log_hadamard(phase):
        _say(args, f"log-Hadamard over denominator {args.m}")
        return EXIT_YES
    _say(args, f"not log-Hadamard over denominator {args.m}")
    return EXIT_NO


def _integer(token: str) -> int:
    """An integer option by the matrix files' rule, -?[0-9]+ in ASCII digits."""
    try:
        return _decimal(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectratile",
        description="Certificate-producing decisions for spectral sets and tiles in Z_m^d.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options that several commands share, each declared once.
    set_file, matrix, json_file, guard = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    set_file.add_argument("--set", required=True, metavar="FILE", help="point set file")
    matrix.add_argument("--matrix", required=True, metavar="FILE", help="integer matrix file")
    json_file.add_argument("--json", metavar="FILE", help="write the certificate envelope here")
    guard.add_argument("--guard", type=_integer, help="override the enumeration guard")

    def command(commands, name, func, help, *shared):
        p = commands.add_parser(name, help=help, parents=shared)
        p.set_defaults(func=func)
        return p

    def group(name, help):
        # The dest only names a missing subcommand in argparse's error; func dispatches.
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    p = command(
        sub, "verify-counterexample", _cmd_verify_counterexample,
        "run and re-check the 4-dimensional spectral-not-tile construction", json_file, guard,
    )
    p.add_argument("-n", type=_integer, default=2, help="cube side count (default 2)")

    spectrum = group("spectrum", "find or check spectra")
    p = command(
        spectrum, "find", _cmd_spectrum_find, "search for a spectrum with denominator m",
        set_file, json_file, guard,
    )
    p.add_argument("-m", type=_integer, required=True, help="denominator")
    p = command(
        spectrum, "check", _cmd_spectrum_check, "check a given spectrum against a set", set_file
    )
    p.add_argument("--spectrum", required=True, metavar="FILE", help="phase matrix file")
    p.add_argument("-m", type=_integer, help="expected denominator (cross-checked)")

    tile = group("tile", "tiling decisions, verification, and constructions")
    p = command(
        tile, "decide", _cmd_tile_decide, "decide whether a set tiles Z_m^d",
        set_file, json_file, guard,
    )
    p.add_argument("-m", type=_integer, required=True, help="modulus")
    p = command(tile, "verify", _cmd_tile_verify, "verify a certificate envelope file")
    p.add_argument("certificate", metavar="CERT")
    p.add_argument(
        "--replay",
        action="store_true",
        help="also re-run a recorded exhausted search and compare its node count",
    )
    p = command(tile, "compose", _cmd_tile_compose, "compose two tiling certificates", json_file)
    p.add_argument("left", metavar="CERT_T")
    p.add_argument("right", metavar="CERT_S")
    p = command(
        tile, "lift", _cmd_tile_lift, "lift a tiling through an integer matrix",
        set_file, matrix, json_file, guard,
    )
    p.add_argument("certificate", metavar="CERT")
    command(
        tile, "independent", _cmd_tile_independent, "tile from a linearly independent set",
        set_file, json_file, guard,
    )

    matrices = group("matrix", "exact matrix computations")
    p = command(matrices, "rank", _cmd_matrix_rank, "rank over the field with p elements", matrix)
    p.add_argument("-p", type=_integer, required=True, help="prime modulus")
    p = command(
        matrices, "factorize", _cmd_matrix_factorize, "canonical rank factorization mod p", matrix
    )
    p.add_argument("-p", type=_integer, required=True, help="prime modulus")
    p = command(matrices, "hadamard", _cmd_matrix_hadamard, "is matrix/m log-Hadamard?", matrix)
    p.add_argument("-m", type=_integer, required=True, help="denominator")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GuardExceeded, CertificateError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
