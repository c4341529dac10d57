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
    envelope = certio.CertificateEnvelope(
        certio.SCHEMA_VERSION,
        kind,
        payload,
        (certio.ProvenanceEntry(operation, inputs),),
    )
    if path:
        Path(path).write_bytes(certio.serialize(envelope))
    return envelope


def _load_tiling_envelope(path: str) -> TilingCertificate:
    envelope = certio.parse(Path(path).read_bytes())
    if envelope.kind != "tiling":
        raise ValueError(f"{path}: expected a tiling certificate, got kind {envelope.kind!r}")
    return envelope.payload


class _Output:
    def __init__(self, quiet: bool):
        self.quiet = quiet

    def say(self, text: str) -> None:
        if not self.quiet:
            print(text)


def _cmd_verify_counterexample(args) -> int:
    report = run_counterexample(args.n, args.guard)
    out = _Output(args.quiet)
    for step in report.steps:
        tag = "ok  " if step.passed else "FAIL"
        out.say(f"{tag} {step.name}: {step.detail} ({step.seconds:.2f}s)")
    out.say(f"overall: {'PASS' if report.overall else 'FAIL'}")
    if report.envelope is not None and args.json:
        Path(args.json).write_bytes(certio.serialize(report.envelope))
        out.say(f"certificate written to {args.json}")
    return EXIT_YES if report.overall else EXIT_NO


def _cmd_spectrum(args) -> int:
    out = _Output(args.quiet)
    point_set = parse_point_set(_read(args.set))
    if args.subcommand == "find":
        cert = find_spectrum(point_set, args.m, args.guard)
        if cert is None:
            out.say(f"no spectrum with denominator {args.m} exists")
            return EXIT_NO
        out.say(format_phase_matrix(cert.spectrum).rstrip("\n"))
        _write_envelope(
            args.json, "spectrum", cert, "find_spectrum", (f"set={args.set}", f"m={args.m}")
        )
        return EXIT_YES
    # check
    spectrum = parse_phase_matrix(_read(args.spectrum))
    if args.m is not None and args.m != spectrum.denominator:
        raise ValueError(
            f"-m {args.m} disagrees with the spectrum file denominator {spectrum.denominator}"
        )
    if is_m_spectral(point_set, spectrum):
        out.say("spectral: the spectrum verifies")
        return EXIT_YES
    out.say("not spectral: the spectrum does not verify")
    return EXIT_NO


def _describe_non_tiling(cert: NonTilingCertificate) -> str:
    reason = cert.reason
    if hasattr(reason, "set_size"):
        return f"not a tile: {reason.set_size} does not divide {reason.group_order}"
    if hasattr(reason, "first"):
        return f"not a tile: points {reason.first} and {reason.second} collide mod m"
    return f"not a tile: exact-cover search exhausted after {reason.nodes} nodes"


def _replay(envelope: certio.CertificateEnvelope, out: _Output) -> int:
    """Re-run the exhausted search an envelope records, if it records one."""
    if envelope.kind == "counterexample":
        cert = envelope.payload.base_non_tiling_search
    elif envelope.kind == "non-tiling" and isinstance(envelope.payload.reason, ExhaustedSearch):
        cert = envelope.payload
    else:
        out.say("replay: no exhausted search to replay")
        return EXIT_YES
    if replay_search(cert):
        out.say(f"replay: search exhausted after {cert.reason.nodes} nodes, as recorded")
        return EXIT_YES
    out.say(f"replay fails: the search does not exhaust after {cert.reason.nodes} nodes")
    return EXIT_NO


def _cmd_tile(args) -> int:
    out = _Output(args.quiet)
    if args.subcommand == "decide":
        point_set = parse_point_set(_read(args.set))
        verdict = decide_m_tile(point_set, GroupSpec(args.m, point_set.dimension), args.guard)
        if isinstance(verdict, TilingCertificate):
            out.say("tiles; complement:")
            out.say(format_point_set(verdict.complement).rstrip("\n"))
            _write_envelope(
                args.json, "tiling", verdict, "decide_m_tile", (f"set={args.set}", f"m={args.m}")
            )
            return EXIT_YES
        out.say(_describe_non_tiling(verdict))
        _write_envelope(
            args.json, "non-tiling", verdict, "decide_m_tile", (f"set={args.set}", f"m={args.m}")
        )
        return EXIT_NO
    if args.subcommand == "verify":
        try:
            envelope = certio.parse(Path(args.certificate).read_bytes())
        except certio.InvariantViolation as exc:
            out.say(f"does not verify: {exc}")
            return EXIT_NO
        out.say(f"verifies ({envelope.kind}); trust: {certio.trust_marker(envelope)}")
        if args.replay:
            return _replay(envelope, out)
        return EXIT_YES
    if args.subcommand == "compose":
        left = _load_tiling_envelope(args.left)
        right = _load_tiling_envelope(args.right)
        composed = compose_tile(left, right)
        out.say("composed tiling is the product of two verified tilings; complement:")
        out.say(format_point_set(composed.complement).rstrip("\n"))
        record = certio.CompositionRecord("tiling", left, right, composed)
        _write_envelope(
            args.json, "composition", record, "compose_tile", (args.left, args.right)
        )
        return EXIT_YES
    if args.subcommand == "lift":
        point_set = parse_point_set(_read(args.set))
        transform = parse_matrix(_read(args.matrix))
        base = _load_tiling_envelope(args.certificate)
        lifted = lift_tile(point_set, transform, base, args.guard)
        out.say("lifted tiling is the pullback of a verified tiling; complement:")
        out.say(format_point_set(lifted.complement).rstrip("\n"))
        record = certio.LiftRecord("tiling", transform, base, lifted)
        _write_envelope(
            args.json, "lift", record, "lift_tile",
            (f"set={args.set}", f"matrix={args.matrix}", args.certificate),
        )
        return EXIT_YES
    # independent
    point_set = parse_point_set(_read(args.set))
    chain = independent_tile(point_set, args.guard)
    d = point_set.dimension
    out.say(
        f"independent set tiles Z_{chain.modulus}^{d}; complement size "
        f"{chain.modulus**d // len(point_set)}"
    )
    _write_envelope(
        args.json, "independence-chain", chain, "independent_tile", (f"set={args.set}",)
    )
    return EXIT_YES


def _cmd_matrix(args) -> int:
    out = _Output(args.quiet)
    matrix = parse_matrix(_read(args.matrix))
    if args.subcommand == "rank":
        out.say(str(rank_mod_p(matrix, args.p)))
        return EXIT_YES
    if args.subcommand == "factorize":
        fact = rank_factorize_mod_p(matrix, args.p)
        out.say(f"rank {fact.rank}")
        out.say("left")
        out.say(format_matrix(fact.left).rstrip("\n"))
        out.say("right")
        out.say(format_matrix(fact.right).rstrip("\n"))
        return EXIT_YES
    # hadamard
    phase = PhaseMatrix.reduce(matrix, args.m)
    if is_log_hadamard(phase):
        out.say(f"log-Hadamard over denominator {args.m}")
        return EXIT_YES
    out.say(f"not log-Hadamard over denominator {args.m}")
    return EXIT_NO


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectratile",
        description="Certificate-producing decisions for spectral sets and tiles in Z_m^d.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-counterexample",
        help="run and re-check the 4-dimensional spectral-not-tile construction",
    )
    p.add_argument("-n", type=int, default=2, help="cube side count (default 2)")
    p.add_argument("--json", metavar="FILE", help="write the certificate envelope here")
    p.add_argument("--guard", type=int, help="override the enumeration guard")
    p.set_defaults(func=_cmd_verify_counterexample)

    p = sub.add_parser("spectrum", help="find or check spectra")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    f = ssub.add_parser("find", help="search for a spectrum with denominator m")
    f.add_argument("--set", required=True, metavar="FILE", help="point set file")
    f.add_argument("-m", type=int, required=True, help="denominator")
    f.add_argument("--json", metavar="FILE", help="write the certificate envelope here")
    f.add_argument("--guard", type=int, help="override the enumeration guard")
    f.set_defaults(func=_cmd_spectrum)
    c = ssub.add_parser("check", help="check a given spectrum against a set")
    c.add_argument("--set", required=True, metavar="FILE", help="point set file")
    c.add_argument("--spectrum", required=True, metavar="FILE", help="phase matrix file")
    c.add_argument("-m", type=int, help="expected denominator (cross-checked)")
    c.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tile", help="tiling decisions, verification, and constructions")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    d = tsub.add_parser("decide", help="decide whether a set tiles Z_m^d")
    d.add_argument("--set", required=True, metavar="FILE")
    d.add_argument("-m", type=int, required=True, help="modulus")
    d.add_argument("--json", metavar="FILE")
    d.add_argument("--guard", type=int)
    d.set_defaults(func=_cmd_tile)
    v = tsub.add_parser("verify", help="verify a certificate envelope file")
    v.add_argument("certificate", metavar="CERT")
    v.add_argument(
        "--replay",
        action="store_true",
        help="also re-run a recorded exhausted search and compare its node count",
    )
    v.set_defaults(func=_cmd_tile)
    co = tsub.add_parser("compose", help="compose two tiling certificates")
    co.add_argument("left", metavar="CERT_T")
    co.add_argument("right", metavar="CERT_S")
    co.add_argument("--json", metavar="FILE")
    co.set_defaults(func=_cmd_tile)
    li = tsub.add_parser("lift", help="lift a tiling through an integer matrix")
    li.add_argument("--set", required=True, metavar="FILE")
    li.add_argument("--matrix", required=True, metavar="FILE")
    li.add_argument("certificate", metavar="CERT")
    li.add_argument("--json", metavar="FILE")
    li.add_argument("--guard", type=int)
    li.set_defaults(func=_cmd_tile)
    ind = tsub.add_parser("independent", help="tile from a linearly independent set")
    ind.add_argument("--set", required=True, metavar="FILE")
    ind.add_argument("--json", metavar="FILE")
    ind.add_argument("--guard", type=int)
    ind.set_defaults(func=_cmd_tile)

    p = sub.add_parser("matrix", help="exact matrix computations")
    msub = p.add_subparsers(dest="subcommand", required=True)
    r = msub.add_parser("rank", help="rank over the field with p elements")
    r.add_argument("--matrix", required=True, metavar="FILE")
    r.add_argument("-p", type=int, required=True, help="prime modulus")
    r.set_defaults(func=_cmd_matrix)
    fa = msub.add_parser("factorize", help="canonical rank factorization mod p")
    fa.add_argument("--matrix", required=True, metavar="FILE")
    fa.add_argument("-p", type=int, required=True, help="prime modulus")
    fa.set_defaults(func=_cmd_matrix)
    h = msub.add_parser("hadamard", help="is matrix/m log-Hadamard?")
    h.add_argument("--matrix", required=True, metavar="FILE")
    h.add_argument("-m", type=int, required=True, help="denominator")
    h.set_defaults(func=_cmd_matrix)

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
