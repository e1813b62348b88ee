"""Command-line interface.

Exit codes: 0 the audited inequality holds (or the command just
reports), 1 it fails, 2 malformed input or shapes, 3 inadmissible
orientation character, 4 a sign twist made the differential stop
squaring to zero, 5 an internal consistency check failed.  Output is
deterministic; set MBAUDIT_COLOR=1 for ANSI color on the verdict lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bundles import BundleDescriptor, thom_iso_check, thom_pair_homology
from .document import DocumentError, load_document, parse_character, parse_degree_text, parse_space
from .homology import (
    HomologyProfile,
    InadmissibleCharacterError,
    OrientationCharacter,
    catalog_complex,
    homology,
    space_dim,
    space_tag,
)
from .morse import InconsistentTwistError, morse_homology, stabilize
from .morsebott import (
    MODES,
    FailsNegativeCoefficient,
    FailsNotDivisible,
    Holds,
    check_inequalities,
    e2_consistency,
    e2_page,
    mb_polynomial,
)


def fixtures_dir() -> Path:
    env = os.environ.get("MBAUDIT_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "fixtures"


def _resolve_input(arg: str) -> Path:
    candidates = [Path(arg), Path(arg + ".json")]
    base = fixtures_dir()
    name = Path(arg).name
    candidates += [base / name, base / (name + ".json")]
    for c in candidates:
        if c.is_file():
            return c
    raise DocumentError(f"no such document: {arg}")


def _paint(text: str, ok: bool) -> str:
    if os.environ.get("MBAUDIT_COLOR") == "1":
        return f"\x1b[{'32' if ok else '31'}m{text}\x1b[0m"
    return text


def _print_table(profile: HomologyProfile, top: int) -> None:
    print("degree  group")
    for k in range(top + 1):
        print(f"{k:>6}  {profile.group(k)}")


def _profile_summary(profile: HomologyProfile) -> str:
    parts = [f"H_{k} = {group}" for k, group in enumerate(profile.groups) if not group.is_trivial()]
    return ", ".join(parts) if parts else "0"


def cmd_homology(args: argparse.Namespace) -> int:
    space = parse_space(args.space, "space")
    character = (
        OrientationCharacter.NONTRIVIAL if args.twisted else OrientationCharacter.TRIVIAL
    )
    cx = catalog_complex(space, character)
    profile = homology(cx)
    coeffs = "twisted Z" if args.twisted else "Z"
    print(f"H_*({args.space}; {coeffs})")
    _print_table(profile, cx.top_degree)
    print(f"P_t = {profile.poincare_polynomial()}")
    return 0


def _verdict_line(verdict) -> str:
    if isinstance(verdict, Holds):
        return f"verdict: Holds, Q = {verdict.quotient}"
    if isinstance(verdict, FailsNotDivisible):
        return f"verdict: FailsNotDivisible, chi gap {verdict.chi_gap}"
    assert isinstance(verdict, FailsNegativeCoefficient)
    return (
        f"verdict: FailsNegativeCoefficient at degree {verdict.degree}, "
        f"Q = {verdict.quotient}"
    )


def cmd_audit(args: argparse.Namespace) -> int:
    doc = load_document(_resolve_input(args.document))
    data = doc.morse_bott()
    mb = mb_polynomial(data, args.mode)
    p = data.ambient_poincare()
    verdict = check_inequalities(mb, p)

    print(f"mode: {args.mode}")
    print(f"MB_t = {mb}")
    print(f"P_t = {p}")
    print(_paint(_verdict_line(verdict), verdict.holds))
    print("E2 page (filtration order):")
    for j, (crit, profile) in enumerate(zip(data.criticals, e2_page(data))):
        print(
            f"  [{j}] {space_tag(crit.space)} index {crit.index} "
            f"{crit.negative_character.value}: {_profile_summary(profile)}"
        )
    report = e2_consistency(data)
    print(
        f"E2 total free rank {report.total_free_rank} | "
        f"ambient free rank {report.ambient_rank} | "
        f"rank bound {'ok' if report.rank_bound_ok else 'VIOLATED'}"
    )
    print(
        f"E2 Euler sum {report.euler_sum} | "
        f"chi(ambient) {report.ambient_euler} | "
        f"Euler {'ok' if report.euler_ok else 'MISMATCH'}"
    )
    if args.naive:
        naive = e2_consistency(data, naive=True)
        print(
            f"naive E2 (all characters untwisted) total free rank {naive.total_free_rank}"
        )
    return 0 if verdict.holds else 1


def cmd_thom(args: argparse.Namespace) -> int:
    parts = args.bundle.split(",")
    if len(parts) != 3:
        raise DocumentError("bundle argument must be base,rank,character")
    base = parse_space(parts[0].strip(), "bundle base")
    rank = parse_degree_text(parts[1].strip(), "bundle rank")
    character = parse_character(parts[2].strip(), "bundle character")
    report = thom_iso_check(BundleDescriptor(base, rank, character))
    print(
        f"H_*(disc bundle, sphere bundle; Z) for base {space_tag(base)}, "
        f"rank {rank}, {character.value}"
    )
    _print_table(report.pair, rank + space_dim(base))
    print(_paint(f"THOM ISO: {'holds' if report.holds else 'fails'}", report.holds))
    return 0


def cmd_morse(args: argparse.Namespace) -> int:
    rank = 0 if args.stabilize is None else parse_degree_text(args.stabilize.strip(), "stabilization rank")
    doc = load_document(_resolve_input(args.document))
    if doc.morse is None:
        raise DocumentError("document has no morse section")
    before = morse_homology(doc.morse)
    print("Morse homology:")
    _print_table(before, doc.morse.max_index)
    if args.stabilize is None and args.twist is None:
        return 0
    twist = None
    twist_label = "all +1"
    if args.twist is not None:
        if args.twist not in doc.twists:
            raise DocumentError(
                f"document has no twist named {args.twist!r} "
                f"(available: {', '.join(sorted(doc.twists)) or 'none'})"
            )
        twist = doc.twists[args.twist]
        twist_label = args.twist
    stabilized = stabilize(doc.morse, rank, twist)
    after = morse_homology(stabilized)
    print(f"stabilized (shift {rank}, twist {twist_label}):")
    _print_table(after, stabilized.max_index)
    if doc.bundle is not None:
        matches = after == thom_pair_homology(doc.bundle)
        print(_paint(f"MATCHES H(DE-,SE-): {'yes' if matches else 'no'}", matches))
    return 0


def cmd_fixtures(args: argparse.Namespace) -> int:
    base = fixtures_dir()
    if not base.is_dir():
        print(f"no fixtures directory at {base}", file=sys.stderr)
        return 2
    for path in sorted(base.glob("*.json")):
        print(f"{path.stem}  {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbaudit",
        description="Exact integer audits of Morse-Bott polynomials and twisted Morse complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a catalog space")
    p.add_argument("space", help="point, sphere:n, rp:n, or torus2")
    p.add_argument("--twisted", action="store_true", help="use the sign local system")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("audit", help="audit the counting polynomial of a document")
    p.add_argument("document", help="path or fixture name")
    p.add_argument("--mode", choices=MODES, default="untwisted")
    p.add_argument(
        "--naive",
        action="store_true",
        help="also total the page with every character forced trivial",
    )
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("thom", help="disc/sphere pair homology of a bundle")
    p.add_argument("bundle", help="base,rank,character e.g. sphere:1,1,twisted")
    p.set_defaults(handler=cmd_thom)

    p = sub.add_parser("morse", help="homology of a Morse block, optionally stabilized")
    p.add_argument("document", help="path or fixture name")
    p.add_argument("--stabilize", metavar="R", help="shift indices up by R")
    p.add_argument("--twist", metavar="NAME", help="apply a named sign twist")
    p.set_defaults(handler=cmd_morse)

    p = sub.add_parser("fixtures", help="fixture utilities")
    p.add_argument("action", choices=["list"])
    p.set_defaults(handler=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InadmissibleCharacterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InconsistentTwistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (Warning, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
