"""Command-line front end: compute crystal polynomials, run verification
suites, export fixtures.

Exit codes: 0 success, 1 assertion or verification failure, 2 invalid
configuration, 141 (128 + SIGPIPE, as a shell reports a writer killed by a
closed pipe) when the reader closes stdout before the output is written;
that last case prints nothing to stderr.  JSON is assembled before its first
byte is printed, so a failure never leaves partial JSON on stdout; the text
table is written line by line, after every engine error could be raised.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .coefficients import CoeffElement
from .patterns import decorated_crystal, render
from .roots import CartanSpec, build_root_system, is_strongly_dominant
from .series import character_via_patterns, p_part, polynomial_json_obj


def _parse_ints(text: str) -> tuple[int, ...]:
    """A comma-separated list of integers, such as ``2,1``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _parse_weights(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated weights, such as ``1,1;2,1``."""
    return tuple(_parse_ints(part) for part in text.split(";"))


# every verification suite, with the verify options it takes by keyword
_SUITE_OPTIONS = {"branching": (), "character": ("max_dim",), "decorations": (),
                  "gauss": ("primes", "degrees"), "tokuyama": ("lambdas",)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalmds",
        description="exact crystal sums: characters and prime-power parts of "
                    "Weyl group multiple Dirichlet series")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--family", required=True, choices=("A", "B", "C", "D"))
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--lambda", dest="lam", required=True, type=_parse_ints,
                       metavar="M1,M2,...", help="highest weight, fundamental-weight coordinates")
        p.add_argument("--n", type=int, default=1, help="metaplectic cover degree")
        p.add_argument("--character", action="store_true",
                       help="sum with unit coefficients (the character) instead of the p-part")
        p.add_argument("--allow-dominant", action="store_true",
                       help="accept dominant but not strongly dominant weights for the p-part")

    pc = sub.add_parser("compute", help="print a crystal polynomial")
    add_common(pc)
    pc.add_argument("--json", action="store_true", help="JSON output (default: text table)")

    # an option left out stays out of args, so the suite's keyword default applies
    pv = sub.add_parser("verify", help="run a verification suite",
                        argument_default=argparse.SUPPRESS)
    pv.add_argument("--suite", required=True, choices=sorted(_SUITE_OPTIONS))
    pv.add_argument("--max-dim", type=int)
    pv.add_argument("--primes", type=_parse_ints)
    pv.add_argument("--n", dest="degrees", type=_parse_ints,
                    help="cover degrees for the gauss suite, comma separated")
    pv.add_argument("--lambdas", type=_parse_weights,
                    help="semicolon-separated weights for the tokuyama suite, "
                         "e.g. '1,1;2,1;2,2'")

    pe = sub.add_parser("export", help="write pattern/decoration/polynomial fixtures")
    add_common(pe)
    pe.add_argument("--out", required=True, help="output directory")
    return parser


def _compute_poly(args):
    # the spec checks the rank, and builds no root system
    spec = CartanSpec(args.family, args.rank)
    if len(args.lam) != args.rank:
        raise ValueError(f"lambda has {len(args.lam)} coordinates, rank is {args.rank}")
    if args.n < 1:
        # the character ignores n, but the JSON records it
        raise ValueError(f"cover degree n must be >= 1, got {args.n}")
    rs = build_root_system(spec)
    if args.character:
        return rs, character_via_patterns(rs, args.lam)
    if not is_strongly_dominant(args.lam) and not args.allow_dominant:
        raise ValueError(
            "p-part semantics require a strongly dominant lambda; "
            "pass --allow-dominant to sum over a boundary crystal anyway")
    return rs, p_part(rs, args.lam, args.n, allow_dominant=args.allow_dominant)


def cmd_compute(args) -> int:
    _, poly = _compute_poly(args)
    if args.json:
        print(json.dumps(polynomial_json_obj(poly, args.family, args.rank, args.n, args.lam)))
        return 0
    print(f"family {args.family} rank {args.rank} n {args.n} "
          f"lambda {','.join(map(str, args.lam))} ({len(poly)} terms)")
    items = poly.packed_items()
    width = max((len(str(list(w))) for w, _ in items), default=4)
    for w, v in items:
        print(f"  {str(list(w)):<{width}}  {CoeffElement.from_packed(v)!r}")
    return 0


def cmd_verify(args) -> int:
    from .verification import SUITES  # only verify needs the suites

    kwargs = {k: v for k, v in vars(args).items() if k not in ("command", "suite")}
    stray = sorted(kwargs.keys() - _SUITE_OPTIONS[args.suite])
    if stray:
        flags = ", ".join("--n" if k == "degrees" else "--" + k.replace("_", "-")
                          for k in stray)
        raise ValueError(f"the {args.suite} suite takes no {flags}")
    report = SUITES[args.suite](**kwargs)
    print(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_export(args) -> int:
    rs, poly = _compute_poly(args)
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        with open(outdir / "patterns.txt", "w", encoding="utf-8") as patterns, \
                open(outdir / "decorated.txt", "w", encoding="utf-8") as decorated:
            for dp in decorated_crystal(rs, args.lam):
                patterns.write(dp.pattern.to_text() + "\n")
                decorated.write(("\n\n" if count else "") + render(dp))
                count += 1
            decorated.write("\n")
        obj = polynomial_json_obj(poly, args.family, args.rank, args.n, args.lam)
        (outdir / "polynomial.json").write_text(json.dumps(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"export failed at {exc.filename or outdir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {count} patterns to {outdir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"compute": cmd_compute, "verify": cmd_verify, "export": cmd_export}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
