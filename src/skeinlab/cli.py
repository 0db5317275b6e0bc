"""Batch command-line frontend.

Subcommands compute invariants (``invariant``, ``bracket``, ``composite``,
``reform``, ``special``), run integrality and congruence checks (``lmov``,
``congruence``), and reproduce pinned fixtures and property suites
(``repro``, ``selftest``).  Output is a human summary on stdout plus an
optional machine-readable JSON document (``--output``); JSON term lists are
sorted by (t-exponent, q-exponent) so output is byte-stable for fixed inputs.

Exit codes: 0 for success / all verdicts true, 1 for a false verdict or a
fixture diff, 2 for usage errors, 3 for an internal error (an
``ArithmeticError`` other than division by zero: a broken invariant of the
engine, not of the input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .composite import (
    composite_invariant,
    framed_composite,
    integrality_2z,
    r_reform,
    z_reform,
    zsquare_member,
)
from .exactring import LaurentQT, format_laurent
from .fixtures import FIXTURE_SETS, run_fixture
from .lmov import congruent_skein_case, hat_h, lmov_check, plethystic_h, special_polynomial
from .partitions import Partition, PartitionPair
from .selftest import SUITES
from .skein import LinkSpec, full_invariant_value, torus_framed


def _parse_int_list(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _parse_spec(args):
    framing = _parse_int_list(args.framing) if args.framing else None
    reversed_ = _parse_int_list(args.reversed) if args.reversed else ()
    if args.unknot is not None:
        spec = LinkSpec.unknot(args.unknot, reversed_=reversed_)
        if framing:
            raise SystemExit2("--framing does not apply to --unknot; pass the kink count to it")
        return spec
    if args.torus is None:
        raise SystemExit2("one of --torus M N L or --unknot F is required")
    m, n, L = args.torus
    if args.blackboard:
        if framing is not None or args.writhe:
            raise SystemExit2("--blackboard excludes --framing/--writhe")
        framing = [-n] * L
    elif args.writhe:
        if framing is not None:
            raise SystemExit2("--framing and --writhe are mutually exclusive")
        writhes = _parse_int_list(args.writhe)
        if len(writhes) != L:
            raise SystemExit2("--writhe needs one value per component")
        framing = [w - m * n for w in writhes]
    return LinkSpec.torus(m, n, L, framing=framing, reversed_=reversed_)


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _add_spec_arguments(sub):
    sub.add_argument("--torus", type=int, nargs=3, metavar=("M", "N", "L"),
                     help="torus family parameters: components are (M,N)-curves, L components")
    sub.add_argument("--unknot", type=int, metavar="F", help="framed unknot with F kinks")
    sub.add_argument("--framing", help="comma-separated kinks per component (beyond surface framing)")
    sub.add_argument("--writhe", help="comma-separated absolute per-component writhes")
    sub.add_argument("--blackboard", action="store_true",
                     help="use the standard planar diagram framing (writhe n(m-1) per component)")
    sub.add_argument("--reversed", help="comma-separated indices of orientation-reversed components")


def _partition_arg(item, flag):
    # Partition() would coerce 1.5 and true to 1 and drop zero parts
    if not isinstance(item, list) or not all(type(p) is int and p > 0 for p in item):
        raise SystemExit2(f"{flag}: {json.dumps(item)} is not a list of positive integers")
    return Partition(item)


def _parse_pairs(text, L):
    data = json.loads(text)
    if not isinstance(data, list):
        raise SystemExit2("--pairs must be a JSON list with one [lam, mu] pair per component")
    pairs = []
    for item in data:
        # a bare partition means [lam, empty]
        lam, mu = item, []
        if isinstance(item, list) and any(isinstance(x, list) for x in item):
            if len(item) != 2:
                raise SystemExit2(f"--pairs: {json.dumps(item)} is not a [lam, mu] pair")
            lam, mu = item
        pairs.append(PartitionPair(_partition_arg(lam, "--pairs"), _partition_arg(mu, "--pairs")))
    if len(pairs) != L:
        raise SystemExit2(f"{len(pairs)} pairs given for {L} components")
    return pairs


def _parse_labels(text, L, flag="--labels"):
    data = json.loads(text)
    if not isinstance(data, list) or len(data) != L:
        raise SystemExit2(f"{flag} must be a JSON list of {L} partitions")
    return [_partition_arg(x, flag) for x in data]


def _emit(args, document, human_lines):
    for line in human_lines:
        print(line)
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")
    elif args.json:
        sys.stdout.write(payload)


def _pretty_rational(value):
    if value.den == LaurentQT.one():
        return format_laurent(value.num)
    return f"({format_laurent(value.num)}) / ({format_laurent(value.den)})"


# -- subcommand handlers ------------------------------------------------------------


def cmd_invariant(args):
    spec = _parse_spec(args)
    pairs = _parse_pairs(args.pairs, spec.L)
    value = full_invariant_value(spec, pairs)
    doc = {
        "command": "invariant",
        "spec": spec.to_json(),
        "labels": [[list(p.pos), list(p.neg)] for p in pairs],
        "value": value.to_json(),
    }
    _emit(args, doc, [f"spec: {spec.describe()}",
                      f"labels: {' '.join(p.text() for p in pairs)}",
                      f"W = {_pretty_rational(value)}"])
    return 0


def cmd_bracket(args):
    spec = _parse_spec(args)
    pairs = _parse_pairs(args.pairs, spec.L)
    value = torus_framed(spec, [{pair: 1} for pair in pairs])
    doc = {
        "command": "bracket",
        "spec": spec.to_json(),
        "labels": [[list(p.pos), list(p.neg)] for p in pairs],
        "value": value.to_json(),
    }
    _emit(args, doc, [f"spec: {spec.describe()}",
                      f"bracket = {_pretty_rational(value)}"])
    return 0


def cmd_composite(args):
    spec = _parse_spec(args)
    labels = _parse_labels(args.labels, spec.L)
    fn = framed_composite if args.framed else composite_invariant
    value = fn(spec, labels)
    kind = "framed composite" if args.framed else "composite"
    doc = {
        "command": "composite",
        "framed": bool(args.framed),
        "spec": spec.to_json(),
        "labels": [list(x) for x in labels],
        "value": value.to_json(),
    }
    _emit(args, doc, [f"spec: {spec.describe()}",
                      f"{kind} H_{''.join(x.text() for x in labels)} = {_pretty_rational(value)}"])
    return 0


def cmd_reform(args):
    spec = _parse_spec(args)
    if args.p is not None and args.p < 1:
        raise SystemExit2("--p must be a positive integer")
    if args.rhat:
        if args.p is None or args.labels is not None:
            raise SystemExit2("--rhat needs --p and takes no --labels")
        value = r_reform(spec, args.p)
        verdict, stage, table = integrality_2z(value)
        name = f"Rh_{args.p}"
        ring = "2Z[z^2, t^+-1]"
    else:
        if (args.labels is None) == (args.p is None):
            raise SystemExit2("reform needs exactly one of --labels and --p")
        if args.labels is not None:
            labels = _parse_labels(args.labels, spec.L)
        else:
            labels = [Partition([args.p])] * spec.L
        value = z_reform(spec, labels)
        verdict, stage, table = zsquare_member(value)
        name = "Zh_" + "".join(x.text() for x in labels)
        ring = "Z[z^2, t^+-1]"
    doc = {
        "command": "reform",
        "spec": spec.to_json(),
        "invariant": name,
        "value": value.to_json(),
        "verdict": bool(verdict),
        "stage": stage,
        "certificate": sorted([g, Q, c] for (g, Q), c in table.items()) if table else [],
    }
    lines = [f"spec: {spec.describe()}",
             f"{name} = {_pretty_rational(value)}",
             f"membership in {ring}: {verdict}" + (f" (failed at {stage})" if stage else "")]
    _emit(args, doc, lines)
    return 0 if verdict else 1


def cmd_lmov(args):
    spec = _parse_spec(args)
    B = _parse_labels(args.B, spec.L, "--B")
    D = sum(x.size for x in B) if args.D is None else args.D
    table = plethystic_h(spec, D)
    value = hat_h(spec, B, table=table)
    verdict, ntable, stage = lmov_check(spec, B, table=table)
    doc = {
        "command": "lmov",
        "spec": spec.to_json(),
        "B": [list(x) for x in B],
        "D": D,
        "hat_h": value.to_json(),
        "N": sorted([g, Q, c] for (g, Q), c in ntable.items()) if ntable else [],
        "verdict": bool(verdict),
        "stage": stage,
    }
    lines = [f"spec: {spec.describe()}",
             f"hat_h_{''.join(x.text() for x in B)} = {_pretty_rational(value)}",
             f"integer BPS-style table: {verdict}" + (f" (failed at {stage})" if stage else "")]
    if ntable:
        for (g, Q), c in sorted(ntable.items()):
            lines.append(f"  N[g={g}, Q={Q}] = {c}")
    _emit(args, doc, lines)
    return 0 if verdict else 1


def _parse_krange(text):
    if ".." in text:
        lo, hi = text.split("..")
        ks = list(range(int(lo), int(hi) + 1))
        if not ks:
            raise SystemExit2(f"--k: the range {text} is empty")
        return ks
    ks = [int(x) for x in text.split(",")]
    if len(set(ks)) < len(ks):
        raise SystemExit2(f"--k: {text} lists a value twice")
    return ks


def _map_jobs(fn, items, jobs):
    """[fn(x) for x in items], over min(jobs, len(items)) worker processes if that is > 1."""
    workers = min(jobs, len(items))
    if workers < 2:
        return [fn(x) for x in items]
    # imported here: loading multiprocessing costs every serial call time and memory
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _congruence_item(pk):
    p, k = pk
    verdict, stage, _ = congruent_skein_case(p, k)
    return k, bool(verdict), stage


def cmd_congruence(args):
    if args.family != "t2":
        raise SystemExit2("only the t2 family (torus quadruples on two strands) is supported")
    ks = _parse_krange(args.k)
    items = [(args.p, k) for k in ks]
    results = sorted(_map_jobs(_congruence_item, items, args.jobs))
    doc = {
        "command": "congruence",
        "p": args.p,
        "family": args.family,
        "results": [[k, v, stage] for k, v, stage in results],
    }
    lines = [f"congruent skein relation, p={args.p}"]
    for k, v, stage in results:
        lines.append(f"  k={k}: {'true' if v else f'FALSE ({stage})'}")
    _emit(args, doc, lines)
    return 0 if all(v for _, v, _ in results) else 1


def cmd_special(args):
    spec = _parse_spec(args)
    pairs = _parse_pairs(args.pairs, spec.L)
    value = special_polynomial(spec, pairs)
    doc = {
        "command": "special",
        "spec": spec.to_json(),
        "labels": [[list(p.pos), list(p.neg)] for p in pairs],
        "value": value.to_records(),
    }
    _emit(args, doc, [f"spec: {spec.describe()}",
                      f"special polynomial = {format_laurent(value)}"])
    return 0


def _suite_item(name):
    return name, SUITES[name]()


def cmd_selftest(args):
    names = args.suite or list(SUITES)
    for name in names:
        if name not in SUITES:
            raise SystemExit2(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    results = dict(_map_jobs(_suite_item, names, args.jobs))
    failures = 0
    doc = {"command": "selftest", "suites": {}}
    for name in names:
        checks = results[name]
        doc["suites"][name] = [[n, bool(ok), detail] for n, ok, detail in checks]
        for check, ok, detail in checks:
            status = "pass" if ok else "FAIL"
            print(f"[{status}] {name}:{check} ({detail})")
            failures += 0 if ok else 1
    _emit(args, doc, [f"{failures} failures" if failures else "all suites passed"])
    return 1 if failures else 0


def cmd_repro(args):
    names = list(FIXTURE_SETS) if args.set == "all" else [args.set]
    failures = 0
    doc = {"command": "repro", "sets": {}}
    for name in names:
        checks = run_fixture(name)
        doc["sets"][name] = [[n, bool(ok)] for n, ok in checks]
        bad = [n for n, ok in checks if not ok]
        failures += len(bad)
        status = "ok" if not bad else f"DIFFS: {bad}"
        print(f"{name}: {len(checks)} checks, {status}")
    _emit(args, doc, ["report clean" if not failures else f"{failures} diffs"])
    return 1 if failures else 0


# -- argument wiring -----------------------------------------------------------------


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Exact colored HOMFLY-PT invariants of torus links, with "
        "integrality and congruence checking.",
    )
    parser.add_argument("--version", action="version", version=f"skeinlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON document to this path")
    common.add_argument("--json", action="store_true", help="also print the JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("invariant", help="framing-independent full colored invariant")
    _add_spec_arguments(p)
    p.add_argument("--pairs", required=True, help='JSON, e.g. \'[[[1],[1]]]\'')
    p.set_defaults(func=cmd_invariant)

    p = add_parser("bracket", help="framed bracket of eigenvector-decorated links")
    _add_spec_arguments(p)
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_bracket)

    p = add_parser("composite", help="composite invariant (LR-weighted label sum)")
    _add_spec_arguments(p)
    p.add_argument("--labels", required=True, help='JSON, one partition per component')
    p.add_argument("--framed", action="store_true", help="framed bracket variant")
    p.set_defaults(func=cmd_composite)

    p = add_parser("reform", help="reformulated invariants Zh / Rh with integrality verdicts")
    _add_spec_arguments(p)
    p.add_argument("--labels", help="JSON, one partition per component (not with --p or --rhat)")
    p.add_argument("--p", type=int, help="use the one-row partition (p) on every component")
    p.add_argument("--rhat", action="store_true", help="orientation-summed Rh_p (needs --p)")
    p.set_defaults(func=cmd_reform)

    p = add_parser("lmov", help="transformed free energy and integer table")
    _add_spec_arguments(p)
    p.add_argument("--B", required=True, help="JSON, one partition per component")
    p.add_argument("--D", type=int, help="truncation degree (default: |B|)")
    p.set_defaults(func=cmd_lmov)

    p = add_parser(
        "congruence",
        help="congruent skein relation instances",
        description="Test the congruent skein relation for Rh_p on the t2 torus family.  "
        "The verdicts pinned by the tests are true for p = 2, 3, 5 and 7 and FALSE "
        "(not-divisible, exit 1) for p = 4 and 6: a FALSE at a composite p is data about the "
        "conjecture, not a defect of the program.  p = 7 with --k 0..2 is true at every k and "
        "takes 2-3 s on a 2-core machine; p = 11 with --k 0, the first verdict at a prime "
        "above 7, is true and takes about 20 s and 160 MB.",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--family", default="t2")
    p.add_argument("--k", required=True, help="range like 0..3 or list like 0,2")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (at most one per k)")
    p.set_defaults(func=cmd_congruence)

    p = add_parser("special", help="q -> 1 special polynomial")
    _add_spec_arguments(p)
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=cmd_special)

    p = add_parser("selftest", help="run structural property suites")
    p.add_argument("--suite", action="append", help="suite name (repeatable; default all)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (at most one per suite)")
    p.set_defaults(func=cmd_selftest)

    p = add_parser("repro", help="reproduce pinned regression fixtures")
    p.add_argument("set", choices=sorted(FIXTURE_SETS) + ["all"])
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
