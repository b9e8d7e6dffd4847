"""Command line interface.

Subcommands mirror the library layers: ``poly`` for the moment
polynomials (three independent methods), ``enumerate`` for adapted
noncrossing matchings, ``verify`` for the exhaustive identity sweeps,
``moments`` for free multiplicative convolution moments, ``mc`` for the
random-matrix Monte Carlo study, and ``diagram`` for SVG arch pictures.

Results go to stdout, diagnostics to stderr.  Exit code 0 means
success, 1 means a verification found mismatches, 2 means a usage or
budget error.  The environment variable ``FN_BUDGET`` overrides the
default enumeration budget (a cap on the word length 2*p*k).

The JSON of ``poly``, ``enumerate --profiles`` and ``verify`` is
byte-for-byte what ``json.dumps(doc, indent=2)`` prints for the same
document; ``_json_text`` writes it without the pure-Python indenting
encoder.

Each command imports only the layers it runs.  ``poly``, ``enumerate``,
``verify --suite oracle|lemmas`` and ``diagram`` load neither numpy nor
scipy; ``mc`` loads numpy, through ``rmt``; ``moments`` and ``verify
--suite freeprob`` load scipy and numpy, through ``freeprob``.  Only the
one-shape quadrature cross-check calls scipy, but ``freeprob`` imports
``scipy.integrate.quad`` at module level: ``bench/worker.py`` reads
``sys.modules["scipy"]`` after its operations and finds scipy there only
because its workloads import ``freeprob``, so that import can move into
``quadrature_moments`` only once the worker reads scipy's version
another way.

``import fussnarayana.cli`` itself loads the exact layers (``exact``,
``partitions``, ``series``, ``poly``, ``report``) and the standard
library's ``argparse``, ``fractions`` and ``json.encoder``; it loads no
``dataclasses``, ``inspect`` or ``typing``.  Its records are namedtuples
or plain classes, and its annotations name ``collections.abc``.

``main(argv)`` may be called many times in one process.  Each
subcommand's parser is built on its first call, with a root parser of
its own, and reused; a call that does not begin with a subcommand (``-h``,
no arguments, an unknown command) builds them all.  Each call parses into
a fresh namespace, and ``FN_BUDGET`` is read on every call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import exact, partitions
from .poly import MultiPoly
from .report import Report
from .series import solve_functional_equation


def _budget() -> int:
    raw = os.environ.get("FN_BUDGET")
    if raw is None:
        return partitions.DEFAULT_BUDGET
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"FN_BUDGET must be a nonnegative integer, got {raw!r}")
    return value


def _fraction_list(text: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as comma-separated rationals")


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as comma-separated numbers")


# writers of the leaf types a JSON document here may hold
_LEAVES = {str: _quote, int: int.__repr__, bool: lambda flag: "true" if flag else "false"}


def _json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, for dicts with str keys, lists, str, int and bool.

    ``indent`` is the newline and spaces that begin a line at the depth of
    ``doc``.  Leaves are written inline and containers recurse, which is
    about twice as fast as the indenting encoder of the ``json`` module.
    Any other type, or a key that is not a str, raises ``TypeError``.
    """
    inner = indent + "  "
    kind = type(doc)
    if kind is dict:
        if not doc:
            return "{}"
        items = []
        for key, value in doc.items():
            if type(key) is not str:
                raise TypeError(f"JSON key {key!r} is not a str")
            leaf = _LEAVES.get(type(value))
            items.append(_quote(key) + ": " + (leaf(value) if leaf else _json_text(value, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not doc:
            return "[]"
        items = []
        for value in doc:
            leaf = _LEAVES.get(type(value))
            items.append(leaf(value) if leaf else _json_text(value, inner))
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    leaf = _LEAVES.get(kind)
    if leaf is None:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")
    return leaf(doc)


# the subcommands, in the order the root usage lists them
COMMANDS = ("poly", "enumerate", "verify", "moments", "mc", "diagram")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, or of all when ``command`` is None, built once each."""
    parser = argparse.ArgumentParser(
        prog="fussnarayana",
        description="Exact moment polynomials of Gaussian matrix products, "
        "their noncrossing enumeration, and Monte Carlo checks.",
    )
    # one command's usage names every command, as the full parser's does; the full
    # parser takes no metavar, which would replace "command" in "required: command"
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "poly"):
        poly = sub.add_parser("poly", help="print a moment polynomial as JSON")
        poly.add_argument("-p", type=int, required=True, help="number of matrix factors")
        poly.add_argument("-k", type=int, required=True, help="moment order")
        group = poly.add_mutually_exclusive_group()
        group.add_argument("--closed", action="store_const", dest="method", const="closed",
                           help="closed form (default)")
        group.add_argument("--enumerate", action="store_const", dest="method", const="enumerate",
                           help="noncrossing matchings counted by the interval recurrence")
        group.add_argument("--series", action="store_const", dest="method", const="series",
                           help="functional-equation series")
        group.add_argument("--all-methods", action="store_const", dest="method", const="all",
                           help="all three methods plus an agreement flag")
        poly.add_argument("--vars", choices=("d", "t"), default="d",
                          help="d: ratios d0..dp; t: shapes t1..tp (d0 = 1)")
        poly.set_defaults(func=cmd_poly, method="closed")

    if command in (None, "enumerate"):
        enum = sub.add_parser("enumerate", help="list or count adapted noncrossing matchings")
        enum.add_argument("-p", type=int, required=True)
        enum.add_argument("-k", type=int, required=True)
        enum.add_argument("--shift", type=int, default=0, help="cyclic shift of the base word")
        mode = enum.add_mutually_exclusive_group()
        mode.add_argument("--count", action="store_const", dest="mode", const="count",
                          help="print the count (default)")
        mode.add_argument("--list", action="store_const", dest="mode", const="list",
                          help="one matching per line")
        mode.add_argument("--profiles", action="store_const", dest="mode", const="profiles",
                          help="leg-profile histogram as JSON")
        enum.set_defaults(func=cmd_enumerate, mode="count")

    if command in (None, "verify"):
        verify = sub.add_parser("verify", help="run an exhaustive verification sweep")
        verify.add_argument("--suite", choices=("lemmas", "oracle", "freeprob"), required=True)
        verify.add_argument("-p", type=int, default=None, help="restrict to one factor count")
        verify.add_argument("--k-max", type=int, default=None, help="largest order to sweep")
        verify.add_argument("--pk-budget", type=int, default=None,
                            help="oracle suite: sweep each p <= 3 (or -p) with 2*p*k up to this cap")
        verify.set_defaults(func=cmd_verify)

    if command in (None, "moments"):
        moments = sub.add_parser("moments", help="free convolution moments as CSV")
        moments.add_argument("-t", type=_fraction_list, required=True, metavar="T1,T2,...",
                             help="shape parameters, exact rationals like 1,1/2")
        moments.add_argument("-K", type=int, required=True, help="largest moment order")
        mmode = moments.add_mutually_exclusive_group()
        mmode.add_argument("--exact", action="store_const", dest="mode", const="exact",
                           help="exact rational moments by Lagrange inversion (default)")
        mmode.add_argument("--quadrature", action="store_const", dest="mode", const="quadrature",
                           help="also integrate the density numerically (one shape only)")
        moments.set_defaults(func=cmd_moments, mode="exact")

    if command in (None, "mc"):
        mc = sub.add_parser("mc", help="Monte Carlo moments of a Gaussian product")
        mc.add_argument("-d", type=_float_list, required=True, metavar="D0,D1,...",
                        help="target dimension ratios")
        mc.add_argument("-n", type=int, required=True, help="scale parameter")
        mc.add_argument("-K", type=int, required=True, help="largest moment order")
        mc.add_argument("--trials", type=int, default=200)
        mc.add_argument("--seed", type=int, default=0)
        mc.add_argument("--ensemble", choices=("complex", "real"), default="complex")
        mc.add_argument("--format", choices=("json", "csv"), default="json")
        mc.set_defaults(func=cmd_mc)

    if command in (None, "diagram"):
        diagram = sub.add_parser("diagram", help="write one matching as an SVG arch diagram")
        diagram.add_argument("-p", type=int, required=True)
        diagram.add_argument("-k", type=int, required=True)
        diagram.add_argument("--shift", type=int, default=0)
        diagram.add_argument("--index", type=int, required=True,
                             help="position in the canonical enumeration order")
        diagram.add_argument("--svg", required=True, metavar="PATH", help="output file")
        diagram.set_defaults(func=cmd_diagram)

    return parser


def _poly_by_method(method: str, p: int, k: int, budget: int) -> MultiPoly:
    if method == "closed":
        return exact.limit_moment_poly(p, k)
    if method == "enumerate":
        return partitions.profile_histogram(p, k, 0, budget)[k]
    if k == 0:
        return MultiPoly.constant(p + 1, 1)
    return solve_functional_equation(p, k)[k].divide_by_variable(0)


def cmd_poly(args) -> int:
    if args.p < 1 or args.k < 0:
        raise ValueError("need -p >= 1 and -k >= 0")
    budget = _budget()
    methods = ("closed", "enumerate", "series") if args.method == "all" else (args.method,)
    polys = [_poly_by_method(method, args.p, args.k, budget) for method in methods]
    if args.vars == "t":
        polys = [poly.substitute(0, 1) for poly in polys]
        names = [f"t{i}" for i in range(1, args.p + 1)]
    else:
        names = [f"d{i}" for i in range(args.p + 1)]
    docs = [poly.to_json_dict(names) for poly in polys]
    if args.method == "all":
        out = dict(zip(methods, docs), agree=polys[0] == polys[1] == polys[2])
    else:
        (out,) = docs
    print(_json_text(out))
    return 0


def cmd_enumerate(args) -> int:
    spec = partitions.WordSpec(args.p, args.shift, args.k)
    budget = _budget()
    if args.mode == "list":
        for pi in partitions.enumerate_adapted(spec, budget=budget):
            print(pi.to_line() if pi.size else "()")
        return 0
    if args.mode == "count":
        print(partitions.count_adapted(args.p, args.k, args.shift, budget))
        return 0
    counts = partitions.profile_histogram(args.p, args.k, args.shift, budget)[args.k].terms
    print(_json_text({
        "profiles": [
            {"profile": list(prof), "count": count}
            for prof, count in sorted(counts.items())
        ],
    }))
    return 0


def cmd_verify(args) -> int:
    """Run one suite; a flag the suite does not read, or an empty sweep, is an error."""
    budget = _budget()
    unread = {"lemmas": [("--pk-budget", args.pk_budget)],
              "freeprob": [("-p", args.p), ("--pk-budget", args.pk_budget)]}
    for flag, value in unread.get(args.suite, []):
        if value is not None:
            raise ValueError(f"verify --suite {args.suite} does not read {flag}")
    for flag, value in (("-p", args.p), ("--k-max", args.k_max)):
        if value is not None and value < 1:
            raise ValueError(f"verify needs {flag} >= 1, got {value}")
    reports = []
    if args.suite == "lemmas":
        if args.p is not None:
            pairs = [(args.p, 2 if args.k_max is None else args.k_max)]
        elif args.k_max is not None:
            pairs = [(p, args.k_max) for p in (1, 2, 3)]
        else:
            pairs = [(1, 4), (2, 2), (3, 2)]
        for p, k_max in pairs:
            hists = partitions.listed_histograms(p, k_max, budget=budget)
            reports.append(partitions.verify_shift_identity(hists))
            reports.append(partitions.verify_product_decomposition(hists))
    elif args.suite == "oracle":
        cap = args.pk_budget if args.pk_budget is not None else max(budget, 40)
        ps = (1, 2, 3) if args.p is None else (args.p,)
        pairs = [(p, cap // (2 * p) if args.k_max is None else args.k_max) for p in ps]
        pairs = [(p, k_max) for p, k_max in pairs if k_max >= 1]
        if not pairs:
            raise ValueError(f"verify --suite oracle: no order k >= 1 has 2*p*k <= {cap} "
                             f"for p in {list(ps)}")
        for p, k_max in pairs:
            reports.append(_oracle_sweep(p, k_max, max(cap, budget)))
    else:
        k_max = 6 if args.k_max is None else args.k_max
        if k_max < 2:
            raise ValueError(f"verify --suite freeprob needs --k-max >= 2, got {k_max}")
        reports.append(_freeprob_sweep(k_max))
    ok = all(r.ok for r in reports)
    print(_json_text({
        "suite": args.suite,
        "ok": ok,
        "reports": [r.to_dict() for r in reports],
    }))
    return 0 if ok else 1


def _oracle_sweep(p: int, k_max: int, budget: int):
    """Closed form, counted matchings and one series solve to k_max, order by order."""
    report = Report(name=f"three-route agreement p={p} k<={k_max}")
    # counted first, so an order over the budget fails before any other work
    enumerated = partitions.profile_histogram(p, k_max, 0, budget)
    g = solve_functional_equation(p, k_max)
    for k, counted in enumerate(enumerated):
        closed = exact.limit_moment_poly(p, k)
        report.tally(closed == counted,
                     f"k={k}: closed form and enumeration disagree")
        if k >= 1:
            report.tally(closed == g[k].divide_by_variable(0),
                         f"k={k}: closed form and series solver disagree")
            refined, total = exact.vandermonde_decomposition(p, k)
            # one monomial per matching, so the coefficients sum to the count
            count = sum(counted.terms.values())
            report.tally(refined == total == count,
                         f"k={k}: counts disagree: {refined}, {total}, {count}")
    return report


# the shape tuples of ``verify --suite freeprob``
FREEPROB_FIXTURES = (
    (Fraction(1),), (Fraction(2),), (Fraction(1, 2),),
    (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(3), Fraction(5, 7)),
    (Fraction(1), Fraction(1), Fraction(1), Fraction(4, 3)),
)


def _freeprob_sweep(k_max: int):
    from . import freeprob

    report = Report(name=f"free convolution k<={k_max}")
    closed = {}
    for shapes in FREEPROB_FIXTURES:
        by_series = freeprob.moments_by_series(shapes, k_max)
        by_closed = closed[shapes] = freeprob.moments_by_closed_form(shapes, k_max)
        report.tally(by_series.values == by_closed.values,
                     f"shapes {shapes}: series and closed-form moments disagree")
        inner = freeprob.s_transform_check(freeprob.MomentTable(by_series.shapes, by_series.values[:6]))
        report.checks += inner.checks
        report.mismatches += [f"shapes {shapes}: {m}" for m in inner.mismatches]
    # the one-factor fixtures' tables, reused for the quadrature orders
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        numeric = freeprob.quadrature_moments(t, min(k_max, 8))
        for k, estimate in enumerate(numeric, start=1):
            target = float(closed[(t,)].moment(k))
            report.tally(abs(estimate - target) <= 1e-8 * max(1.0, abs(target)),
                         f"t={t} k={k}: quadrature {estimate!r} vs exact {target!r}")
    return report


def cmd_moments(args) -> int:
    from . import freeprob

    shapes = args.t
    if args.K < 1:
        raise ValueError("need -K >= 1")
    if args.mode == "quadrature":
        if len(shapes) != 1:
            raise ValueError("--quadrature applies to a single shape parameter")
        if args.K > 8:
            raise ValueError("--quadrature supports orders up to 8")
    table = freeprob.moments_by_lagrange(shapes, args.K)
    if args.mode == "quadrature":
        numeric = freeprob.quadrature_moments(shapes[0], args.K)
        print("k,moment,estimate,abs_diff")
        for k in range(1, args.K + 1):
            target = table.moment(k)
            est = numeric[k - 1]
            diff = abs(est - float(target))
            print(f"{k},{target},{format(est, '.12g')},{format(diff, '.3e')}")
    else:
        print("k,moment")
        for k in range(1, args.K + 1):
            print(f"{k},{table.moment(k)}")
    return 0


def cmd_mc(args) -> int:
    from . import rmt

    profile = rmt.DimensionProfile.from_targets(args.d, args.n)
    config = rmt.McConfig(
        profile=profile, k_max=args.K, trials=args.trials,
        seed=args.seed, ensemble=args.ensemble,
    )
    result = rmt.run_experiment(config)
    text = result.to_json_text() if args.format == "json" else result.to_csv_text()
    sys.stdout.write(text)
    return 0


def cmd_diagram(args) -> int:
    from .diagrams import write_partition_svg

    spec = partitions.WordSpec(args.p, args.shift, args.k)
    budget = _budget()
    # the counter checks the index, so the listing stops at the chosen matching
    count = partitions.count_adapted(args.p, args.k, args.shift, budget)
    if not 0 <= args.index < count:
        raise ValueError(
            f"--index {args.index} outside 0..{count - 1} "
            f"for p={args.p}, k={args.k}, shift={args.shift}"
        )
    matchings = partitions.enumerate_adapted(spec, budget=budget)
    chosen = next(itertools.islice(matchings, args.index, None))
    write_partition_svg(args.svg, chosen, partitions.build_word(spec))
    print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # -h, no arguments, an unknown command or a leading option need every command
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return args.func(args)
    except (partitions.BudgetError, ValueError, ArithmeticError, OSError) as exc:
        hint = ""
        if isinstance(exc, partitions.BudgetError):
            hint = "; the environment variable FN_BUDGET sets it"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2


def run() -> None:  # console entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
