"""The benchmark's workloads: which operations each one runs, and how every output is checked.

An operation is either a ``fussnarayana`` command line, run in-process
through ``fussnarayana.cli.main``, or a call of a public library
function.  Checks run after the timed phase.  Each check returns the
number of comparisons it made and raises :class:`CheckFailure` on the
first one that fails.

Library calls look their function up on the module at call time, so the
traced run sees the wrapped version.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fussnarayana import cli, exact, freeprob, series
from fussnarayana.poly import MultiPoly

WORKLOADS = ("oracle", "symbolic", "moments", "mc")

#: Enumeration budget exported as ``FN_BUDGET`` to every pass.  The
#: lemma sweeps reach 2pk = 18, above the default cap of 16; the oracle
#: sweep takes its own cap from ``--pk-budget``.
FN_BUDGET = "20"

#: Criterion 08 fixes seed 7 for its 3-standard-error gate.  At other
#: seeds a 3-SE bound on the reported moments can fail by chance on
#: correct code (of seeds 0..40, seed 11 reaches |z| = 3.06 at the gate
#: configuration), so other seeds use a 5-SE bound.
CRITERION_SEED = 7
CRITERION_Z, OTHER_SEED_Z = 3.0, 5.0

#: Relative tolerance between the program's MC means and the reference
#: implementation in ``reference.py``.  Reordering the matrix products or
#: the trace powers moves the last few bits only.
MC_REL_TOL = 1e-9


class CheckFailure(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One operation of a workload.

    Exactly one of ``argv`` (a command line) and ``call`` (a library
    call) is set.  ``check(output, outputs)`` receives this operation's
    output (stdout text, or the call's return value) and every output of
    the pass keyed by label.  ``golden`` compares the stdout digest with
    the one recorded in ``golden.json``.  ``reference`` marks MC commands
    whose means are checked against ``reference.py`` once per run.
    """

    label: str
    check: Callable[[object, dict], int]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    golden: bool = False
    reference: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(argv: list[str]) -> str:
    """Stdout of one command run in-process; raises on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailure(f"reference command {' '.join(argv)} exited {code}")
    return out.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _verify_ok(text: str, _outputs: dict) -> int:
    doc = json.loads(text)
    _require(doc["ok"] is True, "verify reported ok=false")
    for report in doc["reports"]:
        _require(report["ok"] is True and not report["mismatches"],
                 f"report {report['name']!r} has mismatches")
    return 1 + sum(report["checks"] for report in doc["reports"])


# -- oracle --------------------------------------------------------------------


def _oracle(size: str) -> list[Op]:
    # Reach 2pk = 22 rather than 20: passes three times as long average
    # over more of the host's speed changes.
    cap, lemma_pairs = ("22", ((1, 7), (2, 4), (3, 3))) if size == "full" else ("8", ((1, 3), (2, 2), (3, 1)))
    ops = [Op("verify oracle", _verify_ok, argv=["verify", "--suite", "oracle", "--pk-budget", cap],
              golden=True)]
    for p, k in lemma_pairs:
        ops.append(Op(f"verify lemmas p={p}", _verify_ok, golden=True,
                      argv=["verify", "--suite", "lemmas", "-p", str(p), "--k-max", str(k)]))
    return ops


# -- symbolic ------------------------------------------------------------------


def _symbolic(size: str) -> list[Op]:
    pairs = ((1, 20), (2, 10), (3, 8)) if size == "full" else ((1, 5), (2, 3), (3, 2))
    ops = []
    for p, k in pairs:
        closed_argv = ["poly", "-p", str(p), "-k", str(k), "--closed"]

        def series_matches_closed(text, _outputs, closed_argv=closed_argv):
            _require(text == cli_stdout(closed_argv), "series output differs from --closed")
            return 1

        def lagrange_matches_closed(value, _outputs, p=p, k=k):
            closed = exact.limit_moment_poly(p, k)
            _require(value == closed * MultiPoly.variable(p + 1, 0),
                     "Lagrange coefficient differs from closed form times d0")
            return 1

        ops.append(Op(f"poly series p={p} k={k}", series_matches_closed, golden=True,
                      argv=["poly", "-p", str(p), "-k", str(k), "--series"]))
        ops.append(Op(f"lagrange p={p} k={k}", lagrange_matches_closed,
                      call=lambda p=p, k=k: series.lagrange_coefficient(p, k)))
    return ops


# -- moments -------------------------------------------------------------------


def shape_vector(rng: random.Random, p: int) -> tuple[Fraction, ...]:
    """p shapes a/7 with a in 8..13.

    A common denominator and numerators of one size keep the cost of the
    exact arithmetic the same for every seed: integer shapes, whose
    arithmetic is cheaper, would appear for some seeds and not others.
    """
    return tuple(Fraction(rng.randint(8, 13), 7) for _ in range(p))


def _moments(size: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    # Factor counts and orders are fixed so the work per pass does not
    # depend on the seed; only the shape values do.
    orders = ((2, 30), (3, 30), (4, 14)) if size == "full" else ((2, 8), (3, 6), (4, 4))
    k_verify, k_quad = ("12", 8) if size == "full" else ("4", 4)
    ops = []
    for p, order in orders:
        shapes = shape_vector(rng, p)
        series_label = f"moments_by_series p={p}"

        def table_matches_series(text, outputs, series_label=series_label):
            values = outputs[series_label].values
            expected = "k,moment\n" + "".join(f"{k},{m}\n" for k, m in enumerate(values, 1))
            _require(text == expected, "closed-form moments differ from the series route")
            return len(values)

        def series_shape(table, _outputs, order=order):
            _require(len(table.values) == order, f"series returned {len(table.values)} moments")
            return 1

        ops.append(Op(f"moments p={p}", table_matches_series,
                      argv=["moments", "-t", ",".join(map(str, shapes)), "-K", str(order)]))
        ops.append(Op(series_label, series_shape,
                      call=lambda shapes=shapes, order=order: freeprob.moments_by_series(shapes, order)))
    ops.append(Op("verify freeprob", _verify_ok, golden=True,
                  argv=["verify", "--suite", "freeprob", "--k-max", k_verify]))

    (t,) = shape_vector(rng, 1)

    def quadrature_matches(text, _outputs):
        lines = text.splitlines()
        _require(lines[0] == "k,moment,estimate,abs_diff", "unexpected quadrature header")
        exact_values = freeprob.moments_by_series((t,), k_quad).values
        _require(len(lines) == k_quad + 1, "wrong number of quadrature rows")
        for k, (line, value) in enumerate(zip(lines[1:], exact_values), 1):
            row_k, moment, estimate, _diff = line.split(",")
            _require(row_k == str(k) and moment == str(value), f"k={k}: exact column {moment}")
            target = float(value)
            _require(abs(float(estimate) - target) <= 1e-8 * max(1.0, abs(target)),
                     f"k={k}: quadrature {estimate} vs {target}")
        return 2 * k_quad

    ops.append(Op("moments quadrature", quadrature_matches,
                  argv=["moments", "-t", str(t), "-K", str(k_quad), "--quadrature"]))
    return ops


# -- mc ------------------------------------------------------------------------


def _mc(size: str, seed: int) -> list[Op]:
    # The criterion-08 gate (RNG-bound) and an unequal three-factor chain
    # with seven Gram powers (matmul-bound).
    if size == "full":
        configs = (("1,1.5,0.5", "300", "3", "200"), ("1,2,1,0.5", "500", "8", "16"))
    else:
        configs = (("1,1.5,0.5", "40", "3", "20"), ("1,2,1,0.5", "40", "4", "10"))
    bound = CRITERION_Z if seed == CRITERION_SEED else OTHER_SEED_Z

    def z_within_bound(text, _outputs):
        doc = json.loads(text)
        for row in doc["moments"]:
            _require(abs(row["z"]) <= bound, f"k={row['k']}: |z| = {abs(row['z'])} > {bound}")
        return len(doc["moments"])

    return [
        Op(f"mc d={d}", z_within_bound, reference=True,
           argv=["mc", "-d", d, "-n", n, "-K", k, "--trials", trials, "--seed", str(seed)])
        for d, n, k, trials in configs
    ]


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The operations of one pass of a workload, in the order they run."""
    if workload == "oracle":
        return _oracle(size)
    if workload == "symbolic":
        return _symbolic(size)
    if workload == "moments":
        return _moments(size, seed)
    if workload == "mc":
        return _mc(size, seed)
    raise ValueError(f"unknown workload {workload!r}")
