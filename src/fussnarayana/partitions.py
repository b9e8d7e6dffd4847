"""Noncrossing pair matchings adapted to repeated alternating words.

This module is the combinatorial ground truth behind the closed-form
counts in :mod:`fussnarayana.exact`.  Conventions, all of which the
verification sweeps exercise:

Words.  For p letter pairs, the base word at shift 0 is

    1 2 ... p p* ... 2* 1*

(each plain letter followed later by its starred mate, nested).  The
word at shift i is the cyclic right rotation of the base word by i
positions; shift p places all starred letters first.  The word of a
``WordSpec(p, shift, k)`` is the k-fold repetition, length 2pk.

Adapted matchings.  A pair matching of the positions of a word W is
adapted to W when every block joins a plain letter l to a starred copy
l* of the same letter.  ``enumerate_adapted`` lists, in a fixed
deterministic order, the noncrossing matchings adapted to a word.

Leg profiles.  Order the two positions of a block; the larger one is
the block's right leg.  The profile of a matching is the vector
``(j_0, ..., j_p)`` where each block contributes 1 to exactly one slot,
decided by the letter on its right leg: a starred right leg l* counts
toward ``j_l``, a plain right leg l toward ``j_{l-1}``.  Profiles of a
matching on a length-2pk word always sum to pk, the number of blocks.
For the shift-0 word the generating polynomial of profiles equals the
limit moment polynomial.

Counting and listing.  ``profile_histogram`` counts matchings by
profile with the first-block recurrence on intervals of the periodic
word, without building a matching, and returns the profile polynomial
as a ``MultiPoly``; at shift 0 that is the limit moment polynomial, and
the count of one profile is its coefficient in ``.terms``.
``enumerate_adapted`` and ``leg_profile`` list and profile them one by
one, and ``listed_histograms`` collects those brute histograms for
every shift and order into one table of profile polynomials.  Both
verification sweeps take that table, because the identities they check
are the recurrence the counter relies on, so each word is listed once
for both.  Both ways refuse words longer than the budget
(``BudgetError``).

Cover rotation.  ``rotate_cover`` is the bijection on noncrossing pair
matchings that removes the block opened at the first position, slides
everything one step left, and re-closes that block around what used to
be outside it, i.e. a block {1, m} becomes {m-1, 2pk}.  Applied i times
it carries matchings adapted to the shift-i word onto matchings adapted
to the shift-0 word and moves one unit of profile from slot 0 to slot i.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .exact import _compositions
from .poly import MultiPoly
from .report import Report
from .series import truncated_mul

#: Largest word length 2pk the enumeration routines accept by default.
DEFAULT_BUDGET = 16


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured word-length cap."""


def _check_budget(p: int, k: int, budget: int) -> None:
    if 2 * p * k > budget:
        raise BudgetError(
            f"word length 2*p*k = {2 * p * k} exceeds the enumeration budget {budget}; "
            f"raise the budget explicitly to force this sweep"
        )


@dataclass(frozen=True)
class Letter:
    """One symbol of a word: a letter index with or without a star."""

    index: int
    starred: bool

    def mate(self) -> "Letter":
        return Letter(self.index, not self.starred)

    def __str__(self) -> str:
        return f"{self.index}*" if self.starred else f"{self.index}"


@dataclass(frozen=True)
class WordSpec:
    """Parameters of a repeated word: p letter pairs, cyclic shift, k repetitions."""

    p: int
    shift: int
    k: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"need p >= 1, got {self.p}")
        if not 0 <= self.shift <= self.p:
            raise ValueError(f"shift must lie in [0, p], got {self.shift}")
        if self.k < 0:
            raise ValueError(f"need k >= 0, got {self.k}")

    @property
    def length(self) -> int:
        return 2 * self.p * self.k


def base_word(p: int, shift: int = 0) -> tuple[Letter, ...]:
    """The length-2p word at the given cyclic shift."""
    WordSpec(p, shift, 0)  # validate arguments
    plain = [Letter(i, False) for i in range(1, p + 1)]
    starred = [Letter(i, True) for i in range(p, 0, -1)]
    word = plain + starred
    if shift:
        word = word[-shift:] + word[:-shift]
    return tuple(word)


def build_word(spec: WordSpec) -> tuple[Letter, ...]:
    """The k-fold repetition of the shifted base word."""
    return base_word(spec.p, spec.shift) * spec.k


class PairPartition:
    """A noncrossing pair matching of positions 0..size-1.

    Stored as an involution array: ``match[i]`` is the partner of
    position i.  Construction validates that the array is a fixed-point
    free involution and that no two blocks cross.
    """

    __slots__ = ("match",)

    def __init__(self, match: Sequence[int]):
        match = tuple(int(x) for x in match)
        n = len(match)
        if n % 2:
            raise ValueError("a pair matching needs an even number of positions")
        for i, j in enumerate(match):
            if not 0 <= j < n or j == i or match[j] != i:
                raise ValueError(f"match array is not a fixed-point free involution at {i}")
        # noncrossing <=> the word of openers/closers is balanced like parentheses
        stack: list[int] = []
        for i, j in enumerate(match):
            if j > i:
                stack.append(i)
            else:
                if not stack or stack[-1] != j:
                    raise ValueError(f"blocks cross near position {i}")
                stack.pop()
        self.match = match

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], size: int | None = None) -> "PairPartition":
        """Build from 1-based blocks, e.g. [(1, 4), (2, 3)]."""
        pairs = [(int(a), int(b)) for a, b in blocks]
        n = size if size is not None else 2 * len(pairs)
        match = [-1] * n
        for a, b in pairs:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"block ({a}, {b}) outside 1..{n}")
            if match[a - 1] != -1 or match[b - 1] != -1:
                raise ValueError(f"position reused by block ({a}, {b})")
            match[a - 1] = b - 1
            match[b - 1] = a - 1
        if -1 in match:
            raise ValueError("some positions are unmatched")
        return cls(match)

    @property
    def size(self) -> int:
        return len(self.match)

    def blocks(self) -> tuple[tuple[int, int], ...]:
        """Blocks as 1-based (opener, closer) pairs, sorted by opener."""
        return tuple(
            (i + 1, j + 1) for i, j in enumerate(self.match) if j > i
        )

    def to_line(self) -> str:
        """Text form like ``(1,4)(2,3)(5,8)(6,7)``."""
        return "".join(f"({a},{b})" for a, b in self.blocks())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairPartition):
            return NotImplemented
        return self.match == other.match

    def __hash__(self):
        return hash(self.match)

    def __repr__(self) -> str:
        return f"PairPartition[{self.to_line()}]"


def noncrossing_matchings(
    size: int, compatible: Callable[[int, int], bool] | None = None
) -> Iterator[PairPartition]:
    """All noncrossing pair matchings of 0..size-1, optionally filtered.

    ``compatible(a, b)`` (0-based, a < b) limits which positions may form
    a block.  Enumeration order is deterministic: the first open position
    always pairs with its smallest admissible partner first, and the
    region inside a new block is resolved before the region outside it.
    """
    if size < 0 or size % 2:
        raise ValueError(f"size must be even and nonnegative, got {size}")
    match = [-1] * size

    def gen(lo: int, hi: int) -> Iterator[None]:
        if lo > hi:
            yield None
            return
        for mid in range(lo + 1, hi + 1, 2):
            if compatible is None or compatible(lo, mid):
                match[lo] = mid
                match[mid] = lo
                for _inner in gen(lo + 1, mid - 1):
                    yield from gen(mid + 1, hi)

    def emit() -> Iterator[PairPartition]:
        for _ in gen(0, size - 1):
            yield PairPartition(match)

    return emit()


def enumerate_adapted(spec: WordSpec, budget: int = DEFAULT_BUDGET) -> Iterator[PairPartition]:
    """Noncrossing matchings adapted to the word of ``spec``, in canonical order."""
    _check_budget(spec.p, spec.k, budget)
    word = build_word(spec)

    def compatible(a: int, b: int) -> bool:
        return word[a] == word[b].mate()

    return noncrossing_matchings(len(word), compatible)


def leg_profile(pi: PairPartition, word: Sequence[Letter]) -> tuple[int, ...]:
    """Profile vector (j_0, ..., j_p) of a matching adapted to ``word``.

    Each block contributes to one slot according to its right-leg letter:
    l* feeds j_l, plain l feeds j_{l-1}.  Raises when the matching does
    not fit the word or some block is not adapted.
    """
    if pi.size != len(word):
        raise ValueError(f"matching on {pi.size} positions against a length-{len(word)} word")
    if not word:
        raise ValueError("leg profile of the empty word is ambiguous; handle k = 0 upstream")
    p = max(letter.index for letter in word)
    profile = [0] * (p + 1)
    for i, j in enumerate(pi.match):
        if j < i:
            continue
        if word[i] != word[j].mate():
            raise ValueError(
                f"block ({i + 1},{j + 1}) joins {word[i]} with {word[j]}; not adapted"
            )
        right = word[j]
        profile[right.index if right.starred else right.index - 1] += 1
    return tuple(profile)


def profile_histogram(
    p: int, k: int, shift: int = 0, budget: int = DEFAULT_BUDGET
) -> MultiPoly:
    """Profile polynomial of the adapted matchings of the shift-``shift`` word.

    One monomial d0^j0 ... dp^jp per adapted matching, j its leg
    profile, so the coefficient of d^j counts the matchings with profile
    j.  At shift 0 this is the limit moment polynomial P_k; no binomial
    is computed here, and at k = 0 the empty matching gives 1.

    Counted by the first-block recurrence, without listing a matching.
    The word is 2p-periodic, so the histogram of an interval depends only
    on its start offset mod 2p and its length L.  The interval's first
    position pairs with each position at odd distance m that carries
    its mate; that block feeds the slot of its right-leg letter, the
    ``leg_profile`` rule, and the rest splits into the inside interval
    (offset + 1, m - 1) and the outside one (offset + m + 1, L - m - 1).
    The table of interval histograms lives for one call.  The budget
    caps 2pk exactly as for ``enumerate_adapted``.
    """
    if k:
        _check_budget(p, k, budget)
    WordSpec(p, shift, k)  # validate arguments
    period, size = 2 * p, 2 * p * k
    letters = base_word(p, shift)
    # Profiles are packed into one int, slot s as the digit of radix**s, so
    # adding profiles is adding ints; no slot exceeds the pk blocks.
    radix = p * k + 1
    first_mate, unit = [], []
    for a, letter in enumerate(letters):
        m = next(m for m in range(1, period, 2) if letters[(a + m) % period] == letter.mate())
        right = letters[(a + m) % period]
        first_mate.append(m)
        unit.append(radix ** (right.index if right.starred else right.index - 1))

    table: dict[tuple[int, int], dict[int, int]] = {(a, 0): {0: 1} for a in range(period)}
    for length in range(2, size + 1, 2):
        # the whole word is the one interval of full length asked for
        for a in range(period) if length < size else (0,):
            hist: dict[int, int] = {}
            block = unit[a]
            for m in range(first_mate[a], length, period):
                inner = table[(a + 1) % period, m - 1]
                outer = table[(a + m + 1) % period, length - m - 1]
                for key_in, count_in in inner.items():
                    key_in += block
                    for key_out, count_out in outer.items():
                        key = key_in + key_out
                        hist[key] = hist.get(key, 0) + count_in * count_out
            table[a, length] = hist

    def unpack(key: int) -> tuple[int, ...]:
        slots = []
        for _ in range(p + 1):
            key, digit = divmod(key, radix)
            slots.append(digit)
        return tuple(slots)

    counts = table[0, size]
    return MultiPoly._from_terms(p + 1, {unpack(key): count for key, count in counts.items()})


# -- cover rotation ----------------------------------------------------------


def rotate_cover(pi: PairPartition) -> PairPartition:
    """Rotate the distinguished first block to cover the tail.

    The block {1, m} (1-based) is removed, positions 2..2n slide left by
    one, and the freed block re-enters as {m-1, 2n}.  Everything that was
    inside the old block stays to the left of m-1; everything that was
    outside it is now covered.  Bijective on noncrossing pair matchings;
    the inverse is :func:`rotate_cover_inverse`.
    """
    n = pi.size
    if n == 0:
        raise ValueError("cannot rotate the empty matching")
    m = pi.match[0]
    new = [-1] * n
    new[m - 1] = n - 1
    new[n - 1] = m - 1
    for a in range(1, n):
        if a == m:
            continue
        b = pi.match[a]
        if a < b:
            new[a - 1] = b - 1
            new[b - 1] = a - 1
    return PairPartition(new)


def rotate_cover_inverse(pi: PairPartition) -> PairPartition:
    """Inverse rotation: the block closing at the last position returns to the front."""
    n = pi.size
    if n == 0:
        raise ValueError("cannot rotate the empty matching")
    b = pi.match[n - 1]
    new = [-1] * n
    new[0] = b + 1
    new[b + 1] = 0
    for a in range(0, n - 1):
        if a == b:
            continue
        c = pi.match[a]
        if a < c:
            new[a + 1] = c + 1
            new[c + 1] = a + 1
    return PairPartition(new)


# -- verification sweeps -----------------------------------------------------


def listed_histograms(p: int, k_max: int, budget: int = DEFAULT_BUDGET) -> list[list[MultiPoly]]:
    """Profile polynomials of every shift and order k <= k_max, by listing.

    ``hists[shift][k]`` has one monomial d0^j0 ... dp^jp per adapted
    matching of the order-k word at that shift, j its leg profile; the
    table is built from ``enumerate_adapted`` and ``leg_profile`` alone.
    The lemma sweeps check the first-block recurrence that
    ``profile_histogram`` counts by, so they read this table instead.
    ``enumerate_adapted`` raises ``BudgetError`` at the first order over
    the budget.
    """
    hists = []
    for shift in range(p + 1):
        row = [MultiPoly.constant(p + 1, 1)]
        for k in range(1, k_max + 1):
            spec = WordSpec(p, shift, k)
            word = build_word(spec)
            row.append(MultiPoly(p + 1, Counter(
                leg_profile(pi, word) for pi in enumerate_adapted(spec, budget)
            )))
        hists.append(row)
    return hists


def _table_shape(hists: Sequence[Sequence[MultiPoly]]) -> tuple[int, int]:
    """(p, k_max) of a :func:`listed_histograms` table, which must be (p+1) x (k_max+1)."""
    p = len(hists) - 1
    k_max = len(hists[0]) - 1 if hists else -1
    if p < 1 or k_max < 0 or any(len(row) != k_max + 1 for row in hists):
        raise ValueError(f"need a (p+1) x (k_max+1) table with p >= 1, "
                         f"got rows of lengths {[len(row) for row in hists]}")
    return p, k_max


def verify_shift_identity(hists: Sequence[Sequence[MultiPoly]]) -> Report:
    """Exhaustively check the profile relation between shifted and base words.

    ``hists`` is a :func:`listed_histograms` table.  For every shift i in
    [1, p], order k <= k_max, and profile vector, the number of adapted
    matchings of the shift-i word with profile (q_0, ..., q_p) must equal
    the number for the shift-0 word with profile
    (q_0 - 1, ..., q_i + 1, ...).  Both directions are compared so
    neither histogram can hide extra mass.
    """
    p, k_max = _table_shape(hists)
    report = Report(name=f"shift-identity p={p} k<={k_max}")
    for k in range(1, k_max + 1):
        hist0 = hists[0][k].terms
        for r in sorted(hist0):
            report.tally(
                all(r[i] >= 1 for i in range(1, p + 1)),
                lambda: f"k={k}: base-word profile {r} has an empty slot above 0",
            )
        for i in range(1, p + 1):
            hist_i = hists[i][k].terms
            for q, count in sorted(hist_i.items()):
                report.tally(
                    q[0] >= 1,
                    lambda: f"k={k} shift={i}: profile {q} has empty slot 0",
                )
                if q[0] < 1:
                    continue
                r = list(q)
                r[0] -= 1
                r[i] += 1
                r = tuple(r)
                report.tally(
                    count == hist0.get(r, 0),
                    lambda: f"k={k} shift={i}: count {count} at {q} vs {hist0.get(r, 0)} at {r}",
                )
            for r, count in sorted(hist0.items()):
                if r[i] < 1:
                    continue
                q = list(r)
                q[0] += 1
                q[i] -= 1
                q = tuple(q)
                report.tally(
                    count == hist_i.get(q, 0),
                    lambda: f"k={k} shift={i}: base count {count} at {r} "
                    f"vs {hist_i.get(q, 0)} at {q}",
                )
    return report


def verify_product_decomposition(hists: Sequence[Sequence[MultiPoly]]) -> Report:
    """Check the product form of the profile generating series, two ways.

    ``hists`` is a :func:`listed_histograms` table.  Writing G_i for the
    generating series whose x^k coefficient is ``hists[i][k]``, the
    profile polynomial of the shift-i word, the sweep checks

        G_0 - 1 = x * d_1 ... d_p * G_0 * G_1 * ... * G_p

    as an identity of truncated series, and independently re-checks the
    equivalent coefficient recurrence: the count at order k and profile
    j equals the convolution of shift-0..p histograms at orders summing
    to k - 1 with profile slots summing to (j_0, j_1 - 1, ..., j_p - 1).
    """
    p, k_max = _table_shape(hists)
    report = Report(name=f"product-decomposition p={p} k<={k_max}")
    num_vars = p + 1
    zero, one = MultiPoly(num_vars), MultiPoly.constant(num_vars, 1)
    d_product = MultiPoly(num_vars, {(0,) + (1,) * p: 1})
    product = hists[0]
    for s in hists[1:]:
        product = truncated_mul(product, s, k_max, zero)
    lhs = [hists[0][0] - 1] + list(hists[0][1:])
    rhs = [zero] + [c * d_product for c in product[:-1]]
    for k in range(k_max + 1):
        report.tally(
            lhs[k] == rhs[k],
            lambda: f"series identity fails at order {k}: {(lhs[k] - rhs[k]).to_string()}",
        )

    for k in range(1, k_max + 1):
        convolution = zero
        for orders in _compositions(k - 1, num_vars, 0, k - 1):
            term = one
            for shift, k_i in enumerate(orders):
                term = term * hists[shift][k_i]
            convolution = convolution + term
        base, total = hists[0][k].terms, convolution.terms
        keys = set(base)
        for sums in total:
            keys.add((sums[0],) + tuple(s + 1 for s in sums[1:]))
        for j in sorted(keys):
            if any(j[i] < 1 for i in range(1, num_vars)):
                lhs_count = base.get(j, 0)
                report.tally(
                    lhs_count == 0,
                    lambda: f"k={k}: profile {j} with empty upper slot has count {lhs_count}",
                )
                continue
            sums = (j[0],) + tuple(j[i] - 1 for i in range(1, num_vars))
            report.tally(
                base.get(j, 0) == total.get(sums, 0),
                lambda: f"k={k}: recurrence mismatch at {j}: "
                f"{base.get(j, 0)} vs {total.get(sums, 0)}",
            )
    return report
