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
l* of the same letter.  ``enumerate_adapted`` lists the noncrossing
matchings adapted to a word lazily, in canonical order: lexicographic in
the match array.  A position's admissible partners are the copies of
its mate, at an odd distance m read off one period and every 2p after.
The walk gives the first free position each in turn, inside the new
block before outside it, without a partner table: each frame keeps a
cursor on the last partner it tried and steps it 2p at a time.
``noncrossing_matchings`` is the same walk on the p = 1 word
1 1* 1 1* ..., where every odd distance is admissible.  Every listed
matching is a validated ``PairPartition``.

Leg profiles.  Order the two positions of a block; the larger one is
the block's right leg.  The profile of a matching is the vector
``(j_0, ..., j_p)`` where each block contributes 1 to exactly one slot,
decided by the letter on its right leg: a starred right leg l* counts
toward ``j_l``, a plain right leg l toward ``j_{l-1}``.  Profiles of a
matching on a length-2pk word always sum to pk, the number of blocks.
For the shift-0 word the generating polynomial of profiles equals the
limit moment polynomial.

Counting and listing.  One counter, ``_count``, counts matchings with
the first-block recurrence on intervals of the periodic word, without
building a matching; like the walk, it reads each block's mate distance
and profile slot off one period.  The recurrence is a truncated-series
product, so it runs on the kernel of :mod:`fussnarayana.series`, in any
ring.  ``profile_histogram`` runs it on packed monomial dicts and
returns the profile polynomials of orders 0..k as a sequence that makes
entry j a ``MultiPoly`` when it is read; at shift 0 entry k is the
limit moment polynomial P_k, and the count of one profile is its
coefficient in ``.terms``.  ``count_adapted`` runs it on Python ints
and returns the number of matchings alone, with no histogram.
``enumerate_adapted`` and ``leg_profile`` list and profile them one by
one, and ``listed_histograms`` collects those brute histograms for
every shift and order into one table of profile polynomials.  The walk
reads a word only through its mate-distance table, which has period p,
so the shift-p word walks the same matchings as shift 0: each walk is
listed once for every word that shares its table, and an order costs p
walks, not p + 1.  Both lemma sweeps take that table, because the
identities they check are the recurrence the counter relies on, so
``lemma_suite`` lists it once for both; ``oracle_suite`` checks the
counter against the closed form and the series solve.  Both ways refuse
words longer than the budget (``BudgetError``).

Cover rotation.  ``rotate_cover`` turns the 2pk positions one step left
around a circle, so a block {1, m} becomes {m-1, 2pk} and every other
block slides one step left; ``rotate_cover_inverse`` turns them back.
Rotation keeps blocks noncrossing, so it is a bijection on noncrossing
pair matchings.  The shift-i word is the base word turned i steps right,
so i left turns carry its adapted matchings onto the base word's, and
move one unit of profile from slot 0 to slot i.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from collections.abc import Iterator, Sequence

from . import _packed, exact, series
from .poly import MultiPoly
from .report import Report

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


# A namedtuple, not a dataclass: importing ``dataclasses`` costs every command ~10 ms.
class Letter(namedtuple("Letter", "index starred")):
    """One symbol of a word: a letter index with or without a star."""

    __slots__ = ()

    def mate(self) -> "Letter":
        return Letter(self.index, not self.starred)

    def __str__(self) -> str:
        return f"{self.index}*" if self.starred else f"{self.index}"


# A namedtuple, not a dataclass: importing ``dataclasses`` costs every command ~10 ms.
class WordSpec(namedtuple("WordSpec", "p shift k")):
    """Integer parameters of a repeated word: p letter pairs, cyclic shift, k repetitions."""

    __slots__ = ()

    def __new__(cls, p: int, shift: int, k: int) -> WordSpec:
        try:
            p, shift, k = map(operator.index, (p, shift, k))
        except TypeError:
            raise ValueError(f"non-integral word parameter in p={p!r}, shift={shift!r}, k={k!r}") from None
        if p < 1:
            raise ValueError(f"need p >= 1, got {p}")
        if not 0 <= shift <= p:
            raise ValueError(f"shift must lie in [0, p], got {shift}")
        if k < 0:
            raise ValueError(f"need k >= 0, got {k}")
        return super().__new__(cls, p, shift, k)


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
    position i.  Construction validates that the entries are integers
    (``operator.index``), that the array is a fixed-point free involution
    and that no two blocks cross.  One stack pass accepts exactly those
    arrays: an opener (``match[i] > i``) is pushed, a closer must pop its
    own partner, which must point back at it, and the stack must end
    empty.  A rejected array names its first position, over the whole
    array, where it is not a fixed-point free involution; if it has none,
    its blocks cross at the closer where the pass broke, the first crossing.
    """

    __slots__ = ("match",)

    def __init__(self, match: Sequence[int]):
        try:
            match = tuple(map(operator.index, match))
        except TypeError:
            raise ValueError(f"non-integral entry in match array {match!r}") from None
        n = len(match)
        if n % 2:
            raise ValueError("a pair matching needs an even number of positions")
        stack: list[int] = []
        for i, j in enumerate(match):
            if j > i:
                stack.append(i)
            elif not stack or stack.pop() != j or match[j] != i:
                break
        else:
            if not stack:
                self.match = match
                return
        # Rejected.  The accept pass fails a fixed-point free involution only at
        # a closer whose popped opener is not its partner, the first crossing,
        # and never ends it with openers left; so an array that passes the
        # involution check crossed at the i where the pass broke.
        for a, b in enumerate(match):
            if not 0 <= b < n or b == a or match[b] != a:
                raise ValueError(f"match array is not a fixed-point free involution at {a}")
        raise ValueError(f"blocks cross near position {i}")

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], size: int | None = None) -> "PairPartition":
        """Build from 1-based blocks, e.g. [(1, 4), (2, 3)]."""
        try:
            pairs = [(operator.index(a), operator.index(b)) for a, b in blocks]
            n = 2 * len(pairs) if size is None else operator.index(size)
        except TypeError:
            raise ValueError(f"blocks {blocks!r} and size {size!r} must be integers") from None
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


def _period(p: int, shift: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per position a of the shift-``shift`` base word: mate distance and profile slot.

    The odd distance m to the next copy of a's mate, and the slot of a
    block opened at a, read off its left leg: a plain l feeds j_l and a
    starred l* feeds j_{l-1}, the ``leg_profile`` rule seen from the left.
    """
    letters = base_word(p, shift)
    period = len(letters)
    return (
        tuple((letters.index(letter.mate()) - a) % period for a, letter in enumerate(letters)),
        tuple(letter.index - letter.starred for letter in letters),
    )


def _walk(size: int, first: Sequence[int]) -> Iterator[PairPartition]:
    """Noncrossing pair matchings of 0..size-1 whose blocks repeat with period P = len(first).

    A block opened at a may close at a + first[a % P] (odd), then every P
    after.  The walk fills the first free position of the current region,
    inside the new block first and outside it after, so the matchings come
    in lexicographic order of their match arrays.
    """
    period = len(first)
    match = [-1] * size
    if not size:
        yield PairPartition(match)
        return
    # A frame is a mutable [lo, hi, rest, last]: a region [lo, hi), the
    # regions still to fill after it (a linked list of (lo, hi, rest)), and
    # the last partner of lo tried, a cursor that steps P at a time; a new
    # frame's cursor sits one period before lo's first partner.
    frames = [[0, size, None, first[0] - period]]
    while frames:
        frame = frames[-1]
        lo, hi, rest, mid = frame
        mid += period
        if mid >= hi:
            frames.pop()
            continue
        frame[3] = mid
        match[lo] = mid
        match[mid] = lo
        if lo + 1 < mid:  # fill the new block's inside, then what is right of it
            if mid + 1 < hi:
                rest = (mid + 1, hi, rest)
            lo, hi = lo + 1, mid
        elif mid + 1 < hi:  # an empty inside: go on right of the block
            lo = mid + 1
        elif rest is not None:  # this region is full: take the next one
            lo, hi, rest = rest
        else:  # every position is matched
            yield PairPartition(match)
            continue
        frames.append([lo, hi, rest, lo + first[lo % period] - period])


def noncrossing_matchings(size: int) -> Iterator[PairPartition]:
    """All noncrossing pair matchings of 0..size-1, lazily, in lexicographic order.

    The walk of the p = 1 word 1 1* 1 1* ..., where any odd distance fits.
    """
    if size < 0 or size % 2:
        raise ValueError(f"size must be even and nonnegative, got {size}")
    return _walk(size, (1, 1))


def enumerate_adapted(spec: WordSpec, budget: int = DEFAULT_BUDGET) -> Iterator[PairPartition]:
    """Noncrossing matchings adapted to the word of ``spec``, in canonical order.

    Position a may pair with b > a at odd distance carrying the same
    letter with the opposite star.  The word is a k-fold repetition, so
    those b are the copies of a's mate, one period 2p apart (``_period``).
    """
    _check_budget(spec.p, spec.k, budget)
    first, _ = _period(spec.p, spec.shift)
    return _walk(2 * spec.p * spec.k, first)


def _leg_codes(word: Sequence[Letter]) -> tuple[list[int], list[int]]:
    """Per position of ``word``: its letter code and the slot a right leg there feeds.

    The code of l is 2l and of l* is 2l + 1, so two letters are mates
    exactly when their codes differ in the last bit.  A right leg l*
    feeds j_l and a plain l feeds j_{l-1}.
    """
    return ([2 * letter.index + letter.starred for letter in word],
            [letter.index - (not letter.starred) for letter in word])


def _profile(pi: PairPartition, word: Sequence[Letter], codes: Sequence[int],
             slots: Sequence[int], width: int) -> tuple[int, ...]:
    """Leg profile of ``pi`` from the :func:`_leg_codes` of ``word``; raises at a block that is not adapted."""
    profile = [0] * width
    for i, j in enumerate(pi.match):
        if j > i:
            if codes[i] ^ 1 != codes[j]:
                raise ValueError(f"block ({i + 1},{j + 1}) joins {word[i]} with {word[j]}; not adapted")
            profile[slots[j]] += 1
    return tuple(profile)


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
    codes, slots = _leg_codes(word)
    return _profile(pi, word, codes, slots, max(letter.index for letter in word) + 1)


def _count(p: int, k: int, shift: int, zero, one, accumulate_for_slot) -> list:
    """Adapted matchings of the shift-``shift`` words of orders 0..k, counted in one ring.

    The ring is its ``one``, a factory ``zero()`` of its zero, and
    ``accumulate_for_slot(slot)``, the multiply-accumulate of a block that
    feeds profile slot ``slot``; it may weight each pair by that slot.
    Counted by the first-block recurrence, without listing a matching.
    The word is 2p-periodic, so the count of an interval depends only on
    its start offset a mod 2p and its number of blocks l, half its
    length; call it H_a[l].  The interval's first position pairs with
    each copy of its mate, at the odd distances m = f_a + 2pr, f_a from
    ``_period``, which leaves the inside interval at offset a + 1 and the
    outside one at the fixed offset o_a = (a + f_a + 1) mod 2p.  The
    block feeds the profile slot ``_period`` gives a, by the factor
    leg_a.  With s = (m + 1)/2 that is

        H_a[l] = leg_a [x^l] (A_a * H_{o_a}),

    where A_a[s] = H_{a+1}[s - 1] at s = c_a + pr, c_a = (f_a + 1)/2,
    and is zero at every other s, which the kernel skips.  Entry l reads
    only orders below l, so every series is extended one order at a
    time by :func:`fussnarayana.series.product_coefficient`, as the
    series solve extends g.  The order-j word is the interval (0, 2pj),
    so entry j of the result is H_0[pj].
    """
    WordSpec(p, shift, k)  # validate arguments
    period = 2 * p
    first_mate, slots = _period(p, shift)
    starts = [(f + 1) // 2 for f in first_mate]
    outsides = [(a + f + 1) % period for a, f in enumerate(first_mate)]
    accumulates = [accumulate_for_slot(slot) for slot in slots]
    nothing = zero()  # read only, so one zero fills every gap of A_a
    counts = [[one] for _ in range(period)]  # H_a, indexed by the number of blocks
    firsts = [[nothing] for _ in range(period)]  # A_a
    for blocks in range(1, p * k + 1):
        # the whole word is the one interval of full length asked for
        for a in range(period) if blocks < p * k else (0,):
            closes = blocks >= starts[a] and (blocks - starts[a]) % p == 0
            firsts[a].append(counts[(a + 1) % period][blocks - 1] if closes else nothing)
            counts[a].append(series.product_coefficient(
                firsts[a], counts[outsides[a]], blocks, zero(), accumulates[a]))
    return [counts[0][p * j] for j in range(k + 1)]


def profile_histogram(
    p: int, k: int, shift: int = 0, budget: int = DEFAULT_BUDGET
) -> _packed.Orders:
    """Profile polynomials of the shift-``shift`` words of every order 0..k.

    Entry j has one monomial d0^j0 ... dp^jp per adapted matching of the
    order-j word, j its leg profile, so the coefficient of d^j counts
    the matchings with that profile.  At shift 0 entry j is the limit
    moment polynomial P_j, indexed like the series route's g[0..k]; no
    binomial is computed here, and at order 0 the empty matching gives 1.

    :func:`_count` in the packed ring: an interval's histogram is a
    packed-key term dict, and the accumulate of offset a is
    ``_packed.add_product`` shifted by the monomial of a's profile slot,
    so each pair of inside and outside histograms lands in the slot its
    first block feeds.  The budget caps 2pk exactly as for
    ``enumerate_adapted``.

    Returns the k + 1 entries as a :class:`~fussnarayana._packed.Orders`,
    which turns entry j into a ``MultiPoly`` the first time it is read
    and equals the list of them, so reading one order unpacks one.
    """
    _check_budget(p, k, budget)
    # No slot exceeds the pk blocks, so radix pk + 1 packs every profile.
    radix = p * k + 1
    units = _packed.units(p + 1, radix)

    def accumulate_for_slot(slot):
        # a closure, not functools.partial: a partial's keyword costs ~0.2 us a call
        unit = units[slot]
        return lambda total, a, b: _packed.add_product(total, a, b, unit)

    return _packed.Orders(_count(p, k, shift, dict, {0: 1}, accumulate_for_slot),
                          lambda terms: _packed.unpack(p + 1, radix, terms))


def count_adapted(p: int, k: int, shift: int = 0, budget: int = DEFAULT_BUDGET) -> int:
    """The number of noncrossing matchings adapted to the shift-``shift`` word of order k.

    :func:`_count` in the int ring, so no histogram is built: the total
    of ``profile_histogram(p, k, shift)[k]``, which at every shift is the
    Fuss-Catalan number ``fuss_catalan(p, k)`` for k >= 1, and 1 at
    k = 0.  The budget caps 2pk exactly as for ``enumerate_adapted``.
    """
    _check_budget(p, k, budget)
    return _count(p, k, shift, int, 1, lambda slot: series._add_product)[-1]


# -- cover rotation ----------------------------------------------------------


def _rotate(pi: PairPartition, step: int) -> PairPartition:
    """Turn the n positions ``step`` places left: {a, b} becomes {a - step, b - step} mod n."""
    n = pi.size
    if n == 0:
        raise ValueError("cannot rotate the empty matching")
    return PairPartition([(pi.match[(i + step) % n] - step) % n for i in range(n)])


def rotate_cover(pi: PairPartition) -> PairPartition:
    """Rotate the distinguished first block to cover the tail.

    One left turn of the circle of positions: the block {1, m} (1-based)
    becomes {m-1, 2n} and every other block slides one step left, so what
    was outside the old block is now covered.  Bijective on noncrossing
    pair matchings; the inverse is :func:`rotate_cover_inverse`.
    """
    return _rotate(pi, 1)


def rotate_cover_inverse(pi: PairPartition) -> PairPartition:
    """Inverse rotation: the block closing at the last position returns to the front."""
    return _rotate(pi, -1)


# -- verification sweeps -----------------------------------------------------


def listed_histograms(p: int, k_max: int, budget: int = DEFAULT_BUDGET) -> list[list[MultiPoly]]:
    """Profile polynomials of every shift and order k <= k_max, by listing.

    ``hists[shift][k]`` has one monomial d0^j0 ... dp^jp per adapted
    matching of the order-k word at that shift, j its leg profile; the
    table is built from ``enumerate_adapted`` and the ``leg_profile``
    rule alone.  The walk depends on a word only through its mate-distance
    table, which has period p, so the shift-p word walks the same matchings
    as shift 0.  The shifts are grouped by that table, and each walk is
    listed once for every word of its group: an order costs p walks, not
    p + 1.  Each shift's base word, letter codes and right-leg slots are
    derived once, for one period, and tiled k times for order k; every
    block of every listed matching is checked adapted to each word it is
    profiled for.  The lemma sweeps check the first-block recurrence that
    ``profile_histogram`` counts by, so they read this table instead.
    p < 1 or k_max < 0 raises ``ValueError`` before any work.  Every order
    is checked against the budget before the first walk, and the first one
    over it raises ``BudgetError``.
    """
    if p < 1 or k_max < 0:
        raise ValueError(f"listed_histograms needs p >= 1 and k_max >= 0, got p={p}, k_max={k_max}")
    for k in range(1, k_max + 1):
        _check_budget(p, k, budget)
    width = p + 1
    hists = [[MultiPoly.constant(width, 1)] for _ in range(width)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for shift in range(width):
        groups.setdefault(_period(p, shift)[0], []).append(shift)
    for shifts in groups.values():
        # one period of each word, tiled k times below: build_word is base_word * k
        words = [base_word(p, shift) for shift in shifts]
        periods = [(word, *_leg_codes(word)) for word in words]
        for k in range(1, k_max + 1):
            legs = [(word * k, codes * k, slots * k) for word, codes, slots in periods]
            rows = [{} for _ in shifts]
            for pi in enumerate_adapted(WordSpec(p, shifts[0], k), budget):
                for row, (word, codes, slots) in zip(rows, legs):
                    profile = _profile(pi, word, codes, slots, width)
                    row[profile] = row.get(profile, 0) + 1
            for shift, row in zip(shifts, rows):
                # _profile's keys are int tuples, so the terms need no cleaning
                hists[shift].append(MultiPoly._from_terms(width, row))
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
    """Exhaustively check d_i * H_i = d_0 * H_0 for every shift i in [1, p].

    ``hists`` is a :func:`listed_histograms` table, and H_i is its
    order-k profile polynomial at shift i, for every order k <= k_max.
    Shifting a word moves one unit of profile from slot i to slot 0, so
    the two monomial products must agree coefficient by coefficient.
    Every monomial of d_0 * H_0 must fill each slot above 0, every
    monomial of d_i * H_i must fill slot 0, and the products are compared
    in both directions so neither can hide extra mass.
    """
    p, k_max = _table_shape(hists)
    report = Report(name=f"shift-identity p={p} k<={k_max}")
    d = [MultiPoly.variable(p + 1, i) for i in range(p + 1)]
    for k in range(1, k_max + 1):
        base = (d[0] * hists[0][k]).terms
        for m in sorted(base):
            report.tally(all(m[1:]), lambda: f"k={k}: d0*H0 has {m} with an empty slot above 0")
        for i in range(1, p + 1):
            shifted = (d[i] * hists[i][k]).terms
            for m, count in sorted(shifted.items()):
                report.tally(m[0] >= 1,
                             lambda: f"k={k} shift={i}: d{i}*H{i} has {m} with empty slot 0")
                if m[0]:
                    report.tally(count == base.get(m, 0),
                                 lambda: f"k={k} shift={i}: d{i}*H{i} has {count} at {m}, "
                                 f"d0*H0 has {base.get(m, 0)}")
            for m, count in sorted(base.items()):
                if m[i]:
                    report.tally(count == shifted.get(m, 0),
                                 lambda: f"k={k} shift={i}: d0*H0 has {count} at {m}, "
                                 f"d{i}*H{i} has {shifted.get(m, 0)}")
    return report


def verify_product_decomposition(hists: Sequence[Sequence[MultiPoly]]) -> Report:
    """Check H_0 - 1 = x * d_1 ... d_p * H_0 * H_1 * ... * H_p, two ways.

    ``hists`` is a :func:`listed_histograms` table.  Writing H_i for the
    generating series whose x^k coefficient is ``hists[i][k]``, the
    profile polynomial of the shift-i word, the sweep checks

        H_0 - 1 = x * d_1 ... d_p * H_0 * H_1 * ... * H_p

    as an identity of truncated series, and independently re-checks its
    x^k coefficient for k >= 1: the order-k profile polynomial of the
    base word equals d_1 ... d_p times the convolution of shift-0..p
    profile polynomials at orders summing to k - 1, compared monomial by
    monomial over both supports.
    """
    p, k_max = _table_shape(hists)
    report = Report(name=f"product-decomposition p={p} k<={k_max}")
    num_vars = p + 1
    zero = MultiPoly(num_vars)
    d_product = MultiPoly(num_vars, {(0,) + (1,) * p: 1})
    product = hists[0]
    for s in hists[1:]:
        product = series.truncated_mul(product, s, k_max, zero)
    lhs = [hists[0][0] - 1] + list(hists[0][1:])
    rhs = [zero] + [c * d_product for c in product[:-1]]
    for k in range(k_max + 1):
        report.tally(
            lhs[k] == rhs[k],
            lambda: f"series identity fails at order {k}: {(lhs[k] - rhs[k]).to_string()}",
        )

    for k in range(1, k_max + 1):
        convolution = zero
        # its own loop over order tuples, apart from the closed form's
        # compositions, so a fault there cannot reach this check: the orders
        # of shifts 0..p-1 are free, and shift p takes what is left of k - 1
        for orders in itertools.product(range(k), repeat=p):
            last = k - 1 - sum(orders)
            if last < 0:
                continue
            term = hists[0][orders[0]]
            for shift in range(1, p):
                term = term * hists[shift][orders[shift]]
            convolution = convolution + term * hists[p][last]
        base, total = hists[0][k].terms, (d_product * convolution).terms
        for j in sorted(base.keys() | total.keys()):
            report.tally(
                base.get(j, 0) == total.get(j, 0),
                lambda: f"k={k}: H0 has {base.get(j, 0)} at {j}, "
                f"d1...dp times the convolution has {total.get(j, 0)}",
            )
    return report


def lemma_suite(budget: int, p: int | None = None, k_max: int | None = None) -> list[Report]:
    """``verify --suite lemmas``: both lemma sweeps on one listed table per (p, k_max)."""
    if p is not None:
        pairs = [(p, 2 if k_max is None else k_max)]
    elif k_max is not None:
        pairs = [(q, k_max) for q in (1, 2, 3)]
    else:
        pairs = [(1, 4), (2, 2), (3, 2)]
    reports = []
    for q, k in pairs:
        hists = listed_histograms(q, k, budget=budget)
        reports += [verify_shift_identity(hists), verify_product_decomposition(hists)]
    return reports


def oracle_suite(budget: int, p: int | None = None, k_max: int | None = None,
                 pk_budget: int | None = None) -> list[Report]:
    """``verify --suite oracle``: one three-route sweep per p, to ``k_max`` or the 2pk cap."""
    cap = pk_budget if pk_budget is not None else max(budget, 40)
    ps = (1, 2, 3) if p is None else (p,)
    pairs = [(q, cap // (2 * q) if k_max is None else k_max) for q in ps]
    pairs = [(q, k) for q, k in pairs if k >= 1]
    if not pairs:
        raise ValueError(f"verify --suite oracle: no order k >= 1 has 2*p*k <= {cap} "
                         f"for p in {list(ps)}")
    reports = []
    for q, top in pairs:
        report = Report(name=f"three-route agreement p={q} k<={top}")
        # counted first, so an order over the budget fails before any other work
        enumerated = profile_histogram(q, top, 0, max(cap, budget))
        g = series.solve_functional_equation(q, top)
        d0 = MultiPoly.variable(q + 1, 0)
        for k, counted in enumerate(enumerated):
            closed = exact.limit_moment_poly(q, k)
            report.tally(closed == counted, f"k={k}: closed form and enumeration disagree")
            if k >= 1:
                # g_k = d_0 P_k; a g_k without the factor d_0 disagrees, it does not raise
                report.tally(closed * d0 == g[k],
                             f"k={k}: closed form and series solver disagree")
                refined, total = exact.vandermonde_decomposition(q, k)
                # one monomial per matching, so the coefficients sum to the count
                count = sum(counted.terms.values())
                report.tally(refined == total == count,
                             f"k={k}: counts disagree: {refined}, {total}, {count}")
        reports.append(report)
    return reports
