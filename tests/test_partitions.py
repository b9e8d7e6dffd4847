"""Tests for words, adapted noncrossing matchings, profiles, and the rotation."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana import partitions
from fussnarayana.exact import fuss_catalan, fuss_narayana_number, limit_moment_poly
from fussnarayana.poly import MultiPoly
from fussnarayana.partitions import (
    BudgetError,
    PairPartition,
    WordSpec,
    base_word,
    build_word,
    enumerate_adapted,
    leg_profile,
    listed_histograms,
    noncrossing_matchings,
    profile_histogram,
    rotate_cover,
    rotate_cover_inverse,
    verify_product_decomposition,
    verify_shift_identity,
)


def word_text(word):
    return " ".join(str(letter) for letter in word)


# -- words -------------------------------------------------------------------

def test_base_words_for_two_letters():
    assert word_text(base_word(2, 0)) == "1 2 2* 1*"
    assert word_text(base_word(2, 1)) == "1* 1 2 2*"
    assert word_text(base_word(2, 2)) == "2* 1* 1 2"


def test_base_word_shift_three_letters():
    assert word_text(base_word(3, 2)) == "2* 1* 1 2 3 3*"


def test_base_word_validates_like_word_spec():
    for p, shift in [(0, 0), (2, 3), (2, -1)]:
        with pytest.raises(ValueError) as from_spec:
            WordSpec(p, shift, 0)
        with pytest.raises(ValueError) as from_word:
            base_word(p, shift)
        assert str(from_word.value) == str(from_spec.value)


def test_build_word_repeats():
    word = build_word(WordSpec(2, 0, 2))
    assert word_text(word) == "1 2 2* 1* 1 2 2* 1*"
    assert word_text(build_word(WordSpec(1, 0, 2))) == "1 1* 1 1*"
    assert build_word(WordSpec(2, 0, 0)) == ()
    with pytest.raises(ValueError):
        WordSpec(2, 3, 1)
    with pytest.raises(ValueError):
        WordSpec(0, 0, 1)


# -- matching container --------------------------------------------------------

def test_pair_partition_validation():
    PairPartition((1, 0, 3, 2))
    not_involution = r"^match array is not a fixed-point free involution at {}$"
    with pytest.raises(ValueError, match=r"^a pair matching needs an even number of positions$"):
        PairPartition((0, 1, 2))          # odd length
    with pytest.raises(ValueError, match=not_involution.format(2)):
        PairPartition((1, 0, 4, 2))       # partner past the end
    with pytest.raises(ValueError, match=not_involution.format(2)):
        PairPartition((1, 0, -1, 2))      # negative partner
    with pytest.raises(ValueError, match=not_involution.format(0)):
        PairPartition((0, 2, 1, 3))       # fixed points
    with pytest.raises(ValueError, match=not_involution.format(2)):
        PairPartition((1, 0, 2, 3))       # fixed point after a good block
    with pytest.raises(ValueError, match=not_involution.format(2)):
        PairPartition((1, 0, 3, 1))       # 2 -> 3 but 3 -> 1
    with pytest.raises(ValueError, match=r"^blocks cross near position 2$"):
        PairPartition((2, 3, 0, 1))       # crossing
    # blocks cross at 2 and position 4 is fixed: the whole array is checked
    # as an involution before any crossing is looked for
    with pytest.raises(ValueError, match=not_involution.format(4)):
        PairPartition((2, 3, 0, 1, 4, 5))
    empty = PairPartition(())
    assert empty.size == 0 and empty.blocks() == ()


def test_blocks_and_text_form():
    pi = PairPartition.from_blocks([(1, 4), (2, 3), (5, 8), (6, 7)])
    assert pi.blocks() == ((1, 4), (2, 3), (5, 8), (6, 7))
    assert pi.to_line() == "(1,4)(2,3)(5,8)(6,7)"
    assert PairPartition.from_blocks(pi.blocks()) == pi
    with pytest.raises(ValueError):
        PairPartition.from_blocks([(1, 2), (2, 3)], size=4)
    with pytest.raises(ValueError):
        PairPartition.from_blocks([(1, 4), (2, 3)], size=6)


def test_noncrossing_matchings_catalan_counts():
    for m, expected in [(0, 1), (2, 1), (4, 2), (6, 5), (8, 14), (10, 42), (12, 132)]:
        assert sum(1 for _ in noncrossing_matchings(m)) == expected
    with pytest.raises(ValueError):
        noncrossing_matchings(3)


# -- adapted enumeration -------------------------------------------------------

def test_enumeration_order_is_the_documented_one():
    lines = [pi.to_line() for pi in enumerate_adapted(WordSpec(2, 0, 2))]
    assert lines == [
        "(1,4)(2,3)(5,8)(6,7)",
        "(1,8)(2,3)(4,5)(6,7)",
        "(1,8)(2,7)(3,6)(4,5)",
    ]


def perfect_matchings(positions):
    """Every perfect matching of ``positions``: the first pairs with each later one."""
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for n, other in enumerate(rest):
        for blocks in perfect_matchings(rest[:n] + rest[n + 1:]):
            yield ((first, other),) + blocks


def reference_listing(size, admissible):
    """Match tuples of the noncrossing perfect matchings whose blocks are admissible, sorted."""
    listed = []
    for blocks in perfect_matchings(tuple(range(size))):
        if not all(admissible(a, b) for a, b in blocks):
            continue
        if any(a < c < b < d for a, b in blocks for c, d in blocks):
            continue
        match = [None] * size
        for a, b in blocks:
            match[a], match[b] = b, a
        listed.append(tuple(match))
    return sorted(listed)


def test_enumeration_is_every_adapted_matching_in_lexicographic_order():
    for p in range(1, 7):
        for k in range(0, 12 // (2 * p) + 1):
            for shift in range(p + 1):
                spec = WordSpec(p, shift, k)
                word = build_word(spec)
                expected = reference_listing(len(word), lambda a, b: word[a] == word[b].mate())
                listed = [pi.match for pi in enumerate_adapted(spec)]
                assert listed == expected, (p, shift, k)


def test_plain_matchings_are_every_noncrossing_one_in_lexicographic_order():
    for m in range(0, 13, 2):
        listed = [pi.match for pi in noncrossing_matchings(m)]
        assert listed == reference_listing(m, lambda a, b: True), m


def test_listing_is_lazy(monkeypatch):
    # the word 1 1* ... of length 30 has Catalan(15) = 9694845 adapted
    # matchings; the first three arrive after building three
    built = []

    class Counted(PairPartition):
        __slots__ = ()

        def __init__(self, match):
            built.append(tuple(match))
            if len(built) > 3:
                raise AssertionError("a fourth matching was built before it was asked for")
            super().__init__(match)

    monkeypatch.setattr(partitions, "PairPartition", Counted)
    first = list(itertools.islice(enumerate_adapted(WordSpec(1, 0, 15), budget=30), 3))
    adjacent = "".join(f"({a},{a + 1})" for a in range(1, 25, 2))
    assert [pi.to_line() for pi in first] == [
        adjacent + "(25,26)(27,28)(29,30)",
        adjacent + "(25,26)(27,30)(28,29)",
        adjacent + "(25,28)(26,27)(29,30)",
    ]
    assert len(built) == 3


def test_enumeration_counts_match_fuss_catalan():
    assert sum(1 for _ in enumerate_adapted(WordSpec(2, 0, 3))) == 12
    for p in (1, 2, 3):
        for k in range(1, 16 // (2 * p) + 1):
            count = sum(1 for _ in enumerate_adapted(WordSpec(p, 0, k)))
            assert count == fuss_catalan(p, k), (p, k)


def test_enumeration_counts_shift_invariant():
    for p, k in [(2, 2), (3, 1), (2, 3)]:
        baseline = sum(1 for _ in enumerate_adapted(WordSpec(p, 0, k)))
        for shift in range(1, p + 1):
            assert sum(1 for _ in enumerate_adapted(WordSpec(p, shift, k))) == baseline


def test_budget_is_enforced():
    with pytest.raises(BudgetError):
        list(enumerate_adapted(WordSpec(3, 0, 3)))
    with pytest.raises(BudgetError):
        profile_histogram(2, 5)
    with pytest.raises(BudgetError):
        profile_histogram(1, 9)
    # explicit larger budget unlocks the same call
    assert sum(1 for _ in enumerate_adapted(WordSpec(3, 0, 3), budget=18)) == fuss_catalan(3, 3)
    # a negative budget refuses even the empty word, on both routes
    with pytest.raises(BudgetError):
        list(enumerate_adapted(WordSpec(2, 0, 0), budget=-1))
    with pytest.raises(BudgetError):
        profile_histogram(2, 0, budget=-1)


def test_empty_word_conventions():
    assert sum(1 for _ in enumerate_adapted(WordSpec(2, 0, 0))) == 1
    counts = profile_histogram(2, 0)[0].terms
    assert counts.get((0, 0, 0), 0) == 1
    assert counts.get((1, 0, 0), 0) == 0
    assert profile_histogram(2, 0, shift=2, budget=0)[0].terms.get((0, 0, 0), 0) == 1
    assert profile_histogram(2, 0, budget=0) == [MultiPoly.constant(3, 1)]


def test_order_zero_arguments_are_validated():
    # k = 0 takes the same path as every other order, argument checks included
    with pytest.raises(ValueError, match="need p >= 1"):
        profile_histogram(0, 0)
    with pytest.raises(ValueError, match="shift must lie in"):
        profile_histogram(2, 0, shift=3)


# -- leg profiles ---------------------------------------------------------------

def test_leg_profiles_of_the_three_matchings():
    spec = WordSpec(2, 0, 2)
    word = build_word(spec)
    profiles = [leg_profile(pi, word) for pi in enumerate_adapted(spec)]
    assert profiles == [(0, 2, 2), (1, 1, 2), (1, 2, 1)]


def test_leg_profile_single_arch():
    word = build_word(WordSpec(1, 0, 1))  # 1 1*
    arch = PairPartition.from_blocks([(1, 2)])
    assert leg_profile(arch, word) == (0, 1)


def test_leg_profile_rejects_non_adapted():
    word = build_word(WordSpec(2, 0, 1))  # 1 2 2* 1*
    nested = PairPartition.from_blocks([(1, 4), (2, 3)])
    assert leg_profile(nested, word) == (0, 1, 1)
    crossingless_but_wrong = PairPartition.from_blocks([(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        leg_profile(crossingless_but_wrong, word)
    with pytest.raises(ValueError):
        leg_profile(nested, word[:2])


def test_not_adapted_message_names_the_block_and_its_letters():
    word = build_word(WordSpec(2, 0, 1))  # 1 2 2* 1*
    with pytest.raises(ValueError, match=r"^block \(1,2\) joins 1 with 2; not adapted$"):
        leg_profile(PairPartition.from_blocks([(1, 2), (3, 4)]), word)
    # same index, same star: 2* 2* is not a letter and its mate
    with pytest.raises(ValueError, match=r"^block \(1,2\) joins 2\* with 2\*; not adapted$"):
        leg_profile(PairPartition.from_blocks([(1, 2)]), word[2:3] * 2)


def test_listed_matchings_are_validated_pair_partitions():
    spec = WordSpec(2, 1, 3)
    for pi in enumerate_adapted(spec):
        assert type(pi) is PairPartition
        assert PairPartition(pi.match) == pi


def test_profile_histogram_and_counts():
    counts = profile_histogram(2, 2)[2].terms
    assert counts == {(0, 2, 2): 1, (1, 1, 2): 1, (1, 2, 1): 1}
    assert counts.get((1, 1, 2), 0) == 1
    assert counts.get((2, 1, 1), 0) == 0
    # base word, p = 1, k = 3: profile (1, 2) appears N(3, (2, 2)) = 3 times
    count = profile_histogram(1, 3)[3].terms.get((1, 2), 0)
    assert count == 3 == fuss_narayana_number(3, (2, 2))
    count = profile_histogram(2, 3)[3].terms.get((1, 2, 3), 0)
    assert count == 3 == fuss_narayana_number(3, (2, 2, 3))


def test_profile_histogram_equals_brute_enumeration():
    # the interval recurrence against a tally of every listed matching,
    # every order read from one call
    for p in range(1, 9):
        k_max = 16 // (2 * p)
        brute = listed_histograms(p, k_max, 16)
        for shift in range(p + 1):
            assert profile_histogram(p, k_max, shift, 16) == brute[shift], (p, shift)


def test_profiles_sum_to_block_count():
    for p, k in [(1, 4), (2, 2), (3, 2)]:
        for shift in range(p + 1):
            spec = WordSpec(p, shift, k)
            word = build_word(spec)
            for pi in enumerate_adapted(spec):
                assert sum(leg_profile(pi, word)) == p * k


def test_enumerated_moment_poly_matches_closed_form():
    for p in (1, 2, 3):
        k_max = 16 // (2 * p)
        closed = [limit_moment_poly(p, j) for j in range(k_max + 1)]
        assert profile_histogram(p, k_max) == closed, p


# -- cover rotation --------------------------------------------------------------

def test_rotate_cover_golden_example():
    # matching adapted to 1* 1 2 2* 1* 1 2 2*: fully paired adjacents
    pi = PairPartition.from_blocks([(1, 2), (3, 4), (5, 6), (7, 8)])
    image = rotate_cover(pi)
    assert image.to_line() == "(1,8)(2,3)(4,5)(6,7)"
    assert rotate_cover_inverse(image) == pi
    with pytest.raises(ValueError):
        rotate_cover(PairPartition(()))
    with pytest.raises(ValueError):
        rotate_cover_inverse(PairPartition(()))


def test_rotation_round_trip_exhaustive():
    for m in (2, 4, 6, 8, 10, 12):
        for pi in noncrossing_matchings(m):
            assert rotate_cover_inverse(rotate_cover(pi)) == pi
            assert rotate_cover(rotate_cover_inverse(pi)) == pi
            # m turns of the circle of m positions are the identity
            image = pi
            for _ in range(m):
                image = rotate_cover(image)
            assert image == pi


def test_rotation_is_a_bijection_on_plain_matchings():
    for m in (4, 8, 12):
        everything = set(noncrossing_matchings(m))
        images = {rotate_cover(pi) for pi in everything}
        assert images == everything


def profile_shift_expected(profile, shift):
    moved = list(profile)
    moved[0] -= 1
    moved[shift] += 1
    return tuple(moved)


def test_iterated_rotation_maps_shifted_words_onto_base():
    # for every shift i, i rotations land adapted-to-shift-i matchings
    # exactly onto adapted-to-base matchings, moving one profile unit
    # from slot 0 to slot i
    for p in (1, 2, 3):
        for k in range(1, 12 // (2 * p) + 1):
            base_spec = WordSpec(p, 0, k)
            base_set = set(enumerate_adapted(base_spec))
            base_word_k = build_word(base_spec)
            for shift in range(1, p + 1):
                spec = WordSpec(p, shift, k)
                word = build_word(spec)
                images = set()
                for pi in enumerate_adapted(spec):
                    image = pi
                    for _ in range(shift):
                        image = rotate_cover(image)
                    assert leg_profile(image, base_word_k) == profile_shift_expected(
                        leg_profile(pi, word), shift
                    )
                    images.add(image)
                assert images == base_set, (p, k, shift)


# -- verification sweeps -----------------------------------------------------------

# the check counts ``verify --suite lemmas`` prints at its default sizes
LEMMA_CHECKS = {(1, 4): (40, 15), (2, 2): (28, 7), (3, 2): (50, 8)}


def test_verify_shift_identity_clean():
    for (p, k_max), (checks, _) in LEMMA_CHECKS.items():
        report = verify_shift_identity(listed_histograms(p, k_max))
        assert report.ok, report.mismatches[:5]
        assert report.checks == checks, (p, k_max)


def test_verify_product_decomposition_clean():
    for (p, k_max), (_, checks) in LEMMA_CHECKS.items():
        report = verify_product_decomposition(listed_histograms(p, k_max))
        assert report.ok, report.mismatches[:5]
        assert report.checks == checks, (p, k_max)


def test_listed_histograms_are_the_brute_profile_polynomials():
    hists = listed_histograms(2, 2)
    assert [len(row) for row in hists] == [3, 3, 3]
    for shift, row in enumerate(hists):
        assert row[0] == MultiPoly.constant(3, 1)
        for k in (1, 2):
            spec = WordSpec(2, shift, k)
            word = build_word(spec)
            brute = Counter(leg_profile(pi, word) for pi in enumerate_adapted(spec))
            assert row[k] == MultiPoly(3, brute), (shift, k)
    assert hists[0][2] == limit_moment_poly(2, 2)


@pytest.mark.parametrize("shift,order,first_failure", [(0, 1, 1), (0, 2, 2), (1, 1, 2), (2, 1, 2)])
def test_verify_product_decomposition_catches_a_planted_coefficient(shift, order, first_failure):
    # one profile polynomial off by one: G_0 breaks the left side at its own
    # order, G_1 and G_2 break the right side one order up (the factor x);
    # the coefficient recurrence reads the same table and flags the same order
    hists = listed_histograms(2, 2)
    hists[shift][order] = hists[shift][order] + 1
    report = verify_product_decomposition(hists)
    assert not report.ok
    assert report.mismatches[0].startswith(f"series identity fails at order {first_failure}: ")
    recurrence = [m for m in report.mismatches if not m.startswith("series identity")]
    assert recurrence and recurrence[0].startswith(f"k={first_failure}: ")


@pytest.mark.parametrize("p,k_max,shift,order",
                         [(1, 3, 1, 2), (2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 3, 1)])
def test_verify_shift_identity_catches_a_planted_count(p, k_max, shift, order):
    hists = listed_histograms(p, k_max)
    planted = hists[shift][order]
    profile = max(planted.terms)
    hists[shift][order] = planted + MultiPoly(p + 1, {profile: 1})
    report = verify_shift_identity(hists)
    assert not report.ok
    assert any(m.startswith(f"k={order} shift={shift}: ") for m in report.mismatches)


def test_verify_shift_identity_catches_a_missing_shifted_profile():
    # a monomial gone from H_1 leaves every monomial of d1*H1 matched, so
    # only the comparison from d0*H0 towards d1*H1 can see it
    hists = listed_histograms(2, 2)
    planted = hists[1][2]
    profile = max(planted.terms)
    hists[1][2] = planted - MultiPoly(3, {profile: planted.terms[profile]})
    report = verify_shift_identity(hists)
    assert len(report.mismatches) == 1, report.mismatches
    assert report.mismatches[0].startswith("k=2 shift=1: d0*H0 has ")


def test_verify_shift_identity_catches_a_shifted_profile_with_empty_slot_0():
    hists = listed_histograms(2, 2)
    assert (0, 1, 1) not in hists[1][1].terms
    hists[1][1] = hists[1][1] + MultiPoly(3, {(0, 1, 1): 1})
    report = verify_shift_identity(hists)
    assert report.mismatches == ["k=1 shift=1: d1*H1 has (0, 2, 1) with empty slot 0"]


def test_verify_product_decomposition_catches_an_empty_upper_slot():
    # d1*d2 divides every monomial of the right side, so a base profile
    # with j_1 = 0 has nothing to match in the coefficient check
    hists = listed_histograms(2, 2)
    hists[0][2] = hists[0][2] + MultiPoly(3, {(2, 0, 2): 1})
    report = verify_product_decomposition(hists)
    recurrence = [m for m in report.mismatches if not m.startswith("series identity")]
    assert recurrence == ["k=2: H0 has 1 at (2, 0, 2), d1...dp times the convolution has 0"]


@pytest.mark.parametrize("sweep", [verify_shift_identity, verify_product_decomposition])
@pytest.mark.parametrize("rows", [
    [],  # no shift at all
    [[MultiPoly.constant(2, 1), MultiPoly(2)]],  # p = 0
    [[MultiPoly.constant(2, 1), MultiPoly(2)], [MultiPoly.constant(2, 1)]],  # ragged
    [[], []],  # no order 0
])
def test_sweeps_reject_a_table_of_the_wrong_shape(sweep, rows):
    with pytest.raises(ValueError, match=r"\(p\+1\) x \(k_max\+1\) table"):
        sweep(rows)


def test_lemma_sweeps_never_read_the_interval_count(monkeypatch):
    # the sweeps check the recurrence profile_histogram counts by, so they
    # must stand on brute enumeration alone
    def unavailable(*args, **kwargs):
        raise AssertionError("profile_histogram called from a lemma sweep")

    monkeypatch.setattr(partitions, "profile_histogram", unavailable)
    hists = listed_histograms(2, 2)
    for sweep in (verify_shift_identity, verify_product_decomposition):
        report = sweep(hists)
        assert report.ok and report.checks > 0, report.mismatches[:5]


def test_verify_respects_budget():
    with pytest.raises(BudgetError):
        listed_histograms(3, 3)


@pytest.mark.parametrize("sweep", [verify_shift_identity, verify_product_decomposition])
def test_sweeps_stop_at_the_first_order_over_the_budget(sweep):
    # 2pk = 20 at k = 5 is the first word past 16, and listing names it
    # before either sweep starts
    with pytest.raises(BudgetError, match=r"2\*p\*k = 20 exceeds the enumeration budget 16"):
        sweep(listed_histograms(2, 7, budget=16))


# -- randomized structural checks ----------------------------------------------

@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_adapted_matchings_really_are_adapted(p, k, shift_raw):
    shift = min(shift_raw, p)
    if 2 * p * k > 12:
        k = 12 // (2 * p)
    spec = WordSpec(p, shift, k)
    word = build_word(spec)
    for pi in enumerate_adapted(spec):
        for a, b in pi.blocks():
            assert word[a - 1] == word[b - 1].mate()


@given(st.integers(2, 12).filter(lambda m: m % 2 == 0))
@settings(max_examples=30, deadline=None)
def test_matchings_are_distinct_and_noncrossing(m):
    seen = set()
    for pi in noncrossing_matchings(m):
        assert pi not in seen
        seen.add(pi)
        opened = []
        for i, j in enumerate(pi.match):
            if j > i:
                opened.append(i)
            else:
                assert opened.pop() == j
