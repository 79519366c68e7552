import random

import pytest

from tamecert.boundary import (
    BoundaryPoint,
    IDENTITY,
    LoxodromicLimit,
    ReducedWord,
    all_reduced_words,
    boundary_action,
    boundary_sample,
    inverse_letter,
    periodic_point,
    power_limit,
    reduce_letters,
)
from tamecert.errors import DepthExhausted

W = ReducedWord.parse


class TestReduce:
    def test_cancellation(self):
        assert reduce_letters("aA") == ()
        assert str(W("ab") * W("Ba")) == "aa"
        assert str(W("B") * W("bab")) == "ab"

    def test_reduction_idempotent(self):
        rng = random.Random(0)
        for _ in range(100):
            letters = [rng.choice("abAB") for _ in range(rng.randint(0, 12))]
            red = reduce_letters(letters)
            assert reduce_letters(red) == red

    def test_minimal_length_against_bruteforce(self):
        # reduced length equals the metric word length in the free group
        rng = random.Random(1)
        for _ in range(50):
            u = [rng.choice("abAB") for _ in range(6)]
            red = reduce_letters(u)
            # rebuilding letter by letter never goes below the stack length
            assert len(red) <= 6 and (6 - len(red)) % 2 == 0

    def test_inverse_and_power(self):
        g = W("abA")
        assert str(g * g.inverse()) == "e"
        assert g.power(3) == g * g * g
        assert g.power(-2) == (g * g).inverse()

    def test_cyclic_reduce(self):
        conj, core = W("abbA").cyclic_reduce()
        assert str(conj) == "a" and str(core) == "bb"
        conj2, core2 = W("ab").cyclic_reduce()
        assert str(conj2) == "e" and str(core2) == "ab"
        # b (ab) b^-1 collapses to the rotation ba, already cyclically reduced
        conj3, core3 = (W("b") * W("ab") * W("B")).cyclic_reduce()
        assert str(conj3) == "e" and str(core3) == "ba"

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            reduce_letters("abx")
        for bad in ("abx", ("a", "c")):
            with pytest.raises(ValueError, match="not in"):
                ReducedWord(tuple(bad))
        with pytest.raises(ValueError, match="not in"):
            W("ab A")

    def test_construction_reduces(self):
        assert ReducedWord(("a", "A")) == IDENTITY
        assert ReducedWord(tuple("abBA")) == IDENTITY
        assert ReducedWord(tuple("aabBb")).letters == ("a", "a", "b")
        assert W("abBA") == IDENTITY
        # a boundary prefix is a truncation, not a group element: it is never re-reduced
        with pytest.raises(ValueError, match="reduced"):
            BoundaryPoint.parse("abBa")


@pytest.mark.parametrize("depth", [0, 1, 3, 5, 16, 40])
def test_periodic_point_matches_rereduced_word(depth):
    # one reference re-reduces the whole word for every period it appends,
    # the other pushes every copy one letter at a time; periodic_point appends
    # whole copies once the word ends in a cyclically reduced period
    def reference(prefix, period):
        letters = prefix.letters
        while len(letters) < depth + len(period):
            letters = reduce_letters(letters + period.letters)
        return letters[:depth]

    def letter_by_letter(prefix, period):
        letters = list(prefix.letters)
        while len(letters) < depth + len(period):
            for c in period.letters:
                if letters and letters[-1] == inverse_letter(c):
                    letters.pop()
                else:
                    letters.append(c)
        return tuple(letters[:depth])

    words = [w for n in range(4) for w in all_reduced_words(n)]
    for prefix in words:
        for period in words[1:]:
            got = periodic_point(prefix, period, depth).prefix
            assert got == reference(prefix, period) == letter_by_letter(prefix, period)


class TestBoundaryAction:
    def test_identity_fixes(self):
        w = periodic_point(W("ab"), W("ab"), 10)
        assert boundary_action(IDENTITY, w).prefix == w.prefix

    def test_hand_cancellation(self):
        w = BoundaryPoint.parse("BBBBBBBB")
        out = boundary_action(W("ab"), w)
        assert str(out) == "aBBBBBBB"

    def test_shift_into_itself(self):
        w = BoundaryPoint.parse("aaaaaaaa")
        out = boundary_action(W("a"), w, 8)
        assert str(out) == "aaaaaaaa"

    def test_depth_exhausted(self):
        w = BoundaryPoint.parse("ab")
        with pytest.raises(DepthExhausted):
            boundary_action(W("BABA"), w)

    def test_group_law(self):
        rng = random.Random(5)
        for _ in range(40):
            g1 = ReducedWord(reduce_letters(rng.choices("abAB", k=4)))
            g2 = ReducedWord(reduce_letters(rng.choices("abAB", k=4)))
            w = periodic_point(W("ba"), W("ba"), 30)
            try:
                lhs = boundary_action(g1, boundary_action(g2, w))
                rhs = boundary_action(g1 * g2, w)
            except DepthExhausted:
                continue
            k = min(len(lhs.prefix), len(rhs.prefix), 16)
            assert lhs.prefix[:k] == rhs.prefix[:k]


class TestPowerLimit:
    def test_ab_pair(self):
        lim = power_limit(W("ab"), depth=16)
        assert str(lim.attracting) == "ab" * 8
        assert str(lim.repulsing) == "BA" * 8

    def test_single_letter(self):
        lim = power_limit(W("a"), depth=12)
        assert str(lim.attracting) == "a" * 12
        assert str(lim.repulsing) == "A" * 12

    def test_conjugate_core(self):
        lim = power_limit(W("b") * W("ab") * W("B"), depth=16)
        assert str(lim.attracting).startswith("bababa")

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            power_limit(IDENTITY)

    def test_probe_convergence_contract(self):
        rng = random.Random(9)
        lim = power_limit(W("aB"), depth=14)
        gn = W("aB").power(64)
        hits = 0
        for w in all_reduced_words(4):
            probe = periodic_point(w, w, 200)
            if probe.prefix[:14] == lim.repulsing.prefix:
                moved = boundary_action(gn, probe, 14)
                assert moved.prefix == lim.repulsing.prefix
            else:
                moved = boundary_action(gn, probe, 14)
                assert moved.prefix == lim.attracting.prefix
                hits += 1
        assert hits >= 100


class TestSample:
    def test_sample_contains_limit_pair(self):
        lox = power_limit(W("ab"), depth=12)
        pts = boundary_sample(12, base_length=4, lox=lox)
        prefixes = {p.prefix for p in pts}
        assert lox.attracting.prefix in prefixes
        assert lox.repulsing.prefix in prefixes
