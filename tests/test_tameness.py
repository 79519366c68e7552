import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamecert._kernels as K
from tamecert.errors import BudgetExceeded
from tamecert.exactarith import GOLDEN
from tamecert.systems import CutProjectCoding, SplitCircleSystem, full_shift_word
from tamecert.tameness import (
    IndependenceCertificate,
    complexity,
    decode_masks,
    encode_masks,
    exhaustive_max_independence,
    factor_masks,
    growth_report,
    max_independence,
)


@pytest.fixture(scope="module")
def sturmian_word():
    sys_ = SplitCircleSystem(GOLDEN)
    return sys_.word(sys_.orbit_pt(0, 1), 10_000)


def _rows(word, windows):
    """The {L: row} table a caller of growth_report holds after its searches."""
    out = {}
    for L in windows:
        cert = max_independence(word, L)
        out[L] = {"complexity": cert.complexity, "independence": cert.size}
    return out


def _char_string(mask: int, width: int) -> str:
    """Per-character oracle for encode_masks: character j is bit j."""
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(width))


class TestComplexity:
    def test_full_shift(self):
        assert complexity(full_shift_word(8), 5)[5] == 32

    def test_sturmian_L_plus_1(self, sturmian_word):
        prof = complexity(sturmian_word, 10)
        assert prof[10] == 11  # classical p(L) = L+1

    def test_periodic(self):
        word = np.tile([1, 0, 0], 400)
        prof = complexity(word, 6)
        for ell in range(3, 7):
            assert prof[ell] == 3

    def test_counts_monotone_and_binary_bounded(self, sturmian_word):
        prof = complexity(sturmian_word, 12)
        for ell in range(1, 12):
            assert prof[ell] <= prof[ell + 1] <= 2 * prof[ell]

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            complexity(np.zeros(50, dtype=np.uint8), 10)


class TestIndependence:
    def test_full_shift_all_positions(self):
        cert = max_independence(full_shift_word(10), 10)
        assert cert.positions == tuple(range(10))
        assert len(cert.witnesses) == 2**10
        assert cert.verify(full_shift_word(10))

    def test_sturmian_within_counting_bound(self, sturmian_word):
        import math

        cert = max_independence(sturmian_word, 20)
        assert cert.size <= math.ceil(math.log2(21))
        assert cert.verify(sturmian_word)

    def test_branch_and_bound_equals_exhaustive(self, sturmian_word):
        cantor = CutProjectCoding(GOLDEN, cantor_generation=4).word(20_000)
        rng = np.random.RandomState(0)
        noisy = rng.randint(0, 2, size=4000)
        for word in (sturmian_word, cantor, noisy, np.tile([1, 0, 0], 400)):
            for L in (6, 9, 12):
                bb = max_independence(word, L)
                ex = exhaustive_max_independence(word, L)
                assert bb.positions == ex

    def test_monotone_in_window(self, sturmian_word):
        cantor = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000)
        prev = 0
        for L in (8, 12, 16, 20):
            size = max_independence(cantor, L).size
            assert size >= prev
            prev = size

    def test_budget_exceeded_carries_best(self):
        with pytest.raises(BudgetExceeded) as exc:
            max_independence(full_shift_word(16), 16, node_budget=5)
        best = exc.value.best
        assert isinstance(best, IndependenceCertificate)
        assert not best.exhausted
        assert best.verify(full_shift_word(16))

    def test_certificate_tamper_detected(self, sturmian_word):
        cert = max_independence(sturmian_word, 8)
        bad = IndependenceCertificate(
            cert.window,
            cert.positions,
            {p: ("1" * 8) for p in cert.witnesses},
            cert.horizon,
            cert.exhausted,
        )
        assert not bad.verify(sturmian_word)
        # a word that shows its pattern but is not a factor of the coding
        factors = set(encode_masks(factor_masks(sturmian_word, 8), 8))
        pattern, _ = next(iter(cert.witnesses.items()))
        forged = next(
            w for w in encode_masks(np.arange(256), 8)
            if w not in factors and "".join(w[p] for p in cert.positions) == pattern
        )
        outside = IndependenceCertificate(
            cert.window,
            cert.positions,
            {**cert.witnesses, pattern: forged},
            cert.horizon,
            cert.exhausted,
        )
        assert not outside.verify(sturmian_word)

    def test_positions_outside_window_rejected(self, sturmian_word):
        cert = max_independence(sturmian_word, 8)
        assert cert.positions == (0, 2)
        assert cert.verify(sturmian_word)
        for positions in ((0, -6), (-8, 2), (0, 8), (2, 0), (0, 0), (0, 2.0)):
            moved = IndependenceCertificate(
                cert.window, positions, cert.witnesses, cert.horizon, cert.exhausted
            )
            assert not moved.verify(sturmian_word), positions

    def test_non_binary_witness_rejected(self, sturmian_word):
        cert = max_independence(sturmian_word, 8)
        pattern, factor = next(iter(cert.witnesses.items()))
        for bad_pattern, bad_factor in (
            (pattern, "2" + factor[1:]),
            (pattern, "\u00e9" + factor[1:]),
            (pattern, factor + "0"),
            (pattern, factor[:-1]),
            ("x" + pattern[1:], factor),
        ):
            witnesses = {p: f for p, f in cert.witnesses.items() if p != pattern}
            witnesses[bad_pattern] = bad_factor
            bad = IndependenceCertificate(
                cert.window, cert.positions, witnesses, cert.horizon, cert.exhausted
            )
            assert not bad.verify(sturmian_word), (bad_pattern, bad_factor)

    def test_complexity_is_factor_count(self, sturmian_word):
        cert = max_independence(sturmian_word, 12)
        assert cert.complexity == complexity(sturmian_word, 12)[12] == 13
        wrong = IndependenceCertificate(
            cert.window, cert.positions, cert.witnesses, cert.horizon, cert.exhausted, 14
        )
        assert not wrong.verify(sturmian_word)

    def test_single_factor_word_has_empty_pattern(self):
        word = np.zeros(100, dtype=np.int64)
        cert = max_independence(word, 6)
        assert cert.positions == ()
        assert cert.witnesses == {"": "000000"}
        assert cert.verify(word)


class TestGrowth:
    def test_sturmian_bounded_log(self, sturmian_word):
        rep = growth_report(_rows(sturmian_word, [6, 10, 14]))
        assert rep.classification == "bounded_log"

    def test_full_shift_growing(self):
        rep = growth_report(_rows(full_shift_word(12), [4, 6, 8]))
        assert rep.classification == "growing"

    def test_periodic_bounded(self):
        rep = growth_report(_rows(np.tile([1, 0, 0], 500), [3, 6, 9]))
        assert rep.classification == "bounded_log"
        assert all(row["independence"] <= 2 for row in rep.table.values())


def test_kernel_names_stay_bound():
    """perfbench reads these names: it reports the backend and wraps each
    kernel where ``tamecert._kernels`` binds it, skipping ``backends()``."""
    assert K.BACKEND == "fallback"
    assert K.speedups is None
    assert K.backends() == {"fallback": K.fallback}
    for name in ("extract_factors", "project_masks", "distinct_projection_count",
                 "window_oscillation"):
        assert getattr(K, name) is getattr(K.fallback, name)


def _factor_oracle(word, length):
    """Sorted distinct windows, read symbol by symbol: bit j is word[i + j]."""
    return sorted({sum(int(word[i + j]) << j for j in range(length))
                   for i in range(len(word) - length + 1)})


@settings(max_examples=60, deadline=None)
@given(word=st.lists(st.integers(0, 1), max_size=150),
       length=st.one_of(st.integers(1, 24), st.integers(25, 62)))
@example(word=[1, 0, 1], length=5)  # shorter than one window
@example(word=[], length=1)
@example(word=[0, 1] * 20, length=24)  # widest bitmap table
@example(word=[0, 1, 1] * 30, length=25)  # narrowest np.unique window
@example(word=list(full_shift_word(6)), length=6)  # every pattern: the whole table
def test_extract_factors_matches_bruteforce(word, length):
    got = K.extract_factors(np.asarray(word, dtype=np.int64), length)
    assert got.dtype == np.int64 and got.tolist() == _factor_oracle(word, length)


@pytest.mark.parametrize("length", [0, -1, 63])
def test_extract_factors_rejects_length(length):
    with pytest.raises(ValueError, match="1..62"):
        K.extract_factors(np.zeros(100, dtype=np.int64), length)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.integers(0, (1 << 62) - 1), max_size=30),
       positions=st.lists(st.integers(0, 61), unique=True, max_size=24))
@example(factors=[0b1011_0110_1101, (1 << 62) - 1, 0, 1 << 61],
         positions=[0, 1, 2, 5, 7, 8, 9, 61])  # runs and gaps
@example(factors=[0b1011_0110_1101, (1 << 62) - 1, 0], positions=[3, 4, 5, 6])  # one run
@example(factors=[0b1011_0110_1101, 5], positions=[])
def test_project_masks_matches_bruteforce(factors, positions):
    want = [sum(((f >> p) & 1) << j for j, p in enumerate(positions)) for f in factors]
    got = K.project_masks(np.asarray(factors, dtype=np.int64), np.asarray(positions, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_projection_count_matches_bruteforce(data):
    L = data.draw(st.integers(2, 8))
    if data.draw(st.booleans()):  # every pattern occurs: the count fills the whole table
        word, k = full_shift_word(L), L
    else:
        word = data.draw(st.lists(st.integers(0, 1), min_size=64, max_size=200))
        k = data.draw(st.integers(1, L))
    positions = tuple(sorted(data.draw(
        st.sets(st.integers(0, L - 1), min_size=k, max_size=k))))
    factors = factor_masks(np.asarray(word), L)
    brute = {tuple((int(f) >> p) & 1 for p in positions) for f in factors}
    assert K.distinct_projection_count(factors, np.asarray(positions, dtype=np.int64)) == len(brute)


def _oscillation_oracle(values, radius, images, weights):
    """Per-point oracle for window_oscillation: max/min of each column over the ball."""
    out = []
    for x in values:
        block = images[np.abs(values - x) <= radius]
        out.append(np.max((block.max(axis=0) - block.min(axis=0)) * weights))
    return np.asarray(out, dtype=np.float64)


@st.composite
def _oscillation_cases(draw):
    # dyadic values and radii keep every ball boundary exact; values on a
    # 1/8 grid in [0, 2] repeat often, and 8.0 exceeds the whole span
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    values = np.sort(np.asarray(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 8)
    radius = draw(st.sampled_from([0.0, 0.125, 0.375, 1.0, 8.0]))
    cells = draw(st.lists(st.floats(-4, 4), min_size=n * m, max_size=n * m))
    weights = draw(st.lists(st.floats(0, 4), min_size=m, max_size=m))
    return values, radius, np.asarray(cells, dtype=np.float64).reshape(n, m), np.asarray(weights)


@settings(max_examples=80, deadline=None)
@given(case=_oscillation_cases())
@example(case=(np.empty(0), 0.125, np.empty((0, 2)), np.ones(2)))
@example(case=(np.array([0.5]), 0.0, np.array([[1.0, -2.0]]), np.array([1.0, 3.0])))
@example(case=(np.array([0.0, 0.25, 0.25, 1.0]), 0.0, np.array([[0.0], [2.0], [-1.0], [5.0]]),
               np.array([0.5])))
@example(case=(np.array([0.0, 0.5, 1.0]), 8.0, np.array([[0.0, 1.0], [3.0, 1.0], [1.0, 0.0]]),
               np.array([0.25, 2.0])))
def test_window_oscillation_matches_bruteforce(case):
    values, radius, images, weights = case
    want = _oscillation_oracle(values, radius, images, weights)
    got = K.window_oscillation(values, radius, images, weights)
    assert got.dtype == np.float64 and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_codec_matches_per_character_oracle(data):
    width = data.draw(st.integers(0, 24))
    masks = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    strings = encode_masks(np.asarray(masks, dtype=np.int64), width)
    assert strings == [_char_string(m, width) for m in masks]
    decoded = decode_masks(strings, width)
    assert decoded.dtype == np.int64 and decoded.tolist() == masks


def test_mask_string_round_trip():
    masks = [0, 1, 0b1011, 0b111111]
    strings = encode_masks(masks, 6)
    assert [int(s[::-1], 2) for s in strings] == masks
    assert decode_masks(strings, 6).tolist() == masks
    assert decode_masks(["01011"], 6) is None
    assert decode_masks(["010112"], 6) is None
