import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tamecert._kernels as K
from tamecert import tameness
from tamecert.errors import BudgetExceeded
from tamecert.exactarith import GOLDEN
from tamecert.systems import CutProjectCoding, SplitCircleSystem, full_shift_word
from tamecert.tameness import (
    IndependenceCertificate,
    complexity,
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
        cantor6 = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000)
        for L in (8, 12):
            bb = max_independence(cantor6, L)
            assert bb.positions == exhaustive_max_independence(cantor6, L)

    def test_smallest_class_cuts_a_subtree(self, monkeypatch):
        # bits 4..7 take all 16 patterns and bits 0 and 1 are each set in one
        # more factor: {0} and {1} are shattered, but each has a class of one
        # factor, so no superset of either can be, while the remaining
        # positions (7 and 6) and the root bound 2^4 <= 18 factors would not cut
        hand = np.array(sorted([m << 4 for m in range(16)] + [0b01, 0b10]), dtype=np.int64)
        monkeypatch.setattr(tameness, "factor_masks", lambda word, window: hand)
        word = np.zeros(80, dtype=np.int64)  # only its length is read
        cert = max_independence(word, 8)
        assert cert.positions == (4, 5, 6, 7)
        # 0..4 at the root, then 5, 6 and 7 on the way to (4, 5, 6, 7): the
        # children of {0} and {1} were cut untested (without the class bound, 21)
        assert cert.nodes == 8
        assert exhaustive_max_independence(word, 8) == cert.positions
        assert all(tameness._covers(hand, (p,)) for p in (0, 1, 4))

    def test_monotone_in_window(self, sturmian_word):
        cantor = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000)
        prev = 0
        for L in (8, 12, 16, 20):
            size = max_independence(cantor, L).size
            assert size >= prev
            prev = size

    def test_budget_exceeded_carries_best(self):
        # a full shift needs no search, so the budget is spent on a word that searches
        cantor = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000)
        with pytest.raises(BudgetExceeded) as exc:
            max_independence(cantor, 12, node_budget=5)
        best = exc.value.best
        assert isinstance(best, IndependenceCertificate)
        assert best.size > 0 and not best.exhausted
        assert best.verify(cantor)

    def test_search_shape_is_pinned(self, sturmian_word):
        # candidate tests per window and the best set at each budget cut, counted
        # when each child was tested by the projection kernel: the same tests in
        # the same order keep node_budget's meaning
        cantor6 = CutProjectCoding(GOLDEN, cantor_generation=6).word(100_000)
        for word, nodes, positions in ((cantor6, [36, 207, 659, 1580], (0, 1, 3, 6)),
                                       (sturmian_word, [22, 147, 370, 772], (0, 2))):
            certs = [max_independence(word, L) for L in (8, 12, 16, 20)]
            assert [c.nodes for c in certs] == nodes
            assert all(c.positions == positions and c.exhausted for c in certs)
        for budget, best in ((0, ()), (1, (0,)), (4, (0, 1, 3)), (206, (0, 1, 3, 6))):
            with pytest.raises(BudgetExceeded) as exc:
                max_independence(cantor6, 12, node_budget=budget)
            cut = exc.value.best
            assert (cut.positions, cut.nodes, cut.exhausted) == (best, budget, False)
        cert = max_independence(cantor6, 12, node_budget=207)
        assert (cert.positions, cert.nodes, cert.exhausted) == ((0, 1, 3, 6), 207, True)
        assert IndependenceCertificate.from_payload(cert.payload()).nodes is None
        assert "nodes" not in cert.payload()

    def test_kernel_refusal_stops_the_search_result(self, monkeypatch):
        # the search and the projection kernel decide shattering independently;
        # a result the kernel refuses is raised, on an exhausted run and on a cut
        cantor = CutProjectCoding(GOLDEN, cantor_generation=4).word(20_000)
        monkeypatch.setattr(K, "distinct_projection_count", lambda factors, positions: 0)
        for budget in (5_000_000, 3):
            with pytest.raises(RuntimeError, match="does not cover"):
                max_independence(cantor, 9, node_budget=budget)

    def test_full_shift_runs_no_search(self, monkeypatch):
        original, calls = K.distinct_projection_count, []
        monkeypatch.setattr(K, "distinct_projection_count",
                            lambda *args: calls.append(args) or original(*args))
        for L in (6, 9, 12):  # from 6 up, a full-shift word meets the horizon rule
            word = full_shift_word(L)
            cert = max_independence(word, L, node_budget=0)
            assert calls == [] and cert.nodes == 0
            assert cert.positions == tuple(range(L)) and cert.exhausted
            assert cert.witnesses.tolist() == list(range(2**L))
            assert cert.verify(word) and len(calls) == 1  # verify counts the patterns once
            calls.clear()
        # the patched kernel is the one a search calls, in its final covering check
        max_independence(np.tile([1, 0, 0], 400), 6)
        assert calls

    def test_power_of_two_factor_count_keeps_pattern_order(self):
        # the order-3 de Bruijn cycle shows 8 factors of length 6, a power of two
        # below 2^6, and its witnesses in pattern order are not the sorted factors
        word = np.tile([0, 0, 0, 1, 0, 1, 1, 1], 60)
        factors = factor_masks(word, 6)
        cert = max_independence(word, 6)
        assert len(factors) == 8 and cert.positions == (0, 1, 2)
        assert cert.witnesses.tolist() == _witness_oracle(factors, cert.positions)
        assert cert.witnesses.tolist() == [40, 17, 58, 35, 52, 29, 14, 7]
        assert cert.witnesses.tolist() != factors.tolist()
        assert cert.verify(word)

    @pytest.mark.parametrize("window, accepted", [(0, False), (20, True), (24, True),
                                                  (25, False), (30, False)])
    def test_verify_applies_the_window_range(self, window, accepted):
        from tamecert.cli import _source_word, verify_certificate

        source, horizon = {"kind": "periodic", "pattern": [0, 1, 1]}, 400
        word = _source_word(source, horizon)
        # position 0 shows both symbols; the factor kernel takes windows up to 62
        # bits, so only verify's window range can reject 25 and 30
        positions = [0] if window else []
        cert = {"kind": "independence", "source": source, "window": window,
                "horizon": horizon, "positions": positions, "exhausted": True}
        assert verify_certificate(cert) is accepted
        if window:  # the certificate is sound apart from the window range
            assert IndependenceCertificate.from_payload(cert).verify(word)

    def test_positions_outside_window_rejected(self, sturmian_word):
        cert = max_independence(sturmian_word, 8)
        assert cert.positions == (0, 2)
        assert cert.verify(sturmian_word)
        for positions in ((0, -6), (-8, 2), (0, 8), (2, 0), (0, 0), (0, 2.0), (True, 3)):
            moved = IndependenceCertificate(cert.window, positions, None, cert.horizon,
                                            cert.exhausted)
            assert not moved.verify(sturmian_word), positions
        # (1, 3) is shattered too, so only the type check rejects True in its place
        assert IndependenceCertificate(cert.window, (1, 3), None, cert.horizon,
                                       cert.exhausted).verify(sturmian_word)

    def test_complexity_is_factor_count(self, sturmian_word):
        cert = max_independence(sturmian_word, 12)
        assert cert.complexity == complexity(sturmian_word, 12)[12] == 13
        wrong = IndependenceCertificate(
            cert.window, cert.positions, cert.witnesses, cert.horizon, cert.exhausted, 14
        )
        assert not wrong.verify(sturmian_word)

    def test_uint8_word_and_its_int64_copy_agree(self, sturmian_word):
        cantor = CutProjectCoding(GOLDEN, cantor_generation=6).word(20_000)
        for word in (sturmian_word, cantor):
            wide = word.astype(np.int64)
            assert word.dtype == np.uint8
            for L in (8, 12, 16):
                narrow, copy = max_independence(word, L), max_independence(wide, L)
                assert narrow.payload() == copy.payload()
                assert narrow.complexity == copy.complexity
                assert narrow.witnesses.tolist() == copy.witnesses.tolist()
                # the found set verifies; one more position exceeds the maximum and fails
                extra = min(set(range(L)) - set(narrow.positions))
                for positions in (narrow.positions, tuple(sorted(narrow.positions + (extra,)))):
                    cert = IndependenceCertificate.from_payload(
                        dict(narrow.payload(), positions=list(positions)))
                    assert cert.verify(word) == cert.verify(wide) == (positions == narrow.positions)

    def test_single_factor_word_has_empty_pattern(self):
        word = np.zeros(100, dtype=np.int64)
        cert = max_independence(word, 6)
        assert cert.positions == ()
        assert cert.witnesses.tolist() == [0]
        assert cert.payload() == {"window": 6, "horizon": 100, "positions": [],
                                  "exhausted": True}
        assert cert.verify(word)
        assert IndependenceCertificate.from_payload(cert.payload()).verify(word)


def _witness_oracle(factors, positions):
    """For each pattern on the positions, in increasing order, its smallest factor."""
    smallest = {}
    for f in sorted(int(f) for f in factors):
        smallest.setdefault(sum(((f >> p) & 1) << j for j, p in enumerate(positions)), f)
    return [smallest[i] for i in range(1 << len(positions))]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_matches_exhaustive_and_witness_oracle(data):
    L = data.draw(st.integers(3, 10))
    if data.draw(st.booleans()):
        word = data.draw(st.lists(st.integers(0, 1), min_size=10 * L, max_size=400))
    else:  # long enough that p(L) is at or near 2^L
        seed = data.draw(st.integers(0, 2**32 - 1))
        size = data.draw(st.integers(max(1 << L, 10 * L), 8 << L))
        word = np.random.default_rng(seed).integers(0, 2, size=size)
    word = np.asarray(word, dtype=np.int64)
    cert = max_independence(word, L)
    assert cert.exhausted
    assert cert.positions == exhaustive_max_independence(word, L)
    assert cert.witnesses.tolist() == _witness_oracle(factor_masks(word, L), cert.positions)
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
@example(word=list(full_shift_word(6)), length=32)  # widest uint32 mask
@example(word=list(full_shift_word(6)), length=33)  # narrowest uint64 mask
@example(word=[1] * 70, length=62)  # every bit of the widest mask set
def test_extract_factors_matches_bruteforce(word, length):
    want = _factor_oracle(word, length)
    for dtype in (np.int64, np.uint8, np.bool_):  # the codings' words are uint8 or bool
        w = np.asarray(word, dtype=dtype)
        w.flags.writeable = False  # as cli._word hands words out
        got = K.extract_factors(w, length)
        assert got.dtype == np.int64 and got.tolist() == want


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
@example(factors=[0b1011_0110_1101, (1 << 62) - 1, 0], positions=[9, 0, 1, 2])  # left shift
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


def _oscillation_oracle(values, radius, images, weights, segments=None, bits=None,
                        bit_weights=None):
    """Per-point oracle for window_oscillation: max/min of each column, and
    each bit that is both set and clear, over the ball."""
    seg = np.zeros(values.size) if segments is None else segments
    out = []
    for x, s in zip(values, seg):
        ball = (np.abs(values - x) <= radius) & (seg == s)
        block = images[ball]
        osc = np.max((block.max(axis=0) - block.min(axis=0)) * weights)
        for k, w in enumerate([] if bits is None else bit_weights):
            column = (bits[ball, k // 63] >> (k % 63)) & 1
            if column.min() != column.max():
                osc = max(osc, w)
        out.append(osc)
    return np.asarray(out, dtype=np.float64)


@st.composite
def _oscillation_cases(draw):
    # dyadic values and radii keep every ball boundary exact; values on a
    # 1/8 grid in [0, 2] repeat often, and 8.0 exceeds the whole span
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    values = np.asarray(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 8
    radius = draw(st.sampled_from([0.0, 0.125, 0.375, 1.0, 8.0]))
    cells = draw(st.lists(st.floats(-4, 4), min_size=n * m, max_size=n * m))
    weights = draw(st.lists(st.floats(0, 4), min_size=m, max_size=m))
    case = [np.sort(values), radius, np.asarray(cells, dtype=np.float64).reshape(n, m),
            np.asarray(weights)]
    if draw(st.booleans()):
        # rows ordered by (segment, value); equal values in two segments
        segments = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        order = np.lexsort((values, segments))
        case[0] = values[order]
        extra = [segments[order]]
        if draw(st.booleans()):
            # packed bit columns: bit k weighs bit_weights[k], non-increasing
            # in k; a second column when there are more than 63 weights
            nbits = draw(st.sampled_from([1, 5, 63, 70, 126]))
            cols = -(-nbits // 63)
            words = draw(st.lists(st.integers(0, (1 << 63) - 1), min_size=n * cols,
                                  max_size=n * cols))
            bits = np.asarray(words, dtype=np.int64).reshape(n, cols)
            for c in range(cols):  # bits past the last weight stay clear
                bits[:, c] &= (1 << min(63, nbits - 63 * c)) - 1
            # sparse bits, so that a bit often holds one value over a ball
            for c in range(cols):
                bits[:, c] &= np.asarray(draw(st.lists(
                    st.integers(0, (1 << 63) - 1), min_size=n, max_size=n)), dtype=np.int64)
            bit_weights = -np.sort(-np.asarray(draw(st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0]), min_size=nbits, max_size=nbits))))
            extra += [bits, bit_weights]
        case += extra
    return tuple(case)


@settings(max_examples=120, deadline=None)
@given(case=_oscillation_cases())
@example(case=(np.empty(0), 0.125, np.empty((0, 2)), np.ones(2)))
@example(case=(np.array([0.5]), 0.0, np.array([[1.0, -2.0]]), np.array([1.0, 3.0])))
@example(case=(np.array([0.0, 0.25, 0.25, 1.0]), 0.0, np.array([[0.0], [2.0], [-1.0], [5.0]]),
               np.array([0.5])))
@example(case=(np.array([0.0, 0.5, 1.0]), 8.0, np.array([[0.0, 1.0], [3.0, 1.0], [1.0, 0.0]]),
               np.array([0.25, 2.0])))
# a ball stops at its segment although the next value is within the radius
@example(case=(np.array([0.0, 0.125, 0.0, 0.125]), 1.0, np.array([[0.0], [1.0], [5.0], [7.0]]),
               np.array([1.0]), np.array([0, 0, 1, 1])))
# bit 64 (second column) weighs as much as bit 63 but only it varies
@example(case=(np.array([0.0, 0.25, 0.5]), 0.25, np.zeros((3, 1)), np.ones(1),
               np.zeros(3, dtype=np.int64),
               np.array([[0, 2], [0, 0], [0, 2]], dtype=np.int64),
               np.r_[np.full(63, 4.0), 2.0, 2.0]))
def test_window_oscillation_matches_bruteforce(case):
    want = _oscillation_oracle(*case)
    got = K.window_oscillation(*case)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    # ``rows`` (passed positionally, after the optional arguments) picks rows
    # of the full result, in any order and with repeats
    n = want.size
    padded = case + (None,) * (7 - len(case))
    for rows in (np.arange(n), np.arange(n)[1::2], np.arange(n)[::-3], np.arange(n) // 2,
                 np.empty(0, dtype=np.int64)):
        got = K.window_oscillation(*padded, rows)
        assert got.dtype == np.float64 and np.array_equal(got, want[rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K.fallback, "_QUERY_BLOCK", 3)  # several blocks of balls per level
        assert np.array_equal(K.window_oscillation(*case), want)
        assert np.array_equal(K.window_oscillation(*padded, np.arange(n)[::-1]), want[::-1])


def _ball_oracle(values, radius, segments):
    """Per row, the first and one past the last row of its segment whose
    value is within the radius, by a scan of every row."""
    lo, hi = [], []
    for vi, si in zip(values, segments):
        inside = [k for k, (v, s) in enumerate(zip(values, segments))
                  if s == si and vi - radius <= v <= vi + radius]
        lo.append(inside[0])
        hi.append(inside[-1] + 1)
    return np.asarray(lo), np.asarray(hi)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ball_bounds_match_bruteforce(data):
    n = data.draw(st.integers(1, 30))
    # values on a 1/8 grid and dyadic radii: v +- radius lands exactly on values
    values = np.asarray(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 8
    segments = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    radius = data.draw(st.sampled_from([0.0, 0.125, 0.25, 0.5, 4.0]))
    order = np.lexsort((values, segments))
    values, segments = values[order], segments[order]
    lo, hi = _ball_oracle(values, radius, segments)
    got = K.ball_bounds(values, radius, segments)
    assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)
    rows = np.asarray(data.draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.int64)
    got = K.ball_bounds(values, radius, segments, rows)
    assert np.array_equal(got[0], lo[rows]) and np.array_equal(got[1], hi[rows])
    one = np.zeros(n, dtype=np.int64)  # no segments: one segment
    lo, hi = _ball_oracle(np.sort(values), radius, one)
    got = K.ball_bounds(np.sort(values), radius)
    assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)


def test_ball_bounds_stop_at_segment_edges_and_keep_ties():
    values = np.array([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
    segments = np.array([0, 0, 0, 1, 1, 1])
    lo, hi = K.ball_bounds(values, 0.25, segments)
    # 0.5 in segment 0 reaches 0.25 (tie) but not the equal 0.5 of segment 1
    assert lo.tolist() == [0, 0, 1, 3, 3, 4]
    assert hi.tolist() == [2, 3, 3, 5, 6, 6]
