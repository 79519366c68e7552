import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamecert import exactarith
from tamecert.boundary import ReducedWord, boundary_sample, loxodromic_rank_arrays, power_limit
from tamecert.cli import run_config
from tamecert.envelope import (
    CircleMetric,
    CodingMetric,
    SampleSet,
    limit_map,
    rotation_sample,
    split_sample,
)
from tamecert.errors import NotStabilizedAcrossResolutions
from tamecert.exactarith import GOLDEN, PointArray, one_sided_approach, orbit_point, point, zero
from tamecert.rank import (
    RankInstance,
    _image_dist,
    _point_dist,
    _stage,
    _unwrap_circular,
    beta_rank,
    build_instance,
    default_schedule,
    naive_beta_rank,
    oscillation,
    prefix_instance,
    system_rank,
    value_instance,
)
from tamecert.systems import MINUS, PLAIN, PLUS, RotationSystem, SplitArray, SplitCircleSystem, SplitPoint

F = Fraction


@pytest.fixture(scope="module")
def sturmian():
    return SplitCircleSystem(GOLDEN)


@pytest.fixture(scope="module")
def st_sample(sturmian):
    return split_sample(sturmian, plain_count=2000, split_range=8, horizon=12)


@pytest.fixture(scope="module")
def p_minus(sturmian, st_sample):
    return limit_map(sturmian, one_sided_approach(zero(GOLDEN), "below", 10), st_sample)


class TestOscillation:
    def test_rotation_bounded_by_ball_diameter(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 300)
        p = limit_map(rot, one_sided_approach(point(GOLDEN, 0, F(1, 3)), "above", 8), rs)
        for x in rs.points[:10]:
            assert oscillation(p, x, rs.points, 0.01) <= 0.02 + 1e-12

    def test_bump_map_oscillates_half(self):
        pool = [F(k, 100) for k in range(100)]
        from tamecert.envelope import ApproxElement, SampleSet

        z = F(1, 2)
        s = SampleSet(pool, lambda x, y: abs(float(x - y)))
        el = ApproxElement(
            system=None, sample=s,
            images=[F(1, 2) if x == z else F(0) for x in pool],
            generator=(0,), backend="exact", tolerance=None, stabilized=True,
        )
        assert oscillation(el, z, pool, 0.02) == pytest.approx(0.5)

    def test_sturmian_discontinuity_sees_split_gap(self, sturmian, st_sample, p_minus):
        x = sturmian.orbit_pt(0, 1)  # the plus point flips under the minus limit
        val = oscillation(p_minus, x, st_sample.points, 2.0 ** -10)
        assert val >= 1.0  # image words differ at coordinate 0


class TestBetaRank:
    def test_rotation_is_one(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 500)
        p = limit_map(rot, one_sided_approach(point(GOLDEN, 0, F(2, 7)), "below", 8), rs)
        t = beta_rank(p, 0.1)
        assert t.beta == 1 and t.stabilized

    def test_sturmian_one_sided_is_two(self, p_minus, st_sample):
        for eps in (0.1, 0.01):
            t = beta_rank(p_minus, eps)
            assert t.beta == 2 and t.stabilized
            assert t.verify_witnesses(build_instance(p_minus))

    def test_translation_is_one(self, sturmian, st_sample):
        for n in (1, 4):
            t = beta_rank(limit_map(sturmian, [n], st_sample), 0.01)
            assert t.beta == 1

    def test_monotone_in_epsilon(self, p_minus):
        betas = [beta_rank(p_minus, eps).beta for eps in (0.01, 0.1, 0.5, 2.1)]
        assert betas == sorted(betas, reverse=True)
        assert betas[-1] == 1  # eps above the metric diameter: nothing oscillates

    def test_matches_naive_oracle_small_samples(self, sturmian):
        small = split_sample(sturmian, plain_count=150, split_range=4, horizon=10)
        cases = []
        for gen in ([2], one_sided_approach(zero(GOLDEN), "below", 10),
                    one_sided_approach(orbit_point(GOLDEN, 1), "above", 10)):
            inst = build_instance(limit_map(sturmian, gen, small))
            cases += [(inst, eps, None) for eps in (0.05, 0.2)]
        # one-column words make each cell a long arc across the 0/1 cut, and a
        # constant image arc lets the coarse first radius reach round the cell
        coarse = split_sample(sturmian, plain_count=150, split_range=4, horizon=0)
        inst = build_instance(limit_map(sturmian, [1], coarse))
        inst = dataclasses.replace(inst, img_positions=np.full(len(inst.points), 0.25))
        cases.append((inst, 0.2, (0.45, 1e-3, 1e-4)))
        for inst, eps, schedule in cases:
            t = beta_rank(inst, eps, r_schedule=schedule)
            nb, nstages = naive_beta_rank(inst, eps, t.schedule)
            assert t.beta == nb
            assert [s.tolist() for s in t.stages] == nstages
            assert t.verify_witnesses(inst)

    def test_prefix_codes_match_naive_oracle(self):
        lox = power_limit(ReducedWord.parse("ab"), depth=8)
        pts = boundary_sample(8, base_length=4, lox=lox)
        P, I = loxodromic_rank_arrays(lox, pts)
        assert np.unique(P).size == 4  # letter codes 0..3, not a binary word
        inst = prefix_instance(pts, P, I)
        for eps in (0.1, 0.3, 0.6):
            t = beta_rank(inst, eps, raise_on_unstable=False)
            nb, nstages = naive_beta_rank(inst, eps, t.schedule)
            assert t.beta == nb
            assert [s.tolist() for s in t.stages] == nstages
            assert t.verify_witnesses(inst)

    def test_circle_matches_naive_oracle(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 60)
        p = limit_map(rot, one_sided_approach(point(GOLDEN, 0, F(1, 3)), "above", 8), rs)
        inst = build_instance(p)
        # the default schedule, and a coarse first stage that every point survives
        for eps, schedule in ((0.1, None), (0.1, (0.3, 0.02, 0.005))):
            t = beta_rank(inst, eps, r_schedule=schedule)
            nb, nstages = naive_beta_rank(inst, eps, t.schedule)
            assert t.beta == nb
            assert [s.tolist() for s in t.stages] == nstages
            assert t.verify_witnesses(inst)

    def test_uint8_words_measure_like_float(self, sturmian):
        # 0/1 words are stored as uint8; a distance that subtracted them
        # unconverted would read 0 - 1 as 255
        small = split_sample(sturmian, plain_count=60, split_range=3, horizon=6)
        inst = build_instance(limit_map(sturmian, one_sided_approach(zero(GOLDEN), "below", 10), small))
        assert inst.words.dtype == inst.img_words.dtype == np.uint8
        wide = dataclasses.replace(
            inst, words=inst.words.astype(np.float64), img_words=inst.img_words.astype(np.float64)
        )
        n = len(inst.points)
        for i in range(n):
            for j in range(n):
                assert _image_dist(inst, i, j) == _image_dist(wide, i, j)
                assert _point_dist(inst, i, j) == _point_dist(wide, i, j)

    def test_bump_map_rank_two(self):
        # mesh must stay below the finest rerun's stage-one radius (eps/32)
        pool = [F(k, 1000) for k in range(1000)]
        vals = [float(x) for x in pool]
        imgs = [[0.5 if x == F(1, 2) else 0.0] for x in pool]
        inst = value_instance(pool, vals, imgs)
        t = beta_rank(inst, 0.1)
        assert t.beta == 2
        nb, _ = naive_beta_rank(inst, 0.1, t.schedule)
        assert nb == 2
        assert t.verify_witnesses(inst)

    def test_unstable_raises(self):
        # a constant-image instance never oscillates: stable rank 1; force
        # instability with a schedule whose coarse stage is above the diameter
        pool = [F(k, 50) for k in range(50)]
        imgs = [[float(x)] for x in pool]
        inst = value_instance(pool, [float(x) for x in pool], imgs)
        with pytest.raises(NotStabilizedAcrossResolutions):
            # stage-one radius so large that the identity map's window spread
            # exceeds eps at scale 1.0 but not at scale 0.25
            beta_rank(inst, 0.5, r_schedule=(0.35, 1e-4, 1e-5))

    def test_schedule_must_decrease(self, p_minus):
        with pytest.raises(ValueError):
            beta_rank(p_minus, 0.1, r_schedule=(0.1, 0.2))

    @pytest.mark.parametrize("plain_count", [100, 200, 300, 400])
    def test_sparse_rotation_sample_gets_a_decreasing_schedule(self, plain_count):
        # at eps 0.01 the half gap of fewer than ~400 points reaches eps / 8
        params = {"system": "rotation", "plain_count": plain_count, "epsilons": [0.1, 0.01]}
        report, code = run_config({"experiments": [{"kind": "rank", "params": params}]})
        assert code == 0
        assert [row["beta"] for row in report["results"][0]["result"]["table"]] == [1, 1]

    def test_default_schedule_keeps_the_gap_stages_below_eps(self, p_minus):
        inst = build_instance(p_minus)
        g = inst.separation_gap()
        assert g / 2 < 0.01 / 8
        assert default_schedule(inst, 0.01) == (0.01 / 8, g / 2, g / 8)
        assert default_schedule(inst, 8 * g) == (g, g / 2, g / 8)
        assert default_schedule(inst, 4 * g) == (g / 2, g / 4, g / 16)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, float("nan"), float("inf")])
    def test_epsilon_must_be_positive_and_finite(self, p_minus, epsilon):
        with pytest.raises(ValueError, match="positive and finite"):
            beta_rank(p_minus, epsilon)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cylinder_ids_match_unique_rows(data):
    n = data.draw(st.integers(1, 40))
    width = data.draw(st.integers(1, 6))
    symbols = data.draw(st.sampled_from([2, 4]))  # split words, prefix codes
    dtype = data.draw(st.sampled_from([np.uint8, np.float64]))
    cells = data.draw(st.lists(st.integers(0, symbols - 1), min_size=n * width, max_size=n * width))
    words = np.asarray(cells, dtype=dtype).reshape(n, width)
    inst = RankInstance("prefix", range(n), words, words, 2.0 ** -np.arange(width))
    for key_width in range(width + 1):
        ids = inst.cylinder_ids(key_width)
        if key_width == 0:
            want = np.zeros(n, dtype=np.int64)
        else:
            want = np.unique(words[:, :key_width], axis=0, return_inverse=True)[1].ravel()
        assert ids.dtype == np.int64 and ids.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# the one-pass stage
# ---------------------------------------------------------------------------


def _split_instance(words, img_words, positions, img_positions, horizon):
    weights = 2.0 ** -np.abs(np.arange(-horizon, horizon + 1, dtype=np.float64))
    return RankInstance("split", range(len(positions)), np.asarray(words, dtype=np.uint8),
                        np.asarray(img_words, dtype=np.uint8), weights,
                        np.asarray(positions, dtype=np.float64),
                        np.asarray(img_positions, dtype=np.float64))


class TestStage:
    @pytest.mark.parametrize("horizon, plain_count", [(6, 120), (40, 80)])
    def test_split_stages_match_naive_oracle(self, sturmian, horizon, plain_count):
        small = split_sample(sturmian, plain_count=plain_count, split_range=4, horizon=horizon)
        el = limit_map(sturmian, one_sided_approach(zero(GOLDEN), "below", 10), small)
        inst = build_instance(el)
        assert inst.image_bits[0].shape[1] == -(-(2 * horizon + 1) // 63)
        # a coarse first radius reaches across the 0/1 cut inside a cylinder
        schedule = (0.02, 1e-3, 1e-4)
        r = schedule[0]
        ids = inst.cylinder_ids(inst.words.shape[1])
        sizes = np.bincount(ids)
        # several cylinders; lone points only at the long horizon
        assert (sizes >= 2).sum() >= 2 and (sizes == 1).any() == (horizon == 40)
        near_cut = (inst.positions <= r) | (inst.positions >= 1 - r)
        assert (sizes[ids[near_cut]] >= 2).any()
        for eps in (2.0 ** -horizon, 0.05):
            t = beta_rank(inst, eps, r_schedule=schedule, raise_on_unstable=False)
            nb, nstages = naive_beta_rank(inst, eps, t.schedule)
            assert t.beta == nb
            assert [s.tolist() for s in t.stages] == nstages
            assert t.verify_witnesses(inst)

    def test_witness_takes_the_first_widest_word_column(self):
        # h = 2: columns 0 and 4 both weigh 1/4, and column 0 comes first;
        # their first max/min rows differ, so the pair names the column
        img = np.zeros((4, 5), dtype=np.uint8)
        img[:, 0] = [0, 1, 1, 0]
        img[:, 4] = [1, 0, 0, 1]
        pos = [0.1, 0.1001, 0.1003, 0.1004]
        active = np.arange(4)

        def stage(img_pos, radius=0.01):
            inst = _split_instance(np.zeros((4, 5)), img, pos, img_pos, horizon=2)
            return _stage(inst, active, radius, 0.25)

        survivors, witness = stage([0.3] * 4)
        assert survivors.tolist() == [0, 1, 2, 3]
        assert witness == {i: (1, 0) for i in range(4)}
        # an image arc as wide as the word weight: the word column still wins
        assert stage([0.25, 0.375, 0.375, 0.5])[1] == {i: (1, 0) for i in range(4)}
        # a wider arc is the witness: its first max row, its first min row
        assert stage([0.625, 0.25, 0.25, 0.625])[1] == {i: (0, 1) for i in range(4)}
        # a smaller radius splits the ball: rows 0-1 and rows 2-3
        survivors, witness = stage([0.625, 0.25, 0.25, 0.625], radius=0.00015)
        assert survivors.tolist() == [0, 1, 2, 3]
        assert witness == {0: (0, 1), 1: (0, 1), 2: (3, 2), 3: (3, 2)}

    def test_witness_reads_the_second_packed_column(self):
        # h = 40: the columns h -/+ 35 sit at bits 69 and 70, in the second
        # 63-bit column; both weigh 2^-35, and h - 35 comes first
        h = 40
        img = np.zeros((3, 2 * h + 1), dtype=np.uint8)
        img[:, h - 35] = [1, 0, 1]
        img[:, h + 35] = [0, 0, 1]
        inst = _split_instance(np.zeros((3, 2 * h + 1)), img, [0.5, 0.5, 0.5], [0.5] * 3, h)
        survivors, witness = _stage(inst, np.arange(3), 1e-3, 2.0 ** -35)
        assert survivors.tolist() == [0, 1, 2]
        assert witness == {i: (0, 1) for i in range(3)}
        assert _stage(inst, np.arange(3), 1e-3, 2.0 ** -34)[0].size == 0
        # without column h - 35 the tie goes to h + 35
        img[:, h - 35] = 0
        inst = _split_instance(np.zeros((3, 2 * h + 1)), img, [0.5, 0.5, 0.5], [0.5] * 3, h)
        assert _stage(inst, np.arange(3), 1e-3, 2.0 ** -35)[1] == {i: (2, 0) for i in range(3)}

    # (cylinder key, image position in eighths, active) per point
    @settings(max_examples=80, deadline=None)
    @given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7), st.booleans()),
                          min_size=1, max_size=12))
    @example(cells=[(0, 0, True), (0, 3, True), (0, 6, True)])  # spans 5/8
    @example(cells=[(0, 0, True), (0, 4, True), (1, 2, True)])  # exactly half, and a lone point
    @example(cells=[(0, 0, True), (0, 3, False), (0, 6, True), (1, 1, True)])  # inactive middle
    @example(cells=[(0, 0, True), (1, 4, True), (1, 7, False), (2, 2, True)])  # lone actives
    def test_half_circle_check_per_cylinder(self, cells):
        keys, eighths, flags = (np.asarray(c) for c in zip(*cells))
        n = keys.size
        active = np.flatnonzero(flags) if flags.any() else np.arange(n)
        words = np.zeros((n, 3), dtype=np.uint8)
        words[:, 0], words[:, 2] = keys & 1, keys >> 1
        img_pos = eighths / 8
        inst = _split_instance(words, np.zeros((n, 3)), np.linspace(0.1, 0.9, n), img_pos, 1)
        # the rule, one cylinder of the active points at a time
        want = np.zeros(active.size)
        too_wide = False
        for key in set(keys[active].tolist()):
            at = np.flatnonzero(keys[active] == key)
            if at.size >= 2:
                want[at] = _unwrap_oracle(img_pos[active[at]])
                too_wide |= float(want[at].max() - want[at].min()) > 0.5
        if too_wide:
            with pytest.raises(ValueError, match="half circle"):
                _stage(inst, active, 0.05, 0.1)
        else:
            _stage(inst, active, 0.05, 0.1)
            got = _unwrap_circular(img_pos[active], inst.cylinder_ids(3)[active])
            assert got.tolist() == want.tolist()


def _unwrap_oracle(vals):
    """The largest-gap re-anchoring of one cylinder's image positions."""
    sp = np.sort(vals)
    gaps = np.diff(sp)
    if gaps.size and float(gaps.max()) > 1.0 - (sp[-1] - sp[0]):
        return (vals - sp[int(gaps.argmax()) + 1]) % 1.0
    return (vals - sp[0]) % 1.0


class TestOtherRotationNumber:
    def test_sqrt2_one_sided_rank_two(self):
        from tamecert.exactarith import SQRT2_MINUS_1 as S2

        sys_ = SplitCircleSystem(S2)
        sample = split_sample(sys_, plain_count=2000, split_range=6, horizon=12)
        p = limit_map(sys_, one_sided_approach(zero(S2), "above", 10), sample)
        assert beta_rank(p, 0.05).beta == 2
        assert beta_rank(limit_map(sys_, [2], sample), 0.05).beta == 1


class TestSystemRank:
    def test_rotation_family_rank_one(self):
        rot = RotationSystem(GOLDEN)
        rs = rotation_sample(rot, 400)
        fam = {
            "R_1/3": limit_map(rot, one_sided_approach(point(GOLDEN, 0, F(1, 3)), "above", 8), rs),
            "R_2/5": limit_map(rot, one_sided_approach(point(GOLDEN, 0, F(2, 5)), "below", 8), rs),
            "T^3": limit_map(rot, [3], rs),
        }
        sr = system_rank(fam, 0.05)
        assert sr.beta == 1

    def test_sturmian_family_rank_two(self, sturmian, st_sample):
        fam = {"T^1": limit_map(sturmian, [1], st_sample)}
        for n, side in ((0, "below"), (0, "above"), (3, "below")):
            fam[f"p_{n}{side}"] = limit_map(
                sturmian, one_sided_approach(orbit_point(GOLDEN, n), side, 10), st_sample
            )
        sr = system_rank(fam, 0.01)
        assert sr.beta == 2
        assert sr.witness.startswith("p_")
        assert sr.traces["T^1"].beta == 1


class TestBoundaryRank:
    def test_loxodromic_rank_two(self):
        lox = power_limit(ReducedWord.parse("ab"), depth=16)
        pts = boundary_sample(16, base_length=5, lox=lox)
        P, I = loxodromic_rank_arrays(lox, pts)
        inst = prefix_instance(pts, P, I)
        for eps in (0.1, 0.01):
            t = beta_rank(inst, eps)
            assert t.beta == 2 and t.stabilized

    def test_parabolic_boundary_rank_one(self):
        # constant map to the attracting word: continuous, rank 1
        lox = power_limit(ReducedWord.parse("ba"), depth=12)
        pts = boundary_sample(12, base_length=4)
        from tamecert.boundary import word_codes

        P = word_codes(pts, 12)
        I = np.tile(word_codes([lox.attracting], 12), (len(pts), 1))
        inst = prefix_instance(pts, P, I)
        assert beta_rank(inst, 0.1).beta == 1

    def test_mixed_boundary_family_rank_two(self):
        # parabolic (rank 1) + loxodromic (rank 2) members: supremum 2
        from tamecert.boundary import word_codes

        lox = power_limit(ReducedWord.parse("ab"), depth=14)
        pts = boundary_sample(14, base_length=4, lox=lox)
        P, I = loxodromic_rank_arrays(lox, pts)
        parab = np.tile(word_codes([lox.attracting], 14), (len(pts), 1))
        fam = {
            "parabolic": prefix_instance(pts, P, parab),
            "loxodromic": prefix_instance(pts, P, I),
        }
        sr = system_rank(fam, 0.05)
        assert sr.beta == 2 and sr.witness == "loxodromic"
        assert sr.traces["parabolic"].beta == 1


# ---------------------------------------------------------------------------
# point-array instances against the per-point path
# ---------------------------------------------------------------------------

# the rank-sturmian and rank-rotation experiments of the rank-sweep benchmark
RANK_RUNS = [
    {"kind": "rank", "params": {"system": "sturmian", "plain_count": 10_000, "horizon": 12}},
    {"kind": "rank", "params": {"system": "rotation", "plain_count": 2000}},
]


def _per_point_sample(system, plain_count, horizon):
    """split_sample (split range 8) or rotation_sample as a list of point objects."""
    alpha = system.alpha
    if isinstance(system, RotationSystem):
        return SampleSet([point(alpha, 0, F(k, plain_count + 1)) for k in range(plain_count + 1)],
                         CircleMetric())
    pts = [SplitPoint(point(alpha, 0, F(k, plain_count + 1)), PLAIN)
           for k in range(1, plain_count + 1)]
    for n in range(-8, 9):
        pts += [system.orbit_pt(n, MINUS), system.orbit_pt(n, PLUS)]
    return SampleSet(pts, CodingMetric(system, horizon))


def _per_point_arrays(rule, sample) -> dict:
    """The arrays of build_instance, from the rule's images one point at a time."""
    pts = sample.points
    imgs = [rule(x) for x in pts]
    if isinstance(sample.metric, CodingMetric):
        pos = np.array([x.base.as_float() for x in pts])
        img_pos = np.array([x.base.as_float() for x in imgs])
        return {"words": sample.metric.words(pts, pos), "positions": pos,
                "img_words": sample.metric.words(imgs, img_pos), "img_positions": img_pos}
    pos = np.array([x.as_float() for x in pts])
    img_pos = np.array([x.as_float() for x in imgs])
    turn = 2 * np.pi * img_pos
    return {"words": None, "positions": pos, "img_positions": img_pos,
            "img_words": np.stack([np.sin(turn), np.cos(turn)], axis=1) / (2 * np.pi)}


@pytest.mark.parametrize("run", RANK_RUNS, ids=["sturmian", "rotation"])
def test_array_instances_equal_per_point_instances(run):
    params = run["params"]
    split = params["system"] == "sturmian"
    system = SplitCircleSystem(GOLDEN) if split else RotationSystem(GOLDEN)
    count = params["plain_count"]
    sample = (split_sample(system, plain_count=count, split_range=8, horizon=12) if split
              else rotation_sample(system, count))
    oracle = _per_point_sample(system, count, 12)
    assert sample.points == oracle.points
    gens = ([[1], [3], one_sided_approach(zero(GOLDEN), "below", 10)] if split
            else [one_sided_approach(point(GOLDEN, 0, F(1, 3)), "above", 8), [2]])
    for gen in gens:
        el = limit_map(system, gen, sample)
        got = build_instance(el)
        for name, want in _per_point_arrays(el.rule, oracle).items():
            have = getattr(got, name)
            if want is None:
                assert have is None
            else:
                assert have.dtype == want.dtype and np.array_equal(have, want), name


def test_rank_runs_screen_every_point_and_build_no_point_list(monkeypatch):
    rows = []
    exact_rows = exactarith._exact_rows

    def counted(alpha, a, num, den):
        rows.extend(a)
        return exact_rows(alpha, a, num, den)

    def built(arr):
        raise AssertionError(f"a rank run built every point of a {type(arr).__name__}")

    monkeypatch.setattr(exactarith, "_exact_rows", counted)
    for cls in (PointArray, SplitArray):
        monkeypatch.setattr(cls, "objects", property(built))
    report, code = run_config({"experiments": RANK_RUNS})
    assert code == 0 and [r["result"]["sample_size"] for r in report["results"]] == [10_034, 2001]
    # of ~32k sample points and images one is decided exactly: T^3 of 1536/10001,
    # 3*alpha + 1536/10001 - 2, lies 1.5e-22 from a float64 rounding boundary
    assert rows == [3]
