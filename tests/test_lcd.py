"""Lattice distance, growth thresholds, certified LCD search."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lofo.concentration import WeightVector
from lofo.lcd import (
    dist_to_lattice,
    f_threshold,
    lcd,
    log_plus_threshold,
    verify_lattice_clearance,
)

# The module itself: the package re-exports the function lcd under its name.
LCD = sys.modules["lofo.lcd"]


def dense_scan_oracle(a, thr, t_lo, t_hi, pitch, chunk=1 << 14):
    """First grid point where dist < thr(t); pitch-resolution oracle.

    thr must be nondecreasing, so within a chunk only points below the
    chunk's last threshold can cross; those are confirmed in grid order with
    the scalar threshold.  Array distances equal scalar ones bit for bit.
    """
    ts = np.arange(t_lo, t_hi, pitch)
    for start in range(0, ts.size, chunk):
        block = ts[start:start + chunk]
        d = dist_to_lattice(block, a)
        for k in np.flatnonzero(d < thr(block[-1])):
            if d[k] < thr(block[k]):
                return block[k]
    return None


# ---------------------------------------------------------------------------
# dist_to_lattice
# ---------------------------------------------------------------------------


def test_dist_integer_vector_at_integers():
    a = WeightVector([2.0, -3.0, 7.0])
    for k in range(-3, 4):
        assert dist_to_lattice(float(k), a) == 0.0


def test_dist_small_t_linear_regime():
    a = WeightVector([0.6, 0.8])
    # |t| <= 1/(2 ||a||_inf): every coordinate rounds to zero.
    assert dist_to_lattice(0.5, a) == pytest.approx(0.5, abs=1e-15)
    assert dist_to_lattice(-0.5, a) == pytest.approx(0.5, abs=1e-15)


def test_dist_scalar_example():
    a = WeightVector([1.0])
    assert dist_to_lattice(0.9, a) == pytest.approx(0.1, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**31),
)
def test_dist_bounds_and_lipschitz(t, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = WeightVector(rng.normal(size=n) + 1e-3)
    d = dist_to_lattice(t, a)
    assert 0.0 <= d <= math.sqrt(n) / 2.0 + 1e-12
    dt = float(rng.uniform(-0.3, 0.3))
    assert abs(dist_to_lattice(t + dt, a) - d) <= a.norm2 * abs(dt) + 1e-12


def test_dist_linear_exactly_below_half_supnorm():
    rng = np.random.default_rng(4)
    for _ in range(40):
        a = WeightVector(rng.uniform(0.1, 2.0, rng.integers(1, 7)))
        t = float(rng.uniform(0.0, 0.5 / a.norm_inf))
        assert dist_to_lattice(t, a) == pytest.approx(t * a.norm2, rel=1e-12, abs=1e-13)


def test_dist_rejects_2d_t():
    with pytest.raises(ValueError):
        dist_to_lattice(np.ones((2, 2)), WeightVector([1.0, 2.0]))


def _copysign_dist(t, coords):
    """dist(t a, Z^n) written with signed rounding, as a reference form."""
    y = t * coords
    d = y - np.copysign(np.floor(np.abs(y) + 0.5), y)
    return math.sqrt(np.dot(d, d))


@settings(max_examples=80, deadline=None)
@given(
    ts=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=12),
    n=st.integers(1, 40),
    zero_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_dist_array_form_equals_scalar_bitwise(ts, n, zero_share, seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    coords[rng.random(n) < zero_share] = 0.0
    rows = dist_to_lattice(np.array(ts), coords)
    assert rows.shape == (len(ts),)
    for t, d in zip(ts, rows.tolist()):
        assert d.hex() == dist_to_lattice(t, coords).hex() == _copysign_dist(t, coords).hex()


def test_dist_array_form_memory_is_one_block():
    """20,000 t at n = 512: the temporaries stay at one block of rows beside
    the 160 kB result (three whole k x n arrays would take 245 MB)."""
    rng = np.random.default_rng(5)
    coords = rng.normal(size=512)
    ts = rng.uniform(-1e3, 1e3, 20_000)
    tracemalloc.start()
    try:
        rows = dist_to_lattice(ts, coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert [d.hex() for d in rows.tolist()] == [
        dist_to_lattice(t, coords).hex() for t in ts.tolist()
    ]


def test_dist_exact_near_two_to_the_52():
    """In [2^52, 2^53), t + 0.5 rounds to even, so rounding by floor(t + 0.5)
    read an odd integer t as distance 1; just below 0.5 it read 0.5."""
    a = WeightVector([1.0])
    cases = [
        (2.0**52 + 1, 0.0),
        (3 * 2.0**51 + 1, 0.0),
        (2.0**53 - 1, 0.0),
        (0.49999999999999994, 0.49999999999999994),
    ]
    rows = dist_to_lattice(np.array([t for t, _ in cases]), a).tolist()
    for (t, want), row in zip(cases, rows):
        assert dist_to_lattice(t, a).hex() == row.hex() == want.hex()


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, 7, 16, 64, 96, 128, 448, 512, 4097, 40_000]),
    batch=st.sampled_from(["1", "rows - 1", "rows", "rows + 1", "3 rows + 5"]),
    seed=st.integers(0, 2**31),
)
@example(n=0, batch="3 rows + 5", seed=0)
@example(n=40_000, batch="rows - 1", seed=0)
@example(n=16, batch="3 rows + 5", seed=0)
@example(n=448, batch="rows + 1", seed=0)
def test_dist_array_form_equals_scalar_across_blocks(n, batch, seed):
    """Batches around the block's row count, one-row blocks (n = 4097 has 7
    rows, n = 40,000 one), rows shorter and longer than the 16-entry ufunc
    buffer, empty batches and an empty vector are bitwise the scalar form."""
    rows = max(1, LCD._BLOCK_ENTRIES // max(n, 1))
    k = {"1": 1, "rows - 1": rows - 1, "rows": rows, "rows + 1": rows + 1,
         "3 rows + 5": 3 * rows + 5}[batch]
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=n)
    ts = rng.uniform(-1e3, 1e3, k) * 10.0 ** rng.uniform(-3, 3, k)
    got = dist_to_lattice(ts, coords)
    assert got.shape == (k,)
    assert [d.hex() for d in got.tolist()] == [
        dist_to_lattice(t, coords).hex() for t in ts.tolist()
    ]


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


def test_f_threshold_branches():
    assert f_threshold(3.0, 10.0) == pytest.approx(0.5)
    assert f_threshold(math.e, 1.0) == pytest.approx(1.0)
    assert f_threshold(math.e**2, 1.0) == pytest.approx(math.sqrt(2.0))


def test_f_threshold_jump_at_branch_point():
    L = 1.3
    t = math.e * L
    below = f_threshold(t * (1 - 1e-12), L)
    at = f_threshold(t, L)
    assert below == pytest.approx(math.e * L / 6.0, rel=1e-9)
    assert at == pytest.approx(L, rel=1e-6)
    assert at > below


def test_log_plus_threshold_values():
    assert log_plus_threshold(0.5, 1.0) == 0.0
    assert log_plus_threshold(1.0, 1.0) == 0.0
    assert log_plus_threshold(math.e * 2.0, 2.0) == pytest.approx(2.0)
    assert log_plus_threshold(2.0 * math.e**2, 2.0) == pytest.approx(2.0 * math.sqrt(2.0))


@settings(max_examples=50, deadline=None)
@given(
    L=st.floats(0.05, 20.0),
    t1=st.floats(1e-3, 1e4),
    t2=st.floats(1e-3, 1e4),
)
def test_thresholds_nondecreasing(L, t1, t2):
    lo, hi = sorted((t1, t2))
    assert f_threshold(lo, L) <= f_threshold(hi, L) + 1e-12
    assert log_plus_threshold(lo, L) <= log_plus_threshold(hi, L) + 1e-12


# ---------------------------------------------------------------------------
# lcd
# ---------------------------------------------------------------------------


def test_lcd_scalar_six_sevenths():
    res = lcd(WeightVector([1.0]), 1.0, "d_star", tol=1e-6)
    assert res.value == pytest.approx(6.0 / 7.0, abs=1e-6)
    assert res.error_radius <= 1e-6
    assert res.witness_t <= res.value + res.error_radius + 1e-15
    d = dist_to_lattice(res.witness_t, WeightVector([1.0]))
    assert d < f_threshold(res.witness_t, 1.0)
    assert res.gaps == ()


def test_lcd_scalar_matches_dense_oracle():
    a = WeightVector([1.0])
    res = lcd(a, 1.0, "d_star", tol=1e-6)
    first = dense_scan_oracle(a, lambda t: f_threshold(t * a.norm2, 1.0), 0.5, 1.2, 1e-7)
    assert first is not None
    assert abs(res.value - first) <= 2e-6


def test_lcd_scaling_covariance():
    base = lcd(WeightVector([1.0]), 1.0, "d_star", tol=1e-8)
    for lam in (0.5, 2.0, 10.0):
        scaled = lcd(WeightVector([lam]), 1.0, "d_star", tol=1e-8)
        assert scaled.value == pytest.approx(base.value / lam, rel=1e-6)


def test_lcd_permutation_and_sign_invariance():
    rng = np.random.default_rng(8)
    coords = rng.uniform(0.2, 1.0, 5)
    a = WeightVector(coords)
    res = lcd(a, 1.5, "d_star", tol=1e-7)
    for perm_seed in range(3):
        perm = np.random.default_rng(perm_seed).permutation(5)
        signs = np.where(np.random.default_rng(perm_seed + 50).random(5) < 0.5, -1.0, 1.0)
        res2 = lcd(WeightVector(coords[perm] * signs), 1.5, "d_star", tol=1e-7)
        assert res2.value == pytest.approx(res.value, abs=3e-7)


def test_lcd_lower_bound_invariants():
    rng = np.random.default_rng(14)
    for _ in range(15):
        a = WeightVector(rng.uniform(0.1, 1.5, rng.integers(1, 6)))
        res = lcd(a, 1.0, "d_star", tol=1e-6)
        assert res.value >= 0.5 / a.norm_inf - res.error_radius - 1e-12
        assert res.t_start == pytest.approx(0.5 / a.norm_inf)
        assert res.t_max > res.value


def test_lcd_variant_d_exceeds_L():
    rng = np.random.default_rng(19)
    for _ in range(10):
        coords = rng.normal(size=4)
        a = WeightVector(coords / np.linalg.norm(coords))
        L = float(rng.uniform(0.2, 0.8))
        res = lcd(a, L, "d", tol=1e-6)
        assert res.value >= L - 1e-12
        assert res.value >= 0.5 / a.norm_inf - res.error_radius - 1e-9
        # The witness genuinely satisfies the defining inequality.
        assert dist_to_lattice(res.witness_t, a) < log_plus_threshold(res.witness_t, L)


def test_lcd_variant_d_matches_dense_oracle():
    # a = (1), L = 0.9: dist = 1 - t falls while the log+ threshold rises
    # steeply from t = L, so the crossing sits just above L.
    a = WeightVector([1.0])
    res = lcd(a, 0.9, "d", tol=1e-8)
    crossing = dense_scan_oracle(a, lambda t: log_plus_threshold(t, 0.9), 0.9, 1.0, 1e-7)
    assert crossing is not None
    assert abs(res.value - crossing) <= 2e-7


def test_lcd_sparse_vectors_bracket():
    ratios = {}
    for s in (4, 16, 64, 256):
        a = WeightVector(np.full(s, s**-0.5))
        res = lcd(a, 2.0, "d_star", tol=1e-8)
        ratios[s] = res.value / math.sqrt(s)
    assert ratios[4] == pytest.approx(12.0 / 7.0 / 2.0, abs=1e-6)  # t/6 branch crossing
    for r in ratios.values():
        assert 0.73 <= r <= 0.87


def test_lcd_rejects_bad_args():
    a = WeightVector([1.0])
    with pytest.raises(ValueError):
        lcd(a, 0.0, "d_star")
    with pytest.raises(ValueError):
        lcd(a, 1.0, "bogus")
    with pytest.raises(ValueError):
        lcd(a, 1.0, "d_star", tol=0.0)


# ---------------------------------------------------------------------------
# Clearance verification
# ---------------------------------------------------------------------------


def test_clearance_boundary_point_passes():
    rng = np.random.default_rng(23)
    for _ in range(10):
        coords = rng.normal(size=5)
        a = WeightVector(coords / np.linalg.norm(coords))
        rep = verify_lattice_clearance(a, 1.0, 0.5 / a.norm_inf)
        assert rep.passed and not rep.vacuous


def test_clearance_scalar_pass_fail():
    a = WeightVector([1.0])
    ok = verify_lattice_clearance(a, 1.0, 0.8)
    assert ok.passed
    bad = verify_lattice_clearance(a, 1.0, 0.95)
    assert not bad.passed
    assert 6.0 / 7.0 <= bad.violation_t <= 0.95
    d = dist_to_lattice(bad.violation_t, a)
    assert d < f_threshold(bad.violation_t * a.norm2, 1.0)


def test_clearance_consistent_with_lcd():
    rng = np.random.default_rng(31)
    for _ in range(8):
        coords = rng.normal(size=3)
        a = WeightVector(coords / np.linalg.norm(coords))
        res = lcd(a, 1.0, "d_star", tol=1e-8)
        rep = verify_lattice_clearance(a, 1.0, res.value - 1e-6)
        assert rep.passed
        rep2 = verify_lattice_clearance(a, 1.0, res.witness_t + 1e-9)
        assert not rep2.passed


def test_clearance_vacuous_and_validation():
    a = WeightVector([1.0])
    rep = verify_lattice_clearance(a, 1.0, 0.25)
    assert rep.passed and rep.vacuous
    with pytest.raises(ValueError):
        verify_lattice_clearance(WeightVector([2.0]), 1.0, 1.0)


@pytest.mark.parametrize("L,D", [
    (2.0, math.inf), (math.inf, 5.0), (math.inf, math.inf),
    (math.nan, 5.0), (2.0, math.nan), (0.0, 5.0), (2.0, -1.0),
])
def test_clearance_rejects_nonfinite_or_nonpositive(L, D):
    with pytest.raises(ValueError):
        verify_lattice_clearance(WeightVector([0.6, 0.8]), L, D)


# ---------------------------------------------------------------------------
# Frozen outputs
# ---------------------------------------------------------------------------

# LcdResult.to_json() and ClearanceReport.to_json() as the one-point-at-a-time
# scan produced them (repr floats).  The scan must reproduce every bit:
# bracket, witness, evaluation count and gaps.


def _gaussian_unit(n):
    v = np.random.default_rng(n).normal(size=n)
    return WeightVector(v / np.linalg.norm(v))


def _sparse(s):
    return WeightVector(np.full(s, s**-0.5))


GOLDEN_LCD_INPUTS = {
    **{
        f"gauss{n}_{variant}": (lambda n=n: _gaussian_unit(n), 2.0, variant, 1e-8)
        for n in (16, 64, 256, 512)
        for variant in ("d_star", "d")
    },
    **{f"sparse{s}": (lambda s=s: _sparse(s), 2.0, "d_star", 1e-8) for s in (4, 16, 64, 256)},
    "one_d_star": (lambda: WeightVector([1.0]), 1.0, "d_star", 1e-6),
    "one_d": (lambda: WeightVector([1.0]), 0.9, "d", 1e-8),
}

GOLDEN_CLEARANCE_INPUTS = {
    "clear_one": (lambda: WeightVector([1.0]), 1.0, 0.95),
    "clear_gauss16": (lambda: _gaussian_unit(16), 2.0, 5.0),
    "clear_gauss256": (lambda: _gaussian_unit(256), 2.0, 300.0),
}

GOLDEN_LCD = {
    "gauss16_d_star": {
        "value": 5.436563655292895,
        "error_radius": 2.085994488254528e-09,
        "witness_t": 5.43656365737889,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 0.9569290359681569,
        "t_max": 5.436569093481746,
        "n_evals": 38,
        "gaps": [],
    },
    "gauss16_d": {
        "value": 3.1225326078655034,
        "error_radius": 2.000346555064425e-09,
        "witness_t": 3.12253260986585,
        "L": 2.0,
        "variant": "d",
        "t_start": 2.0,
        "t_max": 5.436569093481746,
        "n_evals": 48,
        "gaps": [
            [3.1225326078655034, 3.1225326094657806],
        ],
    },
    "gauss64_d_star": {
        "value": 7.120122585891346,
        "error_radius": 3.922966840264053e-09,
        "witness_t": 7.120122589814313,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 1.362688088894832,
        "t_max": 109.19640926258853,
        "n_evals": 108,
        "gaps": [
            [7.120122585891346, 7.120122587460534],
            [7.120122587460534, 7.12012258902972],
        ],
    },
    "gauss64_d": {
        "value": 7.120122586235462,
        "error_radius": 3.5098040029879485e-09,
        "witness_t": 7.120122589745266,
        "L": 2.0,
        "variant": "d",
        "t_start": 2.0,
        "t_max": 109.19640926258853,
        "n_evals": 110,
        "gaps": [
            [7.120122586235462, 7.120122587795375],
            [7.120122587795375, 7.120122589355288],
        ],
    },
    "gauss256_d_star": {
        "value": 331.1810409284509,
        "error_radius": 4.4888338379678316e-08,
        "witness_t": 331.18104097333924,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 2.345219614850912,
        "t_max": 17772238.813236784,
        "n_evals": 1487,
        "gaps": [
            [331.1810409284509, 331.181040930424],
            [331.181040930424, 331.1810409323971],
            [331.1810409323971, 331.18104093437023],
            [331.18104093437023, 331.1810409363434],
            [331.1810409363434, 331.18104093831647],
            [331.18104093831647, 331.18104094028956],
            [331.18104094028956, 331.1810409422627],
            [331.1810409422627, 331.18104094423586],
            [331.18104094423586, 331.18104094620895],
            [331.18104094620895, 331.18104094818204],
            [331.18104094818204, 331.1810409501552],
            [331.1810409501552, 331.1810409521283],
            [331.1810409521283, 331.1810409541014],
            [331.1810409541014, 331.1810409560745],
            [331.1810409560745, 331.1810409580476],
            [331.1810409580476, 331.1810409600207],
            [331.1810409600207, 331.18104096199386],
            [331.18104096199386, 331.18104096396695],
            [331.18104096396695, 331.18104096594004],
            [331.18104096594004, 331.1810409679132],
            [331.1810409679132, 331.1810409698863],
            [331.1810409698863, 331.1810409718594],
        ],
    },
    "gauss256_d": {
        "value": 331.1810409281302,
        "error_radius": 4.538162556855241e-08,
        "witness_t": 331.1810409735118,
        "L": 2.0,
        "variant": "d",
        "t_start": 2.0,
        "t_max": 17772238.813236784,
        "n_evals": 1488,
        "gaps": [
            [331.1810409281302, 331.1810409301033],
            [331.1810409301033, 331.18104093207637],
            [331.18104093207637, 331.1810409340495],
            [331.1810409340495, 331.18104093602267],
            [331.18104093602267, 331.18104093799576],
            [331.18104093799576, 331.18104093996885],
            [331.18104093996885, 331.181040941942],
            [331.181040941942, 331.18104094391515],
            [331.18104094391515, 331.18104094588824],
            [331.18104094588824, 331.18104094786133],
            [331.18104094786133, 331.1810409498345],
            [331.1810409498345, 331.18104095180763],
            [331.18104095180763, 331.1810409537807],
            [331.1810409537807, 331.1810409557538],
            [331.1810409557538, 331.18104095772696],
            [331.18104095772696, 331.18104095970006],
            [331.18104095970006, 331.18104096167315],
            [331.18104096167315, 331.1810409636463],
            [331.1810409636463, 331.1810409656194],
            [331.1810409656194, 331.1810409675925],
            [331.1810409675925, 331.18104096956563],
            [331.18104096956563, 331.1810409715387],
        ],
    },
    "gauss512_d_star": {
        "value": 21066.90237565947,
        "error_radius": 1.04482751339674e-08,
        "witness_t": 21066.902375669917,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 3.559009449546633,
        "t_max": 157926078291281.72,
        "n_evals": 23372,
        "gaps": [
            [21066.90237565947, 21066.902375661557],
            [21066.902375661557, 21066.90237566365],
            [21066.90237566365, 21066.90237566574],
            [21066.90237566574, 21066.90237566783],
        ],
    },
    "gauss512_d": {
        "value": 21066.902375660917,
        "error_radius": 8.883944246917963e-09,
        "witness_t": 21066.9023756698,
        "L": 2.0,
        "variant": "d",
        "t_start": 2.0,
        "t_max": 157926078291281.72,
        "n_evals": 23386,
        "gaps": [
            [21066.902375660917, 21066.902375663005],
            [21066.902375663005, 21066.902375665093],
            [21066.902375665093, 21066.902375667185],
            [21066.902375667185, 21066.902375669277],
        ],
    },
    "sparse4": {
        "value": 1.7142857123798434,
        "error_radius": 2.0659385313592793e-09,
        "witness_t": 1.714285714445782,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 1.0,
        "t_max": 5.436569093481746,
        "n_evals": 36,
        "gaps": [],
    },
    "sparse16": {
        "value": 3.4285714272107275,
        "error_radius": 1.6002767999623302e-09,
        "witness_t": 3.4285714288110043,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 2.0,
        "t_max": 5.436569093481746,
        "n_evals": 36,
        "gaps": [],
    },
    "sparse64": {
        "value": 5.917032932878451,
        "error_radius": 1.5308092571331144e-09,
        "witness_t": 5.91703293440926,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 4.0,
        "t_max": 109.19640926258853,
        "n_evals": 41,
        "gaps": [],
    },
    "sparse256": {
        "value": 13.249844624489096,
        "error_radius": 1.4798349212696849e-09,
        "witness_t": 13.249844625968931,
        "L": 2.0,
        "variant": "d_star",
        "t_start": 8.0,
        "t_max": 17772238.813236784,
        "n_evals": 58,
        "gaps": [],
    },
    "one_d_star": {
        "value": 0.8571427838820752,
        "error_radius": 9.916504672968784e-08,
        "witness_t": 0.8571428830471219,
        "L": 1.0,
        "variant": "d_star",
        "t_start": 0.5,
        "t_max": 2.718284546740873,
        "n_evals": 29,
        "gaps": [],
    },
    "one_d": {
        "value": 0.9092062215125303,
        "error_radius": 1.440249475237465e-09,
        "witness_t": 0.9092062229527798,
        "L": 0.9,
        "variant": "d",
        "t_start": 0.9,
        "t_max": 2.446456092066786,
        "n_evals": 35,
        "gaps": [],
    },
}

GOLDEN_CLEARANCE = {
    "clear_one": {
        "passed": False,
        "violation_t": 0.8571428572293369,
        "vacuous": False,
        "t_start": 0.5,
        "t_end": 0.95,
        "n_evals": 33,
    },
    "clear_gauss16": {
        "passed": True,
        "violation_t": None,
        "vacuous": False,
        "t_start": 0.9569290359681569,
        "t_end": 5.0,
        "n_evals": 6,
    },
    "clear_gauss256": {
        "passed": True,
        "violation_t": None,
        "vacuous": False,
        "t_start": 2.345219614850912,
        "t_end": 300.0,
        "n_evals": 652,
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LCD))
def test_lcd_matches_frozen_output(case):
    make, L, variant, tol = GOLDEN_LCD_INPUTS[case]
    assert lcd(make(), L, variant, tol=tol).to_json() == GOLDEN_LCD[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_CLEARANCE))
def test_clearance_matches_frozen_output(case):
    make, L, D = GOLDEN_CLEARANCE_INPUTS[case]
    assert verify_lattice_clearance(make(), L, D).to_json() == GOLDEN_CLEARANCE[case]


# Outputs of the search with its horizon clamped at exactly 1e300, for
# ||a|| < 1 at small L; the clamp may grow past 1e300 only for tiny ||a||.
CLAMPED_LCD = [
    ([0.3, 0.4], 0.01, "d_star", {
        "value": 9.950161788846057, "error_radius": 4.450147628176637e-08,
        "witness_t": 9.950161833347533, "L": 0.01, "variant": "d_star",
        "t_start": 1.25, "t_max": 1e300, "n_evals": 1027, "gaps": [],
    }),
    ([0.3, 0.4], 0.01, "d", {
        "value": 9.947454693216166, "error_radius": 1.7800590867977917e-07,
        "witness_t": 9.947454871222075, "L": 0.01, "variant": "d",
        "t_start": 0.01, "t_max": 1e300, "n_evals": 1045, "gaps": [],
    }),
    ([1e-9], 0.018, "d_star", {
        "value": 964086462.3220866, "error_radius": 1.1920928955078125e-07,
        "witness_t": 964086462.3220867, "L": 0.018, "variant": "d_star",
        "t_start": 499999999.99999994, "t_max": 1e300, "n_evals": 1022, "gaps": [],
    }),
]


@pytest.mark.parametrize("coords,L,variant,expected", CLAMPED_LCD)
def test_lcd_horizon_clamp_matches_frozen_output(coords, L, variant, expected):
    assert lcd(WeightVector(coords), L, variant).to_json() == expected


# ---------------------------------------------------------------------------
# Evaluation count and scan memory
# ---------------------------------------------------------------------------


def _gauss_unit(n, seed):
    v = np.random.default_rng(seed).normal(size=n)
    return WeightVector(v / np.linalg.norm(v))


def test_lcd_scan_memory_does_not_grow_per_evaluation():
    """A dense scan of about 100,000 points holds its stack and the resolver's
    distances, not one entry per evaluated point (a set of them peaks near
    8 MB here)."""
    a = _gauss_unit(576, [576, 2])
    tracemalloc.start()
    try:
        res = lcd(a, 2.0, "d", tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_evals >= 50_000
    assert peak < 2e6


def _record_points(monkeypatch):
    """Record every t whose distance either kernel computes, per kernel."""
    scalar, batched = [], []
    point, rows = LCD._dist_point, LCD._dist_rows

    def recorded_point(t, abs_a):
        scalar.append(t)
        return point(t, abs_a)

    def recorded_rows(ts, abs_a, work):
        batched.extend(ts.tolist())
        return rows(ts, abs_a, work)

    monkeypatch.setattr(LCD, "_dist_point", recorded_point)
    monkeypatch.setattr(LCD, "_dist_rows", recorded_rows)
    return scalar, batched


def test_lcd_scan_evaluates_no_point_twice(monkeypatch):
    """The running count is exact because no t is evaluated twice; points a
    resolve computed but the walk never reached are evaluated, not counted."""
    scalar, batched = _record_points(monkeypatch)
    res = lcd(_gauss_unit(432, [432, 2]), 2.0, "d_star", tol=1e-8)
    points = scalar + batched
    assert res.n_evals >= 10_000 and batched
    assert len(set(points)) == len(points)
    assert res.n_evals <= len(points)


def test_lcd_scan_reuses_one_distance_workspace(monkeypatch):
    """Every batched distance call of a scan fills the same two buffers."""
    buffers = []
    rows = LCD._dist_rows

    def recorded_rows(ts, abs_a, work):
        buffers.append(work)
        return rows(ts, abs_a, work)

    monkeypatch.setattr(LCD, "_dist_rows", recorded_rows)
    lcd(_gauss_unit(432, [432, 2]), 2.0, "d_star", tol=1e-8)
    assert len(buffers) > 10
    first, second = buffers[0]
    assert first.shape == second.shape == (LCD._BLOCK_ENTRIES // 432, 432)
    assert not np.shares_memory(first, second)
    assert all(w[0] is first and w[1] is second for w in buffers)


def test_clearance_floor_probes_a_few_ulps_apart_count_once(monkeypatch):
    """At tol = 1e-300 the width floor is D * 4e-16, 3.9 ulps at the
    violation t ~ 1.96, so the quarter points of a floor node two or three
    ulps wide can round to the same t; each is evaluated and counted once
    (the set-based count read 65)."""
    scalar, batched = _record_points(monkeypatch)
    a = WeightVector([0.855197831554018, 0.5183017160933442])
    rep = verify_lattice_clearance(a, 2.0, 2.168173610962784, tol=1e-300)
    points = scalar + batched
    assert len(set(points)) == len(points)
    assert rep.n_evals == 65


# ---------------------------------------------------------------------------
# The ufunc buffer
# ---------------------------------------------------------------------------


def _buffer_calls(a):
    """The public calls that reach _dist_rows, on the unit vector a."""
    D = lcd(a, 2.0, "d_star", tol=1e-3).witness_t
    return {
        "lcd": lambda: lcd(a, 2.0, "d", tol=1e-3),
        "verify_lattice_clearance": lambda: verify_lattice_clearance(a, 2.0, D, tol=1e-3),
        "dist_to_lattice": lambda: dist_to_lattice(np.linspace(1.0, 50.0, 300), a),
    }


def _under_outer_buffer(calls, raises=()):
    """Run each call with the caller's ufunc buffer at 4096 entries, not
    numpy's default 8192, so that a reset to the default fails too; each
    must leave it at 4096."""
    old = np.setbufsize(4096)
    try:
        for name, call in calls.items():
            if raises:
                with pytest.raises(raises):
                    call()
            else:
                call()
            assert np.getbufsize() == 4096, name
    finally:
        np.setbufsize(old)


def test_lcd_calls_restore_the_callers_ufunc_buffer(monkeypatch):
    batched = []
    rows = LCD._dist_rows

    def recorded_rows(ts, abs_a, work):
        batched.append(ts.size)
        return rows(ts, abs_a, work)

    calls = _buffer_calls(_gauss_unit(448, [0, 0]))
    monkeypatch.setattr(LCD, "_dist_rows", recorded_rows)
    _under_outer_buffer(calls)
    assert len(batched) > 3


class _Raised(Exception):
    pass


def test_raising_dist_rows_restores_the_callers_ufunc_buffer(monkeypatch):
    """A row of |a| one entry short makes the first product of _dist_rows
    raise inside the buffer it set."""
    rows = LCD._dist_rows
    calls = _buffer_calls(_gauss_unit(448, [0, 0]))
    monkeypatch.setattr(LCD, "_dist_rows", lambda ts, abs_a, work: rows(ts, abs_a[:-1], work))
    _under_outer_buffer(calls, raises=ValueError)


def test_raising_dist_point_restores_the_callers_ufunc_buffer(monkeypatch):
    """_dist_point raises on every 50th call, inside a scan."""
    point, seen = LCD._dist_point, []

    def failing_point(t, abs_a):
        seen.append(t)
        if len(seen) % 50 == 0:
            raise _Raised
        return point(t, abs_a)

    calls = _buffer_calls(_gauss_unit(448, [0, 0]))
    del calls["dist_to_lattice"]
    monkeypatch.setattr(LCD, "_dist_point", failing_point)
    _under_outer_buffer(calls, raises=_Raised)


# ---------------------------------------------------------------------------
# Argument checks on outside input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call,exc,message", [
    (lambda: f_threshold(0.0, 1.0), ValueError, "t and L must be positive"),
    (lambda: f_threshold(1.0, -1.0), ValueError, "t and L must be positive"),
    (lambda: f_threshold(math.nan, 1.0), ValueError, "t and L must be positive"),
    (lambda: log_plus_threshold(-1.0, 1.0), ValueError, "t and L must be positive"),
    (lambda: log_plus_threshold(1.0, 0.0), ValueError, "t and L must be positive"),
])
def test_lcd_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)
