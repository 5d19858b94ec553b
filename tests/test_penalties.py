import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_risk.experiments import brute_force_univariate_min
from sparse_risk.penalties import (
    ScadParams,
    _penalty_raw,
    _scad_min_enumerated,
    scad_derivative,
    scad_penalty,
    scad_univariate_min,
    scad_univariate_min_weighted,
)

P1 = ScadParams(1.0, 3.7)


class TestScadParams:
    def test_defaults(self):
        assert ScadParams(0.5).a == 3.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ScadParams(-0.1)
        with pytest.raises(ValueError):
            ScadParams(1.0, a=2.0)


class TestPenalty:
    def test_zero_at_origin(self):
        assert scad_penalty(0.0, P1) == 0.0

    def test_linear_branch(self):
        assert scad_penalty(0.5, P1) == pytest.approx(0.5, rel=1e-12)

    def test_flat_branch(self):
        assert scad_penalty(10.0, P1) == pytest.approx(2.35, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scad_penalty(-1.0, P1)

    @pytest.mark.parametrize("lam,a", [(1.0, 3.7), (0.3, 2.5), (2.0, 5.0)])
    def test_continuity_at_kinks(self, lam, a):
        p = ScadParams(lam, a)
        eps = 1e-13
        for kink in (lam, a * lam):
            left = scad_penalty(kink - kink * eps, p)
            right = scad_penalty(kink + kink * eps, p)
            assert abs(left - right) < 1e-12

    @given(
        lam=st.floats(0.05, 3.0),
        a=st.floats(2.1, 6.0),
        t=st.floats(0.0, 20.0),
        dt=st.floats(1e-6, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_and_eventually_constant(self, lam, a, t, dt):
        p = ScadParams(lam, a)
        assert scad_penalty(t + dt, p) >= scad_penalty(t, p) - 1e-12
        flat = (a + 1) * lam * lam / 2
        assert scad_penalty(a * lam + dt, p) == pytest.approx(flat, rel=1e-12)

    def test_matches_integral_of_derivative(self):
        # quadrature oracle: penalty(x) = integral of the derivative from 0
        p = ScadParams(0.8, 3.7)
        for x in (0.5, 0.79, 1.7, 2.9, 4.0):
            grid = np.linspace(0.0, x, 20_001)
            integral = np.trapezoid(scad_derivative(grid, p), grid)
            assert scad_penalty(x, p) == pytest.approx(integral, abs=1e-6)


class TestDerivative:
    def test_linear_branch_equals_lambda(self):
        assert scad_derivative(0.5, P1) == pytest.approx(1.0, rel=1e-12)

    def test_middle_branch(self):
        assert scad_derivative(2.0, P1) == pytest.approx((3.7 - 2.0) / 2.7, rel=1e-12)

    def test_flat_region(self):
        assert scad_derivative(5.0, P1) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            scad_derivative(-0.5, P1)

    def test_finite_difference_agreement(self):
        p = ScadParams(0.7, 3.7)
        h = 1e-7
        rng = np.random.default_rng(4)
        kinks = np.array([p.lam, p.a * p.lam])
        for t in rng.uniform(0.01, 4.0, size=200):
            if np.min(np.abs(t - kinks)) < 1e-3:
                continue
            fd = (scad_penalty(t + h, p) - scad_penalty(t - h, p)) / (2 * h)
            assert scad_derivative(t, p) == pytest.approx(fd, abs=1e-6)


class TestUnivariateMin:
    def test_soft_zone_zeroes(self):
        assert scad_univariate_min(0.5, P1) == 0.0

    def test_middle_zone(self):
        assert scad_univariate_min(3.0, P1) == pytest.approx(4.4 / 1.7, rel=1e-12)

    def test_identity_zone(self):
        assert scad_univariate_min(5.0, P1) == 5.0

    def test_odd_symmetry(self):
        for z in (0.3, 1.4, 2.7, 6.0):
            assert scad_univariate_min(-z, P1) == -scad_univariate_min(z, P1)

    def test_against_grid_search(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            z = float(rng.uniform(-6, 6))
            lam = float(rng.uniform(0.1, 2.0))
            p = ScadParams(lam, 3.7)
            assert scad_univariate_min(z, p) == pytest.approx(
                brute_force_univariate_min(z, p), abs=1e-4
            )

    @given(z=st.floats(-8.0, 8.0), lam=st.floats(0.05, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_shrinkage_bound(self, z, lam):
        p = ScadParams(lam, 3.7)
        m = scad_univariate_min(z, p)
        assert abs(m) <= abs(z) + 1e-15
        if abs(z) > p.a * lam or z == 0.0:
            assert m == z
        elif 0 < abs(z) <= p.a * lam:
            assert abs(m) < abs(z)


class TestWeightedMin:
    def test_weight_one_matches_closed_form(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-6, 6, size=500)
        lam = rng.uniform(0.1, 2.0, size=500)
        got = scad_univariate_min_weighted(z, lam, 3.7, np.ones(500))
        want = np.array(
            [scad_univariate_min(zi, ScadParams(li, 3.7)) for zi, li in zip(z, lam)]
        )
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_random_weights_against_grid(self):
        rng = np.random.default_rng(6)
        grid = np.arange(-8, 8, 1e-4)
        for _ in range(50):
            z = float(rng.uniform(-6, 6))
            lam = float(rng.uniform(0.1, 1.5))
            w = float(rng.uniform(0.5, 2.0))
            obj = 0.5 * (grid - z) ** 2 + w * scad_penalty(np.abs(grid), ScadParams(lam, 3.7))
            best = grid[np.argmin(obj)]
            got = float(scad_univariate_min_weighted(np.array(z), lam, 3.7, w))
            assert got == pytest.approx(best, abs=2e-4)

    def test_scalar_shape(self):
        out = scad_univariate_min_weighted(np.float64(3.0), 1.0, 3.7, 1.0)
        assert np.ndim(out) == 0

    @given(data=st.data(), a=st.floats(2.1, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_stacked_reference(self, data, a):
        # z sits on a branch boundary (0, lam, 2 lam, w lam, (1 + w) lam,
        # a lam), one float away from it, or is free; w = a - 1 takes the
        # degenerate middle-branch fallback, w > a - 1 makes the middle
        # branch concave. _boundary_rows adds every listed case for this a.
        near = [a - 1.0 + d for d in (0.0, -0.9e-12, -1.1e-12, 0.9e-12, 1.1e-12)]
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
                    st.one_of(
                        st.sampled_from(near), st.floats(0.3, 3.0),
                        st.floats(a + 0.5, a + 6.0),
                    ),
                    st.one_of(st.sampled_from("012wca"), st.floats(-10.0, 10.0)),
                    st.sampled_from([-1.0, 1.0]),
                    st.sampled_from([-np.inf, None, np.inf]),
                ),
                min_size=1,
                max_size=12,
            )
        )
        lam = np.array([row[0] for row in rows])
        w = np.array([row[1] for row in rows])
        z = np.array([
            m if isinstance(m, float)
            else s * _edge(m, lm, wt, a, step)
            for lm, wt, m, s, step in rows
        ])
        got = scad_univariate_min_weighted(z, lam, a, w)
        assert got.tobytes() == _stacked_reference(z, lam, a, w).tobytes()
        got0 = scad_univariate_min_weighted(z[0], float(lam[0]), a, float(w[0]))
        want0 = _stacked_reference(z[0], float(lam[0]), a, float(w[0]))
        assert np.ndim(got0) == 0
        assert np.asarray(got0).tobytes() == np.asarray(want0).tobytes()

        lam, w, z = _boundary_rows(a)
        got = scad_univariate_min_weighted(z, lam, a, w)
        assert got.tobytes() == _stacked_reference(z, lam, a, w).tobytes()

    def test_bytes_match_stacked_reference_at_outer_crossover(self):
        # Just past a*lam the outer objective w*flat and the middle-branch
        # objective at a*lam are within an ulp for these lam; a re-associated
        # flat = (a + 1) * (lam * lam) / 2 flips the pick on these rows.
        a = 3.7
        rows = [
            (lam, w, s * float(np.nextafter(a * lam, step)))
            for lam in (0.8166622741539723, 1.9548732360407708, 0.4139385500170096)
            for w in (1.0, 0.8)
            for step in (-np.inf, np.inf)
            for s in (-1.0, 1.0)
        ]
        lam, w, z = (np.array(col) for col in zip(*rows))
        got = scad_univariate_min_weighted(z, lam, a, w)
        assert got.tobytes() == _stacked_reference(z, lam, a, w).tobytes()

    @pytest.mark.parametrize("a", [2.5, 3.7, 6.0])
    @pytest.mark.parametrize("offsets", [(1.01e-6, 1e-3), (1e-12, 1e-6)], ids=["outside", "inside"])
    def test_bytes_match_stacked_reference_near_the_edges(self, a, offsets):
        # Just past the 1e-6 relative band around w*lam, (1 + w)*lam and
        # a*lam, the closed-form rule decides alone; its pick must still be
        # the stacked argmin's, bit for bit. Inside the band rounding decides
        # the argmin for many z, which the band sends to the enumeration.
        rng = np.random.default_rng(15)
        size = 30_000
        w = rng.uniform(0.3, a - 1.5, size)
        lam = np.exp(rng.uniform(np.log(1e-4), np.log(3.0), size))
        edges = np.stack([w * lam, (1.0 + w) * lam, a * lam])
        edge = edges[rng.integers(0, 3, size), np.arange(size)]
        offset = np.exp(rng.uniform(*np.log(offsets), size))
        offset *= rng.choice([-1.0, 1.0], size)
        z = edge * (1.0 + offset) * rng.choice([-1.0, 1.0], size)
        got = scad_univariate_min_weighted(z, lam, a, w)
        assert got.tobytes() == _stacked_reference(z, lam, a, w).tobytes()

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_bytes_match_enumeration_where_objectives_underflow_or_overflow(self, scale):
        # there objectives round to 0 or inf and the enumeration keeps its
        # first candidate, which the closed form does not know
        rng = np.random.default_rng(16)
        lam = rng.uniform(0.1, 3.0, 2000) * scale
        w = rng.uniform(0.3, 2.2, 2000)
        z = rng.uniform(-12.0, 12.0, 2000) * scale
        with np.errstate(over="ignore", invalid="ignore"):
            got = scad_univariate_min_weighted(z, lam, 3.7, w)
            want = _scad_min_enumerated(z, lam, 3.7, w)
            stacked = _stacked_reference(z, lam, 3.7, w)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == stacked.tobytes()


def _edge(mark, lam, w, a, step):
    """The boundary named by ``mark`` times lam, moved one float toward ``step``."""
    factor = {"0": 0.0, "1": 1.0, "2": 2.0, "w": w, "c": 1.0 + w, "a": a}[mark]
    z = factor * lam
    return z if step is None else float(np.nextafter(z, step))


def _boundary_rows(a):
    """(lam, w, z) on every branch edge, one float either side, for both signs.

    The weights cover |a - 1 - w| just under and just over the 1e-12 cutoff
    and a w well above a - 1; lam = 0 is paired with nonzero z.
    """
    weights = [0.8, 1.0, a + 2.0]
    weights += [a - 1.0 + d for d in (0.0, -0.9e-12, -1.1e-12, 0.9e-12, 1.1e-12)]
    rows = []
    for lam in (0.0, 0.4, 1.3):
        for w in weights:
            edges = [_edge(m, lam, w, a, step) for m in "12wca"
                     for step in (-np.inf, None, np.inf)]
            for z in [0.0, 0.37, 5.0, *edges]:
                rows += [(lam, w, z), (lam, w, -z)]
    return tuple(np.array(col) for col in zip(*rows))


def _stacked_reference(z, lam, a, weight):
    """The weighted minimizer that picks by argmin over a stack of candidates."""
    z = np.asarray(z, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), z.shape)
    w = np.broadcast_to(np.asarray(weight, dtype=float), z.shape)
    az = np.abs(z)

    soft = np.clip(az - w * lam, 0.0, lam)
    denom = a - 1.0 - w
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    interior = ((a - 1.0) * az - w * a * lam) / safe
    middle = np.where(np.abs(denom) > 1e-12, np.clip(interior, lam, a * lam), lam)
    outer = np.maximum(az, a * lam)

    candidates = np.stack(
        [np.zeros_like(az), soft, lam * np.ones_like(az), middle,
         a * lam * np.ones_like(az), outer]
    )
    objective = 0.5 * (candidates - az) ** 2 + w * _penalty_raw(candidates, lam, a)
    # an overflowing penalty is inf - inf; argmin would pick that NaN
    pick = np.argmin(np.where(np.isnan(objective), np.inf, objective), axis=0)
    best = np.take_along_axis(candidates, pick[None, ...], axis=0)[0]
    return np.sign(z) * best
