import numpy as np
import pytest

from sparse_risk.datagen import (
    DesignSpec,
    RngStream,
    _ar1_cholesky,
    ar1_covariance,
    fixed_design_with_gram,
    make_theta,
    sample_design,
    sample_errors,
)

THETA0 = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
ETA = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])


class TestAr1Covariance:
    def test_k3_half(self):
        expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        np.testing.assert_allclose(ar1_covariance(3, 0.5), expected, rtol=0, atol=0)

    def test_zero_correlation_is_identity(self):
        np.testing.assert_array_equal(ar1_covariance(4, 0.0), np.eye(4))

    def test_trace_of_inverse_matches_direct_inversion(self):
        # direct inversion oracle; closed form is 38/3 for k=8, rho=0.5
        sigma = ar1_covariance(8, 0.5)
        assert np.trace(np.linalg.inv(sigma)) == pytest.approx(38.0 / 3.0, rel=1e-12)

    def test_positive_definite(self):
        eigvals = np.linalg.eigvalsh(ar1_covariance(8, 0.5))
        assert np.all(eigvals > 0)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5])
    def test_invalid_rho(self, rho):
        with pytest.raises(ValueError):
            ar1_covariance(3, rho)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ar1_covariance(0, 0.5)


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(42, 7, "errors").generator().standard_normal(100)
        b = RngStream(42, 7, "errors").generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        base = RngStream(42, 0, "design").generator().standard_normal(8)
        other_rep = RngStream(42, 1, "design").generator().standard_normal(8)
        other_purpose = RngStream(42, 0, "errors").generator().standard_normal(8)
        other_seed = RngStream(43, 0, "design").generator().standard_normal(8)
        assert not np.array_equal(base, other_rep)
        assert not np.array_equal(base, other_purpose)
        assert not np.array_equal(base, other_seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0, "x")
        with pytest.raises(ValueError):
            RngStream(3, -2, "x")


class TestSampleDesign:
    def test_fixed_matrix_passthrough(self):
        mat = np.vstack([np.eye(3)] * 4)
        spec = DesignSpec("fixed_matrix", n=12, k=3, fixed_matrix=mat)
        out = sample_design(spec, RngStream(1, 0, "design"))
        np.testing.assert_array_equal(out, mat)
        out[0, 0] = 99.0  # returned copy must not alias the stored matrix
        np.testing.assert_array_equal(spec.fixed_matrix, mat)

    def test_deterministic(self):
        spec = DesignSpec("gaussian_ar", n=50, k=8, rho=0.5)
        a = sample_design(spec, RngStream(9, 3, "design"))
        b = sample_design(spec, RngStream(9, 3, "design"))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k,rho", [(8, 0.5), (3, -0.3), (8, 0.0)])
    def test_cached_factor_matches_fresh_factorization(self, k, rho):
        # The factor is made once per (k, rho); repeated draws must equal a
        # draw through a covariance factored on the spot, and the shared
        # factor cannot be written through.
        spec = DesignSpec("gaussian_ar", n=40, k=k, rho=rho)
        chol = np.linalg.cholesky(ar1_covariance(k, rho))
        for r in range(3):
            stream = RngStream(17, r, "design@cell")
            want = stream.generator().standard_normal((40, k)) @ chol.T
            assert sample_design(spec, stream).tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            _ar1_cholesky(k, rho)[0, 0] = 2.0

    def test_large_sample_covariance(self):
        n = 100_000
        spec = DesignSpec("gaussian_ar", n=n, k=8, rho=0.5)
        X = sample_design(spec, RngStream(11, 0, "design"))
        emp = X.T @ X / n
        np.testing.assert_allclose(emp, ar1_covariance(8, 0.5), atol=0.02)
        assert emp[0, 1] == pytest.approx(0.5, abs=0.05)

    def test_fixed_matrix_validation(self):
        with pytest.raises(ValueError):
            DesignSpec("fixed_matrix", n=2, k=3, fixed_matrix=np.ones((2, 3)))
        with pytest.raises(ValueError):
            rank_deficient = np.ones((4, 2))
            DesignSpec("fixed_matrix", n=4, k=2, fixed_matrix=rank_deficient)
        with pytest.raises(ValueError):
            DesignSpec("fixed_matrix", n=4, k=2, fixed_matrix=None)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fixed_matrix_must_be_finite(self, value):
        # unchecked, the rank check fails on these with an SVD or rank message
        mat = np.vstack([np.eye(3)] * 4)
        mat[5, 1] = value
        with pytest.raises(ValueError, match="fixed design must hold finite values"):
            DesignSpec("fixed_matrix", n=12, k=3, fixed_matrix=mat)

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            DesignSpec("gaussian_ar", n=10, k=3, rho=1.0)
        with pytest.raises(ValueError):
            DesignSpec("nope", n=10, k=3)

    @pytest.mark.parametrize("n, k", [(60.5, 8), (np.nan, 8), (np.inf, 8), (60, 8.5),
                                      (60, np.nan), (0, 8), (60, 0)])
    def test_sizes_must_be_positive_integers(self, n, k):
        # unchecked, n = 60.5 ran a cell with fractional chi-square degrees of
        # freedom, and n = nan drew before failing on another check
        with pytest.raises(ValueError, match="n and k must be positive integers"):
            DesignSpec("gaussian_ar", n=n, k=k, rho=0.5)

    def test_numpy_integer_sizes_accepted(self):
        spec = DesignSpec("gaussian_ar", n=np.int64(60), k=np.int32(8), rho=0.5)
        assert sample_design(spec, RngStream(1)).shape == (60, 8)


class TestSampleErrors:
    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sample_errors(0, RngStream(1, 0, "errors"))

    def test_mean_near_zero(self):
        eps = sample_errors(1_000_000, RngStream(5, 0, "errors"))
        assert abs(eps.mean()) < 0.01

    def test_deterministic(self):
        a = sample_errors(64, RngStream(5, 2, "errors"))
        b = sample_errors(64, RngStream(5, 2, "errors"))
        np.testing.assert_array_equal(a, b)


class TestMakeTheta:
    def test_gamma_zero_is_theta0_exactly(self):
        out = make_theta(THETA0, ETA, 60, 0.0)
        assert np.array_equal(out, THETA0)

    def test_component_values(self):
        assert make_theta(THETA0, ETA, 60, 8.0)[2] == pytest.approx(8 / np.sqrt(60), rel=1e-12)
        assert make_theta(THETA0, ETA, 960, 8.0)[2] == pytest.approx(8 / np.sqrt(960), rel=1e-12)

    def test_proportional_to_eta(self):
        for gamma in (0.5, 3.0, 8.0):
            shift = make_theta(THETA0, ETA, 240, gamma) - THETA0
            np.testing.assert_allclose(shift, gamma / np.sqrt(240) * ETA, rtol=1e-12, atol=1e-15)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            make_theta(THETA0, ETA, 60, -1.0)

    @pytest.mark.parametrize("n, gamma", [
        (60, np.nan), (60, np.inf), (0, 1.0), (-4, 1.0), (60.5, 1.0), (np.nan, 1.0),
    ])
    def test_non_finite_gamma_or_non_integer_n_rejected(self, n, gamma):
        # unchecked, these gave a NaN or infinite theta, or ran at n = 60.5
        with pytest.raises(ValueError):
            make_theta(THETA0, ETA, n, gamma)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_theta(THETA0, ETA[:5], 60, 1.0)


class TestFixedDesignWithGram:
    def test_gram_matches_target(self):
        sigma = ar1_covariance(8, 0.5)
        X = fixed_design_with_gram(120, sigma)
        np.testing.assert_allclose(X.T @ X / 120, sigma, atol=1e-10)

    def test_deterministic(self):
        sigma = ar1_covariance(4, 0.3)
        np.testing.assert_array_equal(
            fixed_design_with_gram(30, sigma), fixed_design_with_gram(30, sigma)
        )

    def test_needs_enough_rows(self):
        with pytest.raises(ValueError):
            fixed_design_with_gram(3, ar1_covariance(8, 0.5))
