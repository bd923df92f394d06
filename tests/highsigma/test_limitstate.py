"""LimitState abstraction tests: conventions, counting, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EstimationError
from repro.highsigma.limitstate import LimitState


def make_upper(spec=2.0, dim=3):
    """Metric = u[0]; failure when u[0] >= spec."""
    return LimitState(
        fn=lambda u: float(u[0]), spec=spec, dim=dim, direction="upper", name="t"
    )


class TestConventions:
    def test_upper_direction(self):
        ls = make_upper(spec=2.0)
        assert ls.g(np.array([1.0, 0, 0])) == pytest.approx(1.0)
        assert not ls.fails(np.array([1.0, 0, 0]))
        assert ls.fails(np.array([2.5, 0, 0]))

    def test_lower_direction(self):
        ls = LimitState(
            fn=lambda u: float(u[0]), spec=-1.0, dim=2, direction="lower"
        )
        assert ls.fails(np.array([-2.0, 0]))      # metric below spec
        assert not ls.fails(np.array([0.0, 0]))

    def test_boundary_counts_as_failure(self):
        ls = make_upper(spec=2.0)
        assert ls.fails(np.array([2.0, 0, 0]))

    def test_invalid_direction(self):
        with pytest.raises(EstimationError):
            LimitState(fn=lambda u: 0.0, spec=0, dim=1, direction="sideways")

    def test_invalid_dim(self):
        with pytest.raises(EstimationError):
            LimitState(fn=lambda u: 0.0, spec=0, dim=0)

    def test_needs_fn_or_batch_fn(self):
        with pytest.raises(EstimationError):
            LimitState(fn=None, spec=0, dim=1)

    def test_shape_check(self):
        with pytest.raises(EstimationError):
            make_upper(dim=3).g(np.zeros(2))


class TestCounting:
    def test_each_eval_billed(self):
        ls = make_upper()
        ls.g(np.zeros(3))
        ls.g(np.ones(3))
        assert ls.n_evals == 2

    def test_repeated_point_is_billed_again(self):
        # Every evaluation is simulated and billed, a repeated point too.
        ls = make_upper()
        u = np.array([1.0, 2.0, 3.0])
        ls.g(u)
        ls.g(u.copy())
        assert ls.n_evals == 2

    def test_batch_billing(self):
        ls = LimitState(
            fn=lambda u: float(u[0]),
            batch_fn=lambda ub: ub[:, 0],
            spec=1.0,
            dim=2,
        )
        ls.g_batch(np.zeros((7, 2)))
        assert ls.n_evals == 7

    def test_reset_counter(self):
        ls = make_upper()
        ls.g(np.zeros(3))
        ls.reset_counter()
        assert ls.n_evals == 0

    def test_fallback_billed_once_per_row(self):
        # No batch_fn: the fallback routes through one metric() pass per
        # row (billed there) without re-entering g per row.
        ls = make_upper()
        block = np.array([[1.0, 0, 0], [2.0, 0, 0]])
        out = ls.g_batch(block)
        np.testing.assert_allclose(out, [1.0, 0.0])
        assert ls.n_evals == 2

    def test_stencil_is_one_batch_call(self):
        # A central-difference stencil (2 * dim rows) reaches batch_fn as
        # one block, every row billed; the scalar fn is never called.
        calls = {"fn": 0, "batch": 0}

        def fn(u):
            calls["fn"] += 1
            return float(u[0])

        def batch_fn(ub):
            calls["batch"] += 1
            return ub[:, 0]

        ls = LimitState(fn=fn, batch_fn=batch_fn, spec=2.0, dim=2)
        ls.g_batch(ls.fd_stencil(np.array([0.5, 0.0])))
        assert ls.n_evals == 4
        assert calls == {"fn": 0, "batch": 1}

    def test_scalar_eval_without_fn_is_a_one_row_batch(self):
        shapes = []

        def batch_fn(ub):
            shapes.append(ub.shape)
            return ub[:, 0]

        ls = LimitState(fn=None, batch_fn=batch_fn, spec=2.0, dim=2)
        assert ls.g(np.array([0.5, 0.0])) == pytest.approx(1.5)
        assert shapes == [(1, 2)]
        assert ls.n_evals == 1


class TestWarmup:
    def test_prepares_batch_fn_without_evaluating(self):
        class Evaluator:
            prepared = 0

            def prepare(self):
                self.prepared += 1

            def __call__(self, ub):
                raise AssertionError("warmup must not evaluate")

        evaluator = Evaluator()
        ls = LimitState(fn=None, batch_fn=evaluator, spec=0.0, dim=2)
        ls.warmup()
        assert evaluator.prepared == 1
        assert ls.n_evals == 0

    def test_nothing_to_prepare_is_a_no_op(self):
        ls = make_upper()
        ls.warmup()
        assert ls.n_evals == 0
        assert ls.g(np.array([1.0, 0, 0])) == pytest.approx(1.0)


class TestBatchConsistency:
    def test_batch_fn_matches_scalar(self):
        ls = LimitState(
            fn=lambda u: float(u @ u),
            batch_fn=lambda ub: np.sum(ub * ub, axis=1),
            spec=4.0,
            dim=3,
        )
        rng = np.random.default_rng(0)
        ub = rng.normal(size=(10, 3))
        batch = ls.g_batch(ub)
        scalar = np.array([ls.g(u) for u in ub])
        np.testing.assert_allclose(batch, scalar, rtol=1e-12)

    def test_fallback_loop_when_no_batch_fn(self):
        ls = make_upper()
        out = ls.g_batch(np.zeros((4, 3)))
        assert out.shape == (4,)

    def test_bad_batch_fn_shape_detected(self):
        ls = LimitState(
            fn=lambda u: 0.0,
            batch_fn=lambda ub: np.zeros((ub.shape[0], 2)),
            spec=0.0,
            dim=2,
        )
        with pytest.raises(EstimationError):
            ls.g_batch(np.zeros((3, 2)))

    def test_wrong_batch_width(self):
        with pytest.raises(EstimationError):
            make_upper(dim=3).g_batch(np.zeros((2, 4)))


class TestGradients:
    def quad_ls(self, dim=4):
        a = np.arange(1.0, dim + 1)
        return LimitState(
            fn=lambda u: float(a @ u + 0.5 * u @ u),
            batch_fn=lambda ub: ub @ a + 0.5 * np.sum(ub * ub, axis=1),
            spec=1.0,
            dim=dim,
        ), a

    def test_central_gradient_accuracy(self):
        ls, a = self.quad_ls()
        u = np.array([0.5, -0.5, 1.0, 0.0])
        # g = spec - metric, so grad g = -(a + u).
        np.testing.assert_allclose(
            ls.fd_gradient(u, step=1e-4), -(a + u), rtol=1e-5, atol=1e-8
        )

    def test_forward_gradient_accuracy(self):
        ls, a = self.quad_ls()
        u = np.zeros(4)
        np.testing.assert_allclose(
            ls.fd_gradient(u, step=1e-6, scheme="forward"), -a, rtol=1e-4
        )

    def test_central_costs_2d_evals(self):
        ls, _ = self.quad_ls()
        ls.fd_gradient(np.zeros(4), step=0.1)
        assert ls.n_evals == 8

    def test_forward_costs_d_plus_one(self):
        ls, _ = self.quad_ls()
        ls.fd_gradient(np.zeros(4), step=0.1, scheme="forward")
        assert ls.n_evals == 5  # centre + d

    def test_central_exact_on_quadratics(self):
        # Central differences cancel a quadratic's curvature term exactly
        # (to roundoff), whatever the step.
        ls, a = self.quad_ls()
        u = np.array([1.0, 2.0, -1.0, 0.5])
        np.testing.assert_allclose(ls.fd_gradient(u, step=0.5), -(a + u), rtol=1e-10)

    def test_forward_reuses_given_centre_margin(self):
        ls, _ = self.quad_ls()
        u = np.array([0.5, 0.5, 0.0, -1.0])
        g0 = ls.g(u)
        ls.reset_counter()
        grad = ls.fd_gradient(u, step=1e-6, scheme="forward", g0=g0)
        assert ls.n_evals == 4  # the d stencil rows only
        fresh, _ = self.quad_ls()
        np.testing.assert_array_equal(
            grad, fresh.fd_gradient(u, step=1e-6, scheme="forward")
        )

    def test_spsa_exact_in_one_dimension(self):
        # With a single coordinate the perturbation cancels exactly.
        ls = LimitState(fn=None, batch_fn=lambda ub: 3.0 * ub[:, 0], spec=0.0, dim=1)
        grad = ls.spsa_gradient(np.zeros(1), np.random.default_rng(0), repeats=1)
        np.testing.assert_allclose(grad, [-3.0], rtol=1e-8)

    def test_spsa_unbiased_on_linear_margin(self):
        # Single repeats are noisy (cross-terms a_j * D_j / D_i), but the
        # average over many repeats converges to the true gradient.
        a = np.array([1.0, -2.0, 0.5])
        ls = LimitState(fn=None, batch_fn=lambda ub: ub @ a, spec=0.0, dim=3)
        grad = ls.spsa_gradient(np.zeros(3), np.random.default_rng(0), repeats=2000)
        np.testing.assert_allclose(grad, -a, atol=0.15)

    def test_spsa_converges_on_quadratic(self):
        ls, a = self.quad_ls()
        u = np.array([1.0, -1.0, 0.5, 0.0])
        grad = ls.spsa_gradient(u, np.random.default_rng(1), step=1e-4, repeats=256)
        exact = -(a + u)
        assert np.linalg.norm(grad - exact) / np.linalg.norm(exact) < 0.35

    def test_unknown_scheme(self):
        ls, _ = self.quad_ls()
        with pytest.raises(EstimationError):
            ls.fd_gradient(np.zeros(4), scheme="magic")

    def test_spsa_cost_independent_of_dim(self):
        ls, _ = self.quad_ls()
        ls.spsa_gradient(np.zeros(4), np.random.default_rng(0), repeats=3)
        assert ls.n_evals == 6

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_gradient_dimension_matches(self, dim):
        ls, _ = self.quad_ls(dim)
        g = ls.fd_gradient(np.zeros(dim), step=0.01)
        assert g.shape == (dim,)
