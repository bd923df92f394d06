"""Gradient MPFP search tests on geometries with known design points."""

import numpy as np
import pytest

from repro.highsigma.analytic import (
    HypersphereLimitState,
    LinearLimitState,
    QuadraticLimitState,
    UnionLimitState,
)
from repro.highsigma.limitstate import LimitState
from repro.highsigma.mpfp import MpfpOptions, MpfpSearch


class TestLinearGeometry:
    def test_finds_exact_design_point(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        res = MpfpSearch(ls).run()
        assert res.converged
        assert res.beta == pytest.approx(4.0, abs=0.02)
        np.testing.assert_allclose(res.u_star, 4.0 * ls.a, atol=0.05)

    def test_exact_gradient_converges_faster(self):
        ls_fd = LinearLimitState(beta=4.0, dim=10)
        fd = MpfpSearch(ls_fd).run()
        ls_ex = LinearLimitState(beta=4.0, dim=10)
        exact = MpfpSearch(ls_ex, grad_fn=ls_ex.gradient).run()
        assert exact.converged and fd.converged
        assert exact.n_evals < fd.n_evals

    def test_arbitrary_direction(self):
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        ls = LinearLimitState(beta=3.5, dim=4, direction=direction)
        res = MpfpSearch(ls).run()
        assert res.beta == pytest.approx(3.5, abs=0.02)
        cos = res.u_star @ ls.a / res.beta
        assert cos == pytest.approx(1.0, abs=1e-3)

    def test_eval_count_includes_gradient_cost(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        res = MpfpSearch(ls).run()
        assert res.n_evals == ls.n_evals
        # At least one central gradient (2d) plus line-search points.
        assert res.n_evals >= 2 * 6


class TestCurvedGeometry:
    def test_quadratic_design_point_on_axis(self):
        # For g = beta + k/2 ||u_perp||^2 - u1, the MPFP is exactly
        # (beta, 0, ..., 0) since any perpendicular excursion only hurts.
        ls = QuadraticLimitState(beta=4.5, dim=8, kappa=0.2)
        res = MpfpSearch(ls).run()
        assert res.converged
        assert res.beta == pytest.approx(4.5, abs=0.05)
        np.testing.assert_allclose(res.u_star[1:], 0.0, atol=0.1)

    def test_sphere_radius_found(self):
        ls = HypersphereLimitState(radius=4.0, dim=5)
        # The sphere is a degenerate case (every direction is an MPFP);
        # a perturbed start breaks the symmetry.
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(5) * 0.1
        res = MpfpSearch(ls).run(u0=u0, rng=rng)
        assert res.beta == pytest.approx(4.0, abs=0.05)

    def test_union_finds_nearest_region_from_biased_start(self):
        ls = UnionLimitState([3.0, 5.0], dim=4)
        res = MpfpSearch(ls).run(u0=np.array([0.5, 0.0, 0.0, 0.0]))
        # Started toward the beta=3 region: must find it, not the 5 one.
        assert res.beta == pytest.approx(3.0, abs=0.05)


class TestOptionsAndModes:
    def test_spsa_mode_reaches_neighbourhood(self):
        ls = LinearLimitState(beta=4.0, dim=6)
        opts = MpfpOptions(grad_mode="spsa", spsa_repeats=16, max_iterations=80,
                           tol_align=0.05)
        res = MpfpSearch(ls, options=opts).run(rng=np.random.default_rng(0))
        # SPSA is noisy; accept a looser neighbourhood of the answer and
        # require the returned point to actually be near the boundary.
        assert res.beta == pytest.approx(4.0, abs=0.6)
        assert abs(res.g_value) < 0.5

    def test_forward_mode_works(self):
        ls = LinearLimitState(beta=3.0, dim=5)
        opts = MpfpOptions(grad_mode="forward")
        res = MpfpSearch(ls, options=opts).run()
        assert res.beta == pytest.approx(3.0, abs=0.05)

    def test_unknown_mode_raises(self):
        from repro.errors import SearchError

        ls = LinearLimitState(beta=3.0, dim=2)
        opts = MpfpOptions(grad_mode="newton")
        with pytest.raises(SearchError):
            MpfpSearch(ls, options=opts).run()
        assert ls.n_evals == 0  # refused before anything was simulated

    def test_iteration_cap_returns_unconverged(self):
        ls = QuadraticLimitState(beta=5.0, dim=10, kappa=0.3)
        opts = MpfpOptions(max_iterations=2)
        res = MpfpSearch(ls, options=opts).run()
        assert not res.converged
        assert res.iterations <= 3

    def test_no_boundary_returns_unconverged(self):
        # A margin field that never crosses zero has no design point: the
        # search must say so rather than report a beta, and bill what it ran.
        ls = LimitState(fn=lambda u: 0.0, spec=1.0, dim=3)
        res = MpfpSearch(ls).run()
        assert not res.converged
        assert res.n_evals == ls.n_evals > 0

    def test_trajectory_recorded(self):
        ls = LinearLimitState(beta=3.0, dim=3)
        res = MpfpSearch(ls).run()
        assert len(res.trajectory) == res.iterations + 1
        u0, g0 = res.trajectory[0]
        assert np.all(u0 == 0.0)
        assert g0 > 0  # nominal design passes

    def test_trajectory_norms_approach_beta(self):
        ls = LinearLimitState(beta=4.0, dim=4)
        res = MpfpSearch(ls).run()
        norms = [np.linalg.norm(u) for u, _ in res.trajectory]
        assert norms[-1] == pytest.approx(4.0, abs=0.05)


def _hex_trajectory(result):
    """Each accepted iterate as one string: ``g`` then ``u``, in ``float.hex``."""
    return [" ".join(map(float.hex, [g, *u])) for u, g in result.trajectory]


def _pinned_search(name):
    """A fresh ``(search, run kwargs)`` for one of the pinned searches."""
    if name == "sphere":
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(5) * 0.1
        return MpfpSearch(HypersphereLimitState(radius=4.0, dim=5)), {"u0": u0, "rng": rng}
    if name == "grad_fn":
        ls = LinearLimitState(beta=4.0, dim=10)
        return MpfpSearch(ls, grad_fn=ls.gradient), {}
    spsa = MpfpOptions(grad_mode="spsa", spsa_repeats=16, max_iterations=80, tol_align=0.05)
    return {
        "linear": (MpfpSearch(LinearLimitState(beta=5.0, dim=12)), {}),
        "quadratic": (MpfpSearch(QuadraticLimitState(beta=4.5, dim=8, kappa=0.2)), {}),
        "union": (
            MpfpSearch(UnionLimitState([3.0, 5.0], dim=4)),
            {"u0": np.array([0.5, 0.0, 0.0, 0.0])},
        ),
        "forward": (
            MpfpSearch(LinearLimitState(beta=3.0, dim=5), MpfpOptions(grad_mode="forward")),
            {},
        ),
        "spsa": (
            MpfpSearch(LinearLimitState(beta=4.0, dim=6), spsa),
            {"rng": np.random.default_rng(0)},
        ),
        # Strong curvature: rejected leading steps, fresh stencils and
        # steps below a quarter, all in finite-difference mode.
        "curved": (
            MpfpSearch(QuadraticLimitState(beta=4.0, dim=4, kappa=2.0)),
            {"u0": np.array([0.05, 0.05, 0.0, 0.0])},
        ),
        # So far out that lambda = 1, 1/2 and 1/4 are all pruned in the
        # first iteration and lambda = 1/32 is accepted.
        "far": (MpfpSearch(LinearLimitState(beta=20.0, dim=2)), {}),
    }[name]


PINNED_NAMES = (
    "linear",
    "quadratic",
    "union",
    "forward",
    "spsa",
    "sphere",
    "curved",
    "far",
    "grad_fn",
)


class TestBatchedSearch:
    """The search batches each iteration's Armijo trial steps with the
    stencil around the first of them; the accepted iterates must stay
    those of the one-point-at-a-time iHL-RF search it replaced.

    ``_PINNED`` holds that search's trajectories, recorded with::

        for name in PINNED_NAMES:
            search, kwargs = _pinned_search(name)
            print(name, _hex_trajectory(search.run(**kwargs)))
    """

    @pytest.mark.parametrize("name", PINNED_NAMES)
    def test_trajectory_bit_for_bit(self, name):
        search, kwargs = _pinned_search(name)
        assert _hex_trajectory(search.run(**kwargs)) == list(_PINNED[name])

    @pytest.mark.parametrize("name", PINNED_NAMES)
    def test_n_calls_counts_every_oracle_call(self, name, monkeypatch):
        search, kwargs = _pinned_search(name)
        calls = _record_oracle_calls(search.ls, monkeypatch)
        assert search.run(**kwargs).n_calls == len(calls)

    def test_one_call_per_iteration(self):
        # g(0) with its stencil, then per iteration the surviving steps of
        # lambda = 1, 1/2, 1/4 with the stencil around the first: 3 calls
        # (7 one point at a time) for 2 more simulations (78, was 76).
        res = MpfpSearch(LinearLimitState(beta=5.0, dim=12)).run()
        assert res.converged
        assert res.n_calls == 3
        assert res.n_evals == 78

    def test_hopeless_trial_steps_are_not_simulated(self, monkeypatch):
        # From the origin at 5 sigma, m(0) = 10 and the full step has
        # ||u||^2 / 2 = 12.5: it can never pass the Armijo test.
        ls = LinearLimitState(beta=5.0, dim=12)
        calls = _record_oracle_calls(ls, monkeypatch)
        MpfpSearch(ls, MpfpOptions(max_iterations=1)).run()
        rows = np.concatenate(calls)
        assert len(rows) == ls.n_evals
        assert np.all(0.5 * np.sum(rows**2, axis=1) < 10.0)


def _record_oracle_calls(ls, monkeypatch):
    """Record every ``g`` / ``g_batch`` call on ``ls``: one ``(rows, dim)``
    array of its points per call."""
    calls = []
    for method in ("g", "g_batch"):
        inner = getattr(ls, method)

        def recorded(u, inner=inner):
            calls.append(np.atleast_2d(u).copy())
            return inner(u)

        monkeypatch.setattr(ls, method, recorded)
    return calls


#: Trajectories of the one-point-at-a-time search (see TestBatchedSearch):
#: per accepted iterate, ``g`` then ``u``, in ``float.hex``.
_PINNED = {
    "linear": (
        "0x1.4000000000000p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.3ffffffffffecp+1 0x1.4000000000014p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "-0x1.4000000000000p-47 0x1.400000000000ap+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
    "quadratic": (
        "0x1.2000000000000p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.1ffffffffffeep+1 0x1.2000000000012p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "-0x1.2000000000000p-47 0x1.2000000000009p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
    "union": (
        "0x1.4000000000000p+1 0x1.0000000000000p-1 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "-0x1.4000000000000p-47 0x1.8000000000014p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
    "forward": (
        "0x1.8000000000000p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "-0x1.8000000000000p-47 0x1.8000000000018p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
    "spsa": (
        "0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x1.5c5f02a3a0facp+0 0x1.51d07eae2f82ap+1 0x1.fab8be054743fp-1 0x1.51d07eae2f82ap-1 0x1.51d07eae2f82ap-1 0x0.0p+0 -0x1.51d07eae2f82ap+0",
        "0x1.634dcbecef540p+0 0x1.4e591a0988560p+1 0x1.f585a70e4c810p-1 0x1.5ffebd4fc4219p-1 0x1.10955e93b70d9p-1 0x1.1a5a3463bcb8fp-4 -0x1.458648666a704p+0",
        "0x1.5e008afef0454p-1 0x1.a87fdd4043eebp+1 -0x1.a87fdd4043eecp-1 0x1.a87fdd4043eebp-1 0x1.a87fdd4043eebp-2 0x0.0p+0 0x1.a87fdd4043eecp-2",
        "0x1.5efca5fdd0470p-1 0x1.a840d6808bee4p+1 -0x1.a4b927b6b7458p-1 0x1.a9aa4f9e1431dp-1 0x1.a6d75d6303aacp-2 0x1.69791d884386bp-9 0x1.a6d75d6303aadp-2",
        "0x1.8a0689def1c68p-1 0x1.9d7e5d88438e6p+1 -0x1.592c859a83153p-2 0x1.0f98dd62a1d78p-1 0x1.bba792c4d048cp-3 0x1.85afc9509c03ep-4 0x1.3d21860a42c02p-2",
        "0x1.20bf56fe667d8p-1 0x1.b7d02a406660ap+1 0x0.0p+0 -0x1.b7d02a406660ap-2 0x1.b7d02a406660ap-1 0x1.b7d02a406660ap-1 -0x1.b7d02a406660ap-2",
        "0x1.62dd2183f9c70p-3 0x1.e9d22de7c0639p+1 0x0.0p+0 -0x1.e9d22de7c0639p-2 -0x1.e9d22de7c0638p-2 0x0.0p+0 0x0.0p+0",
        "0x1.65d79906d2ae0p-3 0x1.e9a2866f92d52p+1 -0x1.ba2ab5ba31f79p-9 -0x1.e474064e643f4p-2 -0x1.e9a2866f92d51p-2 0x0.0p+0 0x0.0p+0",
        "0x1.6a1feee456ce0p-3 0x1.e95e0111ba932p+1 -0x1.b8708b0477c5ap-9 -0x1.df4557f6e7396p-2 -0x1.eca83b62e934bp-2 0x1.a51d289750cf5p-10 0x1.a51d289750cf5p-10",
        "0x1.6ce7255502180p-3 0x1.e9318daaafde8p+1 -0x1.b0859aebe0a26p-10 -0x1.e0dfe7d2fe5e2p-2 -0x1.ee35685b94577p-2 -0x1.9728e984c7ad0p-14 -0x1.d65d289f52741p-10",
        "0x1.7901f560734e0p-3 0x1.e86fe0a9f8cb2p+1 -0x1.9339d247d9b64p-8 -0x1.db887a44508a3p-2 -0x1.ec4732f338c32p-2 -0x1.40dda8fd50b43p-10 0x1.64c5b42bdf7b0p-9",
        "0x1.81b96af3dc490p-3 0x1.e7e46950c23b7p+1 -0x1.3a687698b7954p-8 -0x1.d4390fac3e953p-2 -0x1.e8fdf338d2214p-2 0x1.d5bbc1f15b980p-14 0x1.9a19c1129fa00p-15",
        "0x1.892ce4ba57130p-3 0x1.e76d31b45a8edp+1 -0x1.26d7d3e877876p-7 -0x1.d82789d036acfp-2 -0x1.e714f545994f2p-2 -0x1.620d9cb79a44fp-9 0x1.7d70ca23a1fedp-10",
        "0x1.8fd83fcaa8f20p-3 0x1.e7027c035570ep+1 -0x1.84dedc405e393p-7 -0x1.dac588c8742c3p-2 -0x1.e0b7b9ce45ffep-2 -0x1.60ab8f1ae2aabp-9 0x1.7bf359597e5cdp-10",
        "0x1.95cac6a4109a0p-3 0x1.e6a35395bef66p+1 -0x1.b4553f31b939ap-7 -0x1.da729d4e18930p-2 -0x1.e67e445c9800bp-2 -0x1.5f4ae38bc7c80p-9 0x1.7a77660024de7p-10",
        "0x1.9c5d3df9354c0p-3 0x1.e63a2c206cab4p+1 -0x1.08fff0c1b23aep-6 -0x1.dd109e4b94d5fp-2 -0x1.e61541f67edc8p-2 -0x1.6db3bb75d7eadp-8 0x1.7c5c2259200e8p-8",
        "0x1.a06a17fffb0c0p-3 0x1.e5f95e80004f4p+1 -0x1.db40502b5efb0p-7 -0x1.e023d35065733p-2 -0x1.e289c028d44cfp-2 -0x1.1f7e26ca35360p-7 0x1.e43ae923cb1b0p-8",
        "0x1.a62bd78de7440p-3 0x1.e59d4287218bcp+1 -0x1.368c0afbd5353p-6 -0x1.de43af7d150dcp-2 -0x1.df1d59030a3bdp-2 -0x1.77ce9e7637992p-8 0x1.1d67fb6a08e77p-8",
        "0x1.a93fdefdd6e60p-3 0x1.e56c02102291ap+1 -0x1.6be11861de4e1p-6 -0x1.dc656bcd97f8bp-2 -0x1.d9d58212f6e2bp-2 -0x1.e36e02b9cb3dap-8 0x1.1c4a936e9ede9p-8",
        "0x1.ae5827a53f5f0p-3 0x1.e51a7d85ac0a1p+1 -0x1.83b3aec3161fdp-6 -0x1.d5cd4ffafd8fbp-2 -0x1.db237b801721dp-2 -0x1.2342394ebc196p-7 0x1.6c68d5e992fecp-9",
        "0x1.b520d59a7dc30p-3 0x1.e4adf2a65823dp+1 -0x1.b141eeda8bc36p-6 -0x1.d6e8a1e7661dcp-2 -0x1.dac0e7a2c8d08p-2 -0x1.af54d268178a6p-7 0x1.cfe9ed2f29102p-8",
        "0x1.ba5203a177000p-3 0x1.e45adfc5e8900p+1 -0x1.7d5d4aa4d8ac5p-6 -0x1.d1ee8321112efp-2 -0x1.d7548ba8ef435p-2 -0x1.dfd8dfdc87fe2p-7 0x1.4b73c62eae0a2p-7",
        "0x1.c21835c7a1cc0p-3 0x1.e3de7ca385e34p+1 -0x1.a8dee5069b4d1p-6 -0x1.cd4ca52329a63p-2 -0x1.d2ad47a27fdc7p-2 -0x1.b0fa0f5043fccp-7 0x1.d125396db5c84p-7",
        "0x1.c753b38d837a0p-3 0x1.e38ac4c727c86p+1 -0x1.a736062194b1cp-6 -0x1.ce9fa5be91529p-2 -0x1.cdba4d1a52869p-2 -0x1.22abc8ad7ded6p-6 0x1.00ac741e7ab99p-6",
        "0x1.c7de73ad7f790p-3 0x1.e38218c528087p+1 -0x1.c33cbc47e99adp-6 -0x1.ccd10618d2c14p-2 -0x1.cfa25052c703cp-2 -0x1.03db30b859f1bp-6 0x1.1d59b3d6d2bcap-6",
        "0x1.cb2a612609550p-3 0x1.e34d59ed9f6abp+1 -0x1.c1797f8ba1b13p-6 -0x1.c7a6ae9040d9fp-2 -0x1.d1303484ed515p-2 -0x1.02d75587a197cp-6 0x1.ccc7e3f6d5411p-7",
        "0x1.d3a8154f20430p-3 0x1.e2c57eab0dfbdp+1 -0x1.bfb8060c160f8p-6 -0x1.c73a79f90cc9ap-2 -0x1.d215e87f20c52p-2 -0x1.accc768d27c91p-7 0x1.e3a79af280274p-8",
        "0x1.d8512a91490f0p-3 0x1.e27aed56eb6f1p+1 -0x1.d77b90ae920ccp-6 -0x1.ca3bdbfead407p-2 -0x1.d3743aebb2a6cp-2 -0x1.08965a5c5d774p-6 0x1.15a9de134d0cbp-8",
        "0x1.e139f8cde0290p-3 0x1.e1ec607321fd7p+1 -0x1.c06534850bddep-6 -0x1.c871a022ae933p-2 -0x1.cda4fc941e86bp-2 -0x1.8fa2446ef486ap-7 0x1.5a1ad0b1e65b0p-12",
        "0x1.e769fa6714890p-3 0x1.e18960598eb77p+1 -0x1.bea4cf5086d20p-6 -0x1.c22c69adec509p-2 -0x1.cbd757978a683p-2 -0x1.8e12a22a85922p-7 0x1.34bd4085f84b5p-8",
        "0x1.eb7b7d07ffeb0p-3 0x1.e148482f80015p+1 -0x1.bce62a81364b3p-6 -0x1.c20aae7a893cep-2 -0x1.cd4c62ac888f0p-2 -0x1.f4a0dd1b11337p-7 -0x1.33195cac086c0p-14",
        "0x1.f40a246e259f0p-3 0x1.e0bf5db91da61p+1 -0x1.6511cfe36be32p-6 -0x1.bef045fa418eep-2 -0x1.ccd7741ba92b3p-2 -0x1.39e7b57571f67p-6 0x1.4ece9fb2a9e3dp-9",
        "0x1.faa54cfaed0a0p-3 0x1.e055ab30512f6p+1 -0x1.a9ff25ffe7c4ap-6 -0x1.bd3155b4474d5p-2 -0x1.c81c82fdb4342p-2 -0x1.09cc332267a64p-6 0x1.624652ffcf15fp-8",
        "0x1.fb5f53c242f40p-3 0x1.e04a0ac3dbd0cp+1 -0x1.c5a07ac59705ep-6 -0x1.b99f6f1fd8137p-2 -0x1.c9fdd0f82c651p-2 -0x1.260dbadaf467ap-6 0x1.60e40caccf46ep-8",
        "0x1.f976ee99c8da0p-3 0x1.e068911663726p+1 -0x1.54385c1431446p-6 -0x1.c3689c5b60a47p-2 -0x1.577e5cba214bdp-2 0x1.c532da89736dbp-3 0x1.08ab09819b752p-8",
        "0x1.fca125595e2c0p-3 0x1.e035edaa6a1d4p+1 -0x1.3807d1664c2e4p-6 -0x1.c6ae832e5c6ebp-2 -0x1.598268a7a1472p-2 0x1.ca24bc435e338p-3 0x1.07a25e7819d9bp-8",
        "0x1.018784648a360p-2 0x1.dfcf0f736eb94p+1 -0x1.36cfc994e5e21p-6 -0x1.c953dbcf3b24ap-2 -0x1.5c94ed6306b83p-2 0x1.d132a5cf34fa0p-3 0x1.27bb83087ac0ep-10",
        "0x1.04b978041fa08p-2 0x1.df68d0ff7c0bfp+1 -0x1.4d3203835d124p-6 -0x1.cbf739c5ee2dap-2 -0x1.5cb1e9112472ep-2 0x1.d25494606747dp-3 -0x1.2feba99f64d00p-8",
        "0x1.09f617e79a060p-2 0x1.dec13d030cbf4p+1 -0x1.24ea36edd3c94p-6 -0x1.c7bb98e307e0bp-2 -0x1.5675e3d5d290fp-2 0x1.cba2ec79c6231p-3 -0x1.25a2a75b5b76ep-9",
        "0x1.0dc9aa311d2c8p-2 0x1.de46cab9dc5a7p+1 -0x1.c1ecfdfeccf30p-7 -0x1.c1c6f06eace11p-2 -0x1.53bb1efe2a167p-2 0x1.c9d7498d4c5cfp-3 0x1.fe8f78f53e780p-12",
        "0x1.109a7de6289c0p-2 0x1.ddecb0433aec8p+1 -0x1.fc29cde92de31p-8 -0x1.c30d82266f110p-2 -0x1.526763df2bec6p-2 0x1.c505199b8e33cp-3 0x1.01a8473bc05bcp-9",
        "0x1.113a03e692098p-2 0x1.ddd8bf832dbedp+1 -0x1.87aea80dc167ep-8 -0x1.c14a74a448a1fp-2 -0x1.54a8f45bb8daep-2 0x1.c3401481f2a59p-3 -0x1.92aaa28311338p-10",
        "0x1.147ef98d55858p-2 0x1.dd7020ce554f5p+1 -0x1.8626f965b3a68p-8 -0x1.c2739e44f9d5dp-2 -0x1.5069d75207a58p-2 0x1.c4674882c62f7p-3 -0x1.d98008a2e1cb3p-8",
        "0x1.1649d661bf890p-2 0x1.dd36c533c80eep+1 -0x1.1b9bb0dc08b98p-8 -0x1.c0b12aa6b4dc0p-2 -0x1.5261968737c7ap-2 0x1.bf5ab82dc13f7p-3 -0x1.392e47d2de7acp-9",
        "0x1.1bf33e77887a0p-2 0x1.dc8198310ef0cp+1 -0x1.e3c61a7969d1cp-11 -0x1.bca065f718d34p-2 -0x1.54875238208dbp-2 0x1.bd9b5d75937e3p-3 0x1.ac234ca79d444p-9",
        "0x1.1c868ac5a7d28p-2 0x1.dc6f2ea74b05bp+1 -0x1.5d849c4e4e0d1p-9 -0x1.bae3c59121ba7p-2 -0x1.56c6fb02c2b4fp-2 0x1.c3062251d27a5p-3 0x1.47c19848c3cd0p-8",
        "0x1.1e159b0e4cf38p-2 0x1.dc3d4c9e36619p+1 -0x1.5c2717b1ffbf0p-9 -0x1.b77e54a5fdf1dp-2 -0x1.571ac12d52992p-2 0x1.b743cd4e10be7p-3 0x1.4679d6b07b093p-8",
        "0x1.246a8dc9771d0p-2 0x1.db72ae46d11c6p+1 -0x1.3634f2e99f793p-8 -0x1.b4b5375c1f02bp-2 -0x1.517d2a974181cp-2 0x1.acff91d6fb242p-3 0x1.09354a623fba4p-7",
        "0x1.256e76cd28958p-2 0x1.db5231265aed5p+1 -0x1.34febdf6b5d9bp-8 -0x1.b1458c96f241ap-2 -0x1.4cb5c25108fc2p-2 0x1.a7dca72982e4ep-3 0x1.3f8ac6d1f1bc8p-7",
        "0x1.27512f9552918p-2 0x1.db15da0d55addp+1 -0x1.33c9bf38bf23dp-8 -0x1.adf54bf23a33fp-2 -0x1.468c1b4654a0ep-2 0x1.a972c0b29b98dp-3 0x1.0a6bd906fc5d0p-7",
        "0x1.2c8d9fcdd3a40p-2 0x1.da6e4c06458b8p+1 -0x1.0c9de9dbb676ap-7 -0x1.aeae664c42608p-2 -0x1.47ac9ed108b30p-2 0x1.a2fb2ea5f42fbp-3 0x1.24b2253ed5108p-9",
        "0x1.2e11a70ea8f20p-2 0x1.da3dcb1e2ae1cp+1 -0x1.760ca4ecc1b20p-7 -0x1.aea9a549e1b9ep-2 -0x1.4664f23237aa5p-2 0x1.a15833774e3b8p-3 0x1.d138c47d7ff35p-8",
        "0x1.8ed5b6f38b1a0p-4 0x1.f389524863a73p+1 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.f389524863a73p-2 -0x1.f389524863a73p-2",
        "0x1.9f9467ce13340p-4 0x1.f3035cc18f666p+1 -0x1.6d93cb7422da6p-8 0x1.6d93cb7422da6p-10 -0x1.122ed8971a23dp-8 0x1.f195c8f61b439p-2 -0x1.f3035cc18f666p-2",
        "0x1.afb5de3d28360p-4 0x1.f282510e16be5p+1 -0x1.6c2637a8aeb78p-8 0x1.1405628e9f598p-8 -0x1.693d7ed89267cp-9 0x1.f288227fb6f70p-2 -0x1.f84a2fb33a5bbp-2",
        "0x1.c3f896a968860p-4 0x1.f1e03b4ab4bbdp+1 -0x1.6aba11710608dp-8 0x1.12f15d2c10ba2p-8 -0x1.08054417e1fa9p-8 0x1.ea037b98dadadp-2 -0x1.f651e58387215p-2",
        "0x1.cbde930ea4a20p-4 0x1.f1a10b678adafp+1 -0x1.d5fb6d67c9fa4p-8 0x1.eb3697df4e984p-8 -0x1.34a251972a424p-9 0x1.e9cc287562d3dp-2 -0x1.f973a4a66615cp-2",
        "0x1.d616aa2033e00p-4 0x1.f14f4aaefe610p+1 -0x1.1e0ec3589334fp-7 0x1.9099cfb5ddfb4p-7 -0x1.8df617602a92ep-11 0x1.eb221cf2a392dp-2 -0x1.f5da50aee49ecp-2",
        "0x1.dd74eaef43200p-4 0x1.f11458a885e70p+1 -0x1.53bc5d1c0b2d4p-7 0x1.2171e4d887063p-7 0x1.53433be451c24p-9 0x1.e936fad5b0ef4p-2 -0x1.f75130e6a2c2ep-2",
        "0x1.f0db16c0d8fc0p-4 0x1.f0792749f9382p+1 -0x1.a7e15f45e4e1dp-7 0x1.4036aa527bbf1p-8 -0x1.5dc8fd02aa1c0p-10 0x1.eca54fc34a9a5p-2 -0x1.f6afc2afd7f72p-2",
        "0x1.0932254be9cb0p-3 0x1.ef6cddab41635p+1 -0x1.28ae922a1d276p-6 0x1.99bd5ebe2e199p-9 0x1.1a29772175213p-9 0x1.e80c1bd9d0e27p-2 -0x1.f2f0b3dc03d65p-2",
        "0x1.0fbbe4ec33c90p-3 0x1.ef0441b13cc37p+1 -0x1.ed578e463db3bp-7 0x1.152bdb8ce6860p-13 0x1.569b6f5c0baa2p-11 0x1.ec3f534c9197ap-2 -0x1.f284940bce740p-2",
        "0x1.1424678e4efe0p-3 0x1.eebdb9871b102p+1 -0x1.b65ab3c606470p-7 0x1.b9bd828a9f11ap-9 -0x1.fbb35b326350ep-11 0x1.eda40c286418fp-2 -0x1.f58b83be7141fp-2",
        "0x1.15568cef58080p-3 0x1.eeaa97310a7f8p+1 -0x1.15c598f7f16dfp-6 0x1.52e8bb61acd47p-8 -0x1.f9b7a7d730ed9p-11 0x1.ed92037fb23f4p-2 -0x1.f395f83ab2d0bp-2",
        "0x1.19eba45122c90p-3 0x1.ee6145baedd37p+1 -0x1.c0095e78db5e0p-7 0x1.fba508706fc64p-10 0x1.2769a50887fcfp-9 0x1.eeef23be5b49ep-2 -0x1.f1a26242781dep-2",
        "0x1.1e88826058960p-3 0x1.ee1777d9fa76ap+1 -0x1.13b717262362bp-6 0x1.cf1e6417c830cp-9 0x1.ce8fa9476c82ap-8 0x1.ed00349a9cee9p-2 -0x1.efb0bfe035a5cp-2",
        "0x1.223cd4e9eb610p-3 0x1.eddc32b16149fp+1 -0x1.2dd085030a1bfp-6 0x1.e7cc3c2693072p-10 0x1.1cbad6b72c445p-7 0x1.e7ad8fc780b61p-2 -0x1.ec0e3cd114a25p-2",
        "0x1.2d0f016432470p-3 0x1.ed2f0fe9bcdb9p+1 -0x1.68c57890749cdp-6 -0x1.dc47d13c6c3bap-10 0x1.bbfad166ee8aap-7 0x1.e9880e78e00e1p-2 -0x1.ea222e94438dbp-2",
        "0x1.30495caf76c90p-3 0x1.ecfb6a3508937p+1 -0x1.302b87b135906p-6 -0x1.da6b896b2fcf6p-10 0x1.ba3ed695879c1p-7 0x1.e9580fc59ca2cp-2 -0x1.e4c4f9af4460ap-2",
        "0x1.33da4e2f6fe70p-3 0x1.ecc25b1d09019p+1 -0x1.2efb5c29845adp-6 -0x1.25265d626f578p-13 0x1.4b89833194675p-7 0x1.e922a4080c7cdp-2 -0x1.df785c112a2edp-2",
        "0x1.388707b1cb380p-3 0x1.ec778f84e34c8p+1 -0x1.620b392c45544p-6 0x1.7d769c16b2511p-10 0x1.15ff214f78552p-7 0x1.e5978aa10d1c6p-2 -0x1.da54f62f2a5ccp-2",
        "0x1.449f83033b9a0p-3 0x1.ebb607cfcc466p+1 -0x1.86072940d4b49p-6 -0x1.b3cd1ec23d77ap-11 0x1.850314175bcdcp-7 0x1.eab39234ff3e5p-2 -0x1.d74fb15e8d553p-2",
        "0x1.4b33dd23d1f90p-3 0x1.eb4cc22dc2e07p+1 -0x1.9ca82873fa456p-6 -0x1.581776893c297p-8 0x1.22e1f791aadbep-7 0x1.ebcdbf6e570bcp-2 -0x1.d9ffb2de81faep-2",
        "0x1.4bd6f0b7586b0p-3 0x1.eb4290f48a795p+1 -0x1.7cf9c7bc308f6p-6 -0x1.56bf5f12b2ed4p-8 0x1.cb3748f6db731p-8 0x1.e800d625f3590p-2 -0x1.da06ceb498d4ap-2",
        "0x1.54ec92c3ae180p-3 0x1.eab136d3c51e8p+1 -0x1.bc5862fd4d4f5p-6 -0x1.abe2bbbf6c25bp-8 0x1.0ff316dcd8418p-7 0x1.e20b1bff3fd6ap-2 -0x1.d578f70585dc7p-2",
        "0x1.5a19d9b9e92b0p-3 0x1.ea5e6264616d5p+1 -0x1.a11e3e234ec38p-6 -0x1.e1450dbe772ccp-10 0x1.51d7e3d3ecde4p-8 0x1.de91341bd082ep-2 -0x1.d3a37e0e80569p-2",
        "0x1.63656aa3adc80p-3 0x1.e9c9a955c5238p+1 -0x1.b4d77521aceeep-6 0x1.10c61953c7180p-9 0x1.412834681ce00p-10 0x1.db5cfd93ec9acp-2 -0x1.d7266fdf9234cp-2",
        "0x1.6e171b73fefc0p-3 0x1.e91e8e48c0104p+1 -0x1.daf87136a17eap-6 0x1.c68945edeb8dap-8 0x1.3efcb849729cbp-8 0x1.de7c5b079b75cp-2 -0x1.d54f496fb2a29p-2",
        "0x1.6f6f634476ab0p-3 0x1.e90909cbb8955p+1 -0x1.bbe3d7b1568aap-6 0x1.4fdc3857ac581p-8 0x1.4fc2cbc21a584p-10 0x1.de7178bdd51f7p-2 -0x1.d379fa2642effp-2",
        "0x1.7264a5f555a30p-3 0x1.e8d9b5a0aaa5dp+1 -0x1.ba27f3d9a5341p-6 0x1.bcf993cec6f1dp-8 0x1.8413f3da10ab2p-9 0x1.dad9526659814p-2 -0x1.ce33166ea11adp-2",
    ),
    "sphere": (
        "0x1.d4c8d0af503e9p+1 0x1.a1faf0c01ab57p-3 -0x1.05b339b39c2efp-2 0x1.5681aeea2f226p-5 -0x1.d11dea9ff177ap-5 -0x1.72cf6fd3c0089p-5",
        "-0x1.631b7a9f9ef00p-6 0x1.36d96e3cb9931p+1 -0x1.861ff621f964ep+1 0x1.fb8c4c4dde157p-2 -0x1.58aab2e4a9b61p-1 -0x1.12c0b5ae6f685p-1",
        "0x1.e2098ba000000p-21 0x1.352befdb69b69p+1 -0x1.84068b58650e3p+1 0x1.f8cb8a6e91f4ep-2 -0x1.56cc329cbdbe0p-1 -0x1.1143370e54107p-1",
    ),
    "curved": (
        "0x1.f9eb851eb851fp+1 0x1.999999999999ap-5 0x1.999999999999ap-5 0x0.0p+0 0x0.0p+0",
        "0x1.97000ea5d57b0p-3 0x1.fa9d260511bb7p+1 -0x1.954a84d0daf09p-2 0x0.0p+0 0x0.0p+0",
        "0x1.043ac38c1e928p-2 0x1.e1178bfe630bep+1 -0x1.cce54e9529914p-4 0x0.0p+0 0x0.0p+0",
        "0x1.fdf01e602a340p-3 0x1.e2435ddc0add8p+1 0x1.0874347f945cep-3 0x0.0p+0 0x0.0p+0",
        "0x1.e4760ba002720p-3 0x1.e1ba7f090bd36p+1 -0x1.ef9e703348d60p-8 0x0.0p+0 0x0.0p+0",
        "0x1.2f77dac2cc800p-8 0x1.ffe025e9beff7p+1 0x1.ef7f9aff7d264p-5 0x0.0p+0 0x0.0p+0",
        "0x1.664fca2111000p-8 0x1.ff6499e4705c0p+1 0x1.b92785848819cp-6 0x0.0p+0 0x0.0p+0",
        "0x1.75545ea927000p-8 0x1.ff45b03aa52b5p+1 -0x1.ae4fb0914a2b0p-9 0x0.0p+0 0x0.0p+0",
        "0x1.c9aef5aa43000p-11 0x1.fff9ff0760f16p+1 0x1.ae4aa4d143c64p-6 0x0.0p+0 0x0.0p+0",
    ),
    "far": (
        "0x1.4000000000000p+4 0x0.0p+0 0x0.0p+0",
        "0x1.3600000000002p+4 0x1.3ffffffffffb0p-1 0x0.0p+0",
        "0x1.229fffffffffbp+4 0x1.d60000000004ep+0 0x0.0p+0",
        "0x1.b3f000000001dp+3 0x1.981ffffffffc6p+2 0x0.0p+0",
        "-0x1.4800000000000p-42 0x1.4000000000052p+4 0x0.0p+0",
    ),
    "grad_fn": (
        "0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x1.0000000000000p+2 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    ),
}
