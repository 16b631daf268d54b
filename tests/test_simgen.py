import numpy as np
import pytest

from ardlkit import (
    Ar1,
    ArdlProcess,
    BreakModel,
    CointegratedPair,
    RandomWalk,
    adf_test,
    derive_seed,
    generate,
)
from ardlkit.dataio import difference
from ardlkit.errors import InvalidParameters
from ardlkit.simgen import dgp_from_dict, gaussian_stream


class TestReproducibility:
    def test_identical_dgp_identical_data(self):
        a = generate(CointegratedPair(T=100, seed=13))
        b = generate(CointegratedPair(T=100, seed=13))
        assert a["Y"].values.tolist() == b["Y"].values.tolist()
        assert a["X"].values.tolist() == b["X"].values.tolist()

    def test_different_seeds_nearly_independent(self):
        a = generate(Ar1(T=1000, seed=1, phi=0.0))["Y"].values
        b = generate(Ar1(T=1000, seed=2, phi=0.0))["Y"].values
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_one_calendar_per_length(self):
        # every dataset of one length has one index
        a = generate(CointegratedPair(T=100, seed=13))
        b = generate(RandomWalk(T=100, seed=14))
        assert a["Y"].index == a["X"].index == b["Y"].index
        assert isinstance(a.index, tuple)
        assert a.index[0] == (2000, 1) and a.index[-1] == (2008, 4)
        assert generate(RandomWalk(T=101, seed=14)).index[:100] == a.index

    def test_derived_seeds_are_stable_and_distinct(self):
        assert derive_seed(13, 0) == derive_seed(13, 0)
        assert derive_seed(13, 0) != derive_seed(13, 1)
        assert derive_seed(13, 1) != derive_seed(14, 1)

    def test_stream_is_standard_normal(self):
        z = gaussian_stream(31, 10000)
        assert abs(z.mean()) < 3.0 / np.sqrt(10000)
        assert abs(z.std() - 1.0) < 0.03


class TestKinds:
    def test_white_noise_mean_bound(self):
        values = generate(Ar1(T=10000, seed=4, phi=0.0, c=0.0))["Y"].values
        assert abs(values.mean()) < 3.0 / np.sqrt(10000)

    def test_differenced_random_walk_is_stationary(self):
        s = generate(RandomWalk(T=400, seed=6))["Y"]
        res = adf_test(difference(s, 1))
        assert res.verdict_at[0.05] == "stationary"

    def test_burn_in_starts_near_process_mean(self):
        # mean is c/(1-phi) = 50; without burn-in the first draws would
        # sit near zero
        values = generate(Ar1(T=200, seed=8, phi=0.5, c=25.0))["Y"].values
        assert abs(values[:20].mean() - 50.0) < 5.0

    def test_cointegrated_pair_tracks_equilibrium(self):
        ds = generate(CointegratedPair(T=400, seed=13, beta=3.0,
                                       adjustment=-0.6))
        gap = ds["Y"].values - 3.0 * ds["X"].values
        assert abs(gap.mean()) < 1.0
        assert np.std(gap) < 5.0

    def test_ardl_process_shapes(self):
        ds = generate(ArdlProcess(T=150, seed=11, phi=(0.5,), theta=(1.0,)))
        assert ds.n == 150
        assert set(ds.series) == {"Y", "X"}

    def test_break_model_regimes(self):
        ds = generate(BreakModel(T=100, seed=3, break_point=50,
                                 pre=(0.0, 1.0), post=(10.0, 1.0),
                                 sigma=0.1))
        y, x = ds["Y"].values, ds["X"].values
        assert abs((y - x)[:50].mean()) < 0.2
        assert abs((y - x)[50:].mean() - 10.0) < 0.2


class TestValidation:
    def test_minimum_length(self):
        with pytest.raises(InvalidParameters):
            RandomWalk(T=10, seed=1)

    def test_explosive_ar1(self):
        with pytest.raises(InvalidParameters):
            Ar1(T=100, seed=1, phi=1.0)

    def test_adjustment_domain(self):
        with pytest.raises(InvalidParameters):
            CointegratedPair(T=100, seed=1, adjustment=0.5)
        with pytest.raises(InvalidParameters):
            CointegratedPair(T=100, seed=1, adjustment=-2.5)

    def test_nonstationary_ardl_poly(self):
        with pytest.raises(InvalidParameters):
            ArdlProcess(T=100, seed=1, phi=(0.7, 0.4), theta=(1.0,))

    def test_break_point_bounds(self):
        with pytest.raises(InvalidParameters):
            BreakModel(T=100, seed=1, break_point=100)

    def test_dgp_from_dict(self):
        dgp = dgp_from_dict({"kind": "cointegrated_pair", "T": 50,
                             "seed": 2, "beta": 2.0, "adjustment": -0.4})
        assert isinstance(dgp, CointegratedPair)
        assert dgp.beta == 2.0

    def test_dgp_from_dict_unknown_kind(self):
        with pytest.raises(InvalidParameters):
            dgp_from_dict({"kind": "bogus", "T": 50, "seed": 2})

    def test_dgp_from_dict_bad_parameter(self):
        with pytest.raises(InvalidParameters):
            dgp_from_dict({"kind": "ar1", "T": 50, "seed": 2, "nope": 1})
