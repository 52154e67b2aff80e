import warnings

import numpy as np
import pytest
from scipy.special import expit

from snnadv.errors import ConfigError, EvaluationError
from snnadv.numerics import max_rel_err
from snnadv.surrogate import (KINDS, PIECEWISE_EXP, PIECEWISE_LINEAR, RECTANGULAR,
                              SurrogateSpec, antiderivative, canonical_kind, heaviside,
                              kink_distance, surrogate_grad)

GRID = np.linspace(-4.0, 6.0, 10_001)  # dense potential grid around theta=1

NON_PLATEAU = ("sigmoid", "erfc", "arctan", "fast_sigmoid", "piecewise_exp")


def spec_for(kind):
    return SurrogateSpec(kind=kind)


class TestHeaviside:
    def test_boundary_inclusive(self):
        out = heaviside(np.array([0.5, 1.0, 1.5]), 1.0)
        assert np.array_equal(out, [0.0, 1.0, 1.0])

    def test_at_threshold_everywhere(self):
        assert np.array_equal(heaviside(np.full(4, 2.5), 2.5), np.ones(4))

    def test_binary_and_monotone_over_grid(self):
        out = heaviside(GRID, 1.0)
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("threshold", [np.inf, -np.inf, np.nan])
    def test_direct_call_rejects_non_finite_threshold(self, threshold):
        with pytest.raises(EvaluationError):
            heaviside(GRID, threshold)

    def test_out_receives_the_spikes_in_its_dtype(self):
        out = np.full(3, 7.0, dtype=np.float32)
        got = heaviside(np.array([0.5, 1.0, 1.5], dtype=np.float32), 1.0, out=out)
        assert got is out and out.tolist() == [0.0, 1.0, 1.0]


class TestKernelValues:
    def test_sigmoid_peak(self):
        assert surrogate_grad(spec_for("sigmoid"), np.array([1.0]))[0] == pytest.approx(0.25)

    def test_arctan_peak(self):
        assert surrogate_grad(spec_for("arctan"), np.array([1.0]))[0] == pytest.approx(1.0)

    def test_erfc_peak(self):
        spec = SurrogateSpec(kind="erfc", sigma=1.0)
        assert surrogate_grad(spec, np.array([1.0]))[0] == pytest.approx(1 / np.sqrt(2 * np.pi))

    def test_rectangular_window_and_unit_integral(self):
        spec = SurrogateSpec(kind="rectangular", alpha=1.0)
        vals = surrogate_grad(spec, GRID)
        inside = np.abs(GRID - 1.0) < 0.5
        assert np.all(vals[inside] == 1.0)
        assert np.all(vals[~inside] == 0.0)
        # quadrature oracle: the window integrates to one over the potential axis
        assert np.trapezoid(vals, GRID) == pytest.approx(1.0, abs=2e-3)

    def test_aliases(self):
        assert canonical_kind("PWL") == PIECEWISE_LINEAR
        assert canonical_kind("actfun") == RECTANGULAR
        assert canonical_kind("pwe") == PIECEWISE_EXP
        with pytest.raises(ConfigError):
            canonical_kind("bogus")

    def test_hyperparameters_positive(self):
        with pytest.raises(ConfigError):
            SurrogateSpec(kind="erfc", sigma=0.0)

    @pytest.mark.parametrize("name", ["sigma", "alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_hyperparameters_finite(self, name, value):
        # an infinite sigma made the erfc kernel 0 everywhere
        with pytest.raises(ConfigError,
                           match=f"^surrogate {name} must be > 0 and finite, got {value}$"):
            SurrogateSpec(kind="erfc", **{name: value})


class TestKernelProperties:
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_negative(self, kind):
        assert np.all(surrogate_grad(spec_for(kind), GRID) >= 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_at_threshold(self, kind):
        vals = surrogate_grad(spec_for(kind), GRID)
        peak = vals.max()
        at_theta = surrogate_grad(spec_for(kind), np.array([1.0]))[0]
        # theta belongs to the argmax set (plateau kernels have a set, not a point)
        assert at_theta == pytest.approx(peak, rel=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetry_about_threshold(self, kind):
        d = np.linspace(0.0, 4.0, 2001)
        hi = surrogate_grad(spec_for(kind), 1.0 + d)
        lo = surrogate_grad(spec_for(kind), 1.0 - d)
        assert np.allclose(hi, lo, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", NON_PLATEAU)
    def test_monotone_decay_away_from_threshold(self, kind):
        d = np.linspace(0.0, 4.0, 2001)
        vals = surrogate_grad(spec_for(kind), 1.0 + d)
        assert np.all(np.diff(vals) <= 1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_finite_everywhere(self, kind):
        assert np.all(np.isfinite(surrogate_grad(spec_for(kind), GRID)))


class TestAntiderivative:
    @pytest.mark.parametrize("kind", KINDS)
    def test_derivative_recovers_kernel(self, kind):
        spec = spec_for(kind)
        h = 1e-6
        v = np.linspace(-2.0, 4.0, 501)
        # keep clear of kinks where the two-sided difference straddles a corner
        v = v[kink_distance(spec, v) > 10 * h]
        fd = (antiderivative(spec, v + h) - antiderivative(spec, v - h)) / (2 * h)
        assert max_rel_err(fd, surrogate_grad(spec, v)) <= 1e-4

    def test_literal_pwe_has_no_antiderivative(self):
        spec = SurrogateSpec(kind="piecewise_exp", pwe_literal=True)
        with pytest.raises(ConfigError):
            antiderivative(spec, np.array([1.0]))


class TestVariantForms:
    def test_pwe_default_decays_literal_grows(self):
        dec = SurrogateSpec(kind="piecewise_exp")
        lit = SurrogateSpec(kind="piecewise_exp", pwe_literal=True)
        far, near = np.array([3.0]), np.array([1.0])
        assert surrogate_grad(dec, far)[0] < surrogate_grad(dec, near)[0]
        assert surrogate_grad(lit, far)[0] > surrogate_grad(lit, near)[0]

    def test_literal_pwe_overflow_rejected(self):
        spec = SurrogateSpec(kind="piecewise_exp", pwe_literal=True)
        with np.errstate(over="ignore"), pytest.raises(
                EvaluationError, match="^literal piecewise-exp overflowed; use the default form$"):
            surrogate_grad(spec, np.array([1000.0]))

    def test_fast_sigmoid_forms(self):
        printed = SurrogateSpec(kind="fast_sigmoid")
        conv = SurrogateSpec(kind="fast_sigmoid", fs_conventional=True)
        v = np.array([2.0])
        assert surrogate_grad(printed, v)[0] == pytest.approx(1.0 / (1.0 + 4.0))
        assert surrogate_grad(conv, v)[0] == pytest.approx(1.0 / 4.0)


SPECS = [SurrogateSpec(kind=k) for k in KINDS] + [
    SurrogateSpec(kind="fast_sigmoid", fs_conventional=True)]


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + "-conv" * s.fs_conventional)
    def test_kernel_and_antiderivative_keep_the_potential_dtype(self, spec, dtype):
        # a numpy float64 constant would promote float32 potentials (NEP 50)
        v = GRID.astype(dtype)
        assert surrogate_grad(spec, v).dtype == dtype
        assert antiderivative(spec, v).dtype == dtype

    def test_literal_pwe_kernel_is_64_bit(self):
        # documented exception: its range overflows float32
        spec = SurrogateSpec(kind="piecewise_exp", pwe_literal=True)
        assert surrogate_grad(spec, GRID.astype(np.float32)).dtype == np.float64


class TestSigmoidTails:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_warning_free_and_matches_closed_form(self, dtype):
        mag = np.logspace(-6, 4, 401)
        d = np.concatenate([-mag[::-1], [0.0], mag]).astype(dtype)
        spec = spec_for("sigmoid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kern = surrogate_grad(spec, d + 1.0, threshold=1.0)
            soft = antiderivative(spec, d, threshold=0.0)
        assert np.all(np.isfinite(kern)) and np.all(np.isfinite(soft))
        # references in float64 from the very potentials the kernel saw
        d64 = ((d + 1.0) - 1.0).astype(np.float64)
        eps = float(np.finfo(dtype).eps)
        np.testing.assert_allclose(kern, expit(d64) * expit(-d64), rtol=4 * eps, atol=eps)
        np.testing.assert_allclose(soft, expit(d.astype(np.float64)), rtol=4 * eps, atol=eps)
