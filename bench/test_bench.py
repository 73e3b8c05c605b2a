"""Tests of the benchmark's own references, input laws and tracer.

Run with `python3 -m pytest bench -q` from the repository root.  They check
the references against closed forms and a plain RK4 integration, never
against diskflow's output.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import cli_session  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def rk4(f, z0: complex, t: float, steps: int = 4000) -> complex:
    h, z = t / steps, complex(z0)
    for _ in range(steps):
        k1 = f(z)
        k2 = f(z + h / 2 * k1)
        k3 = f(z + h / 2 * k2)
        k4 = f(z + h * k3)
        z += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def test_koenigs_reference_value():
    w, _ = ref.koenigs_orbit(0.0, -2.0, 0.5, 0.1)
    assert abs(w - 0.43220718724561547) <= 1e-12


def test_koenigs_reference_matches_rk4_of_reference_generator():
    theta, lam, z0, t = 2.1, -0.7, 0.4 - 0.3j, 0.8

    def g(z):
        return complex(ref.generator(0j, [theta], [lam], [], [], 0.0, np.array([z]))[0])

    w, dw = ref.koenigs_orbit(theta, lam, z0, t)
    assert abs(w - rk4(g, z0, t)) <= 1e-12
    eps = 1e-6
    fd = (ref.koenigs_orbit(theta, lam, z0 + eps, t)[0] - ref.koenigs_orbit(theta, lam, z0 - eps, t)[0]) / (2 * eps)
    assert abs(dw - fd) <= 1e-8
    assert ref.koenigs_orbit(theta, lam, 0j, t)[1] == pytest.approx(math.exp(-2 * abs(lam) * t), rel=1e-15)


def test_herglotz_single_atom_and_constant():
    z = np.array([0.0, 0.3 + 0.2j, -0.5j])
    assert np.allclose(ref.herglotz([0.0], [1.0], 0.0, z), (1 + z) / (1 - z), rtol=1e-15)
    assert ref.herglotz([1.0, 2.0], [0.5, 0.25], 3.0, np.array([0j]))[0] == pytest.approx(0.75 + 3j)


def test_generator_vanishes_at_tau_with_spectral_value_slope():
    rng = np.random.default_rng(7)
    for regime in ("interior", "origin"):
        d = inputs.generic(rng, regime)
        tau = d.tau
        assert abs(ref.generator(*d.params, np.array([tau]))[0]) <= 1e-15
        eps = 1e-6
        slope = (ref.generator(*d.params, np.array([tau + eps]))[0] - ref.generator(*d.params, np.array([tau - eps]))[0]) / (2 * eps)
        assert slope == pytest.approx(-ref.dw_spectral_value(*d.params), rel=1e-6)


def test_distances_and_schwarz_pick():
    tau = 0.3 + 0.4j
    assert ref.pseudo_hyperbolic(tau, tau) == 0.0
    assert ref.horocycle(0j, 1j) == 1.0
    assert ref.schwarz_pick_ratio(0.2, 0.2, 1.0) == pytest.approx(1.0)


def test_match_atoms_handles_order_and_wraparound():
    a = ([0.1, 2 * math.pi - 1e-12], [1.0, 2.0])
    assert ref.match_atoms(*a, [1e-13, 0.1], [2.0, 1.0], 1e-9)
    assert not ref.match_atoms(*a, [0.1, 3.0], [1.0, 2.0], 1e-9)
    assert not ref.match_atoms(*a, [0.1], [1.0], 1e-9)
    assert not ref.match_atoms(*a, [0.1, 0.0], [1.0, 2.0 + 1e-6], 1e-9)


def test_cli_expected_regions_by_hand():
    cfg = {"tau": {"re": 0.5, "im": 0.0}, "sigmas": [0.0], "lambdas": [-1.0]}
    # A = |0.5 - 1|^2 / 2 = 0.125
    assert cli_session._expected_region("interior", cfg) == ("disk", 2.0 + 0j, 2.0)
    cfg = {"tau": {"re": 0.0, "im": 0.0}, "sigmas": [0.0, 1.0], "lambdas": [-1.0, -0.5]}
    assert cli_session._expected_region("origin", cfg) == ("disk", complex(1 / 3, 0), 1 / 3)


def test_cli_session_is_fixed_and_seeded():
    a, b = cli_session.session(5), cli_session.session(5)
    assert [c.label for c in a] == [c.label for c in cli_session.session(6)]
    assert [c.config for c in a] == [c.config for c in b]
    assert sum(not c.short for c in a) == len(cli_session.VERIFY_SEEDS) == 5 and len(a) == 22


def test_estimate_inputs_meet_their_law():
    rng = np.random.default_rng(3)
    for i in range(40):
        t = (0.25, 0.5, 1.0)[i % 3]
        d, k, _ = inputs.estimate_input(rng, inputs.REGIMES[i % 4], t)
        assert d.alpha(k) >= inputs.ESTIMATE_MIN_ALPHA and abs(d.lambdas[k]) * t <= 1.0 and abs(d.gamma) <= 10.0
        others = [s for j, s in enumerate(d.sigmas) if j != k] + list(d.p_thetas)
        assert all(inputs.circle_gap(d.sigmas[k], s) > 0.2 for s in others)


def test_rational_laws():
    rng = np.random.default_rng(11)
    for degree in (1, 5, 16):
        th = sorted(inputs.spread_rational(rng, degree).thetas)
        gaps = np.diff(th + [th[0] + 2 * math.pi])
        assert len(th) == degree and gaps.min() >= math.pi / degree - 1e-12
    for _ in range(20):
        a, b, w = inputs.shared_skeleton_pair(rng)
        assert a.tau == b.tau and abs(a.tau) <= 0.8 and a.sigmas == b.sigmas and 0 < w < 1
        for d in (a, b):
            angles = list(d.sigmas) + list(d.p_thetas)
            assert len(angles) <= 6
            assert all(inputs.circle_gap(x, y) >= math.pi / 6 - 1e-12 for i, x in enumerate(angles) for y in angles[:i])
    assert inputs.uniform_rational(np.random.default_rng(0), 9) == inputs.uniform_rational(np.random.default_rng(0), 9)


def test_strict_field_realizes_its_target():
    fd = inputs.strict_field(np.random.default_rng(2))
    # duration-weighted |lambda_k| sums are the log targets, each segment sums to 1
    cols = sum(dur * -np.asarray(d.lambdas) for dur, d in fd.segments)
    assert np.isclose(cols.sum(), sum(dur for dur, _ in fd.segments))
    for _, d in fd.segments:
        assert sum(abs(v) for v in d.lambdas) == pytest.approx(1.0, abs=1e-12)


def test_tracer_self_times_add_up():
    tr = Tracer()

    def leaf():
        return sum(range(2000))

    leaf_t = tr.wrap(leaf, "herglotz_core.eval_herglotz")

    def mid():
        return leaf_t() + leaf_t()

    mid_t = tr.wrap(mid, "generator.eval_generator")
    solve = tr.wrap(lambda: [mid_t() for _ in range(3)], "semiflow.integrate_flow")
    solve()
    with pytest.raises(ZeroDivisionError):
        tr.wrap(lambda: 1 / 0, "herglotz_core.reciprocal")()
    tr.finish()
    assert sum(tr.self_) == pytest.approx(tr.incl[0], rel=1e-12)
    assert tr.calls("herglotz_core.eval_herglotz") == 6
    m = layer_metrics(tr)
    assert m["semiflow.solves"] == 1 and m["semiflow.rhs_per_solve"] == 3
    assert m["herglotz_core.reciprocal_calls"] == 1 and m["herglotz_core.reciprocal_ok_ratio"] == 0.0
    assert m["trace.self_sum_s"] == pytest.approx(tr.incl[0], rel=1e-12)


def test_scaled_time_refers_to_the_reference_probe():
    from probe import REF_PROBE_MS, probe, scaled

    assert scaled(10.0, [REF_PROBE_MS, REF_PROBE_MS]) == 10.0
    assert scaled(10.0, [2 * REF_PROBE_MS, 4 * REF_PROBE_MS]) == 10.0 / 3
    assert probe() > 0.0
