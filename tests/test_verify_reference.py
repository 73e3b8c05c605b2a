"""`verify`'s plain-number and column draws and records against the object
versions.

tests/verify_reference.py keeps the sampler, the records and the loop that
built a spec object for every sample.  The record function must give the
same floats on those specs, bit for bit, and random_spec must build the
spec of row 0 of a one-row column block, so those comparisons are exact:
floats are compared by repr, which also tells -0.0 from 0.0.

The library samples by one law, as numpy columns, in another order of the
random stream than the object sampler, and verify evaluates the same
formulas with numpy's complex arithmetic, which rounds differently from
Python's, and sums the kernel terms in slot order.  The column rows are
checked against the law, against the object sampler's draws by a
two-sample KS test, and against the object records
on the same numbers, within 1e-12 of max(1, |lhs|, |rhs|).  At an interior
tau some records get 1e-12 of a larger scale (verify_reference.record_scale):
the Harnack pair and spectral_tilt that of the terms they are computed
from, since they multiply Re p(0), which cancels to roundoff for a p
without atoms and carries no relative precision, and
spectral_reciprocal_floor its own scale over 1 - |tau|^2, since np.abs and
abs of one tau may differ in the last bit.
"""

import json
import math

import numpy as np
import pytest

import verify_reference as ref
from diskflow import BoundaryPoint, beta, cli, dw_spectral_value
from diskflow.herglotz_core import ANGLE_TOL, angle_gap, circle_angle
from diskflow.value_regions import (
    REGIMES,
    _angle_columns,
    _column_records,
    _draw_columns,
    _near,
    _spec_records,
    extremal_boundary_of_Z,
    extremal_hyperbolic,
    extremal_interior,
    extremal_origin,
    extremal_parabolic,
    inequality_suite,
    lambda_range,
    random_spec,
    region_Z,
)

TWO_PI = 2.0 * math.pi


def exact(records):
    """(name, lhs, rhs) triples with the floats as their repr."""
    return [(name, repr(lhs), repr(rhs)) for name, lhs, rhs in records]


class AngleRecorder:
    """A Generator that keeps every angle drawn by uniform(0, 2*pi)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.angles = []

    def integers(self, *args):
        return self.rng.integers(*args)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        x = self.rng.uniform(lo, hi, size)
        if (lo, hi) == (0.0, TWO_PI):
            self.angles.append(x)
        return x


def avoid_rejections(spec, drawn):
    """Angles of a boundary-regime draw rejected for lying within 1e-3 of
    tau or of a repelling point."""
    config = spec.config
    kept = {s.theta for s in config.sigmas} | {p.theta for p, _ in spec.p.atoms}
    kept.add(BoundaryPoint.from_complex(config.tau).theta)
    avoid = [s.theta for s in config.sigmas] + [BoundaryPoint.from_complex(config.tau).theta]
    return [
        t for t in drawn if t not in kept and any(angle_gap(t, a) <= 1e-3 for a in avoid)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_raw_draw_and_records_match_the_object_path(seed):
    recorder = AngleRecorder(seed)
    rejections = 0
    for i in range(2000):
        regime = REGIMES[i % len(REGIMES)]
        start = len(recorder.angles)
        spec = ref.random_spec(recorder, regime)
        expected = [(r.name, r.lhs, r.rhs) for r in ref.verify_records(spec)]
        assert exact(_spec_records(spec)) == exact(expected), (seed, i)
        if regime.startswith("boundary"):
            rejections += len(avoid_rejections(spec, recorder.angles[start:]))
    # every seed's 1000 boundary draws reject some angle near tau or a sigma_k
    assert rejections >= 1


def test_random_spec_is_row_0_of_a_column_block():
    for seed in range(2):
        rng, column_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(400):
            regime = REGIMES[i % len(REGIMES)]
            got = ref.raw_from_spec(random_spec(rng, regime))
            expected = next(ref.raw_rows(_draw_columns(column_rng, regime, 1)))
            assert repr(got) == repr(expected), (seed, i)
        assert rng.bit_generator.state == column_rng.bit_generator.state


def _extremal_specs(rng):
    """Every extremal constructor of value_regions on random configurations."""

    def disk_point(center, radius, fraction):
        return center + fraction * radius * np.exp(1j * rng.uniform(0.0, TWO_PI))

    specs = []
    for _ in range(25):
        for regime in ("interior", "boundary_hyperbolic"):
            config = random_spec(rng, regime).config
            z = region_Z(config)
            zeta = disk_point(z.center, z.radius, 0.5)
            specs += [
                lambda_range(config)[1],
                extremal_boundary_of_Z(config, disk_point(z.center, z.radius, 1.0)),
            ]
            if regime == "interior":
                specs.append(extremal_interior(config, zeta, BoundaryPoint(rng.uniform(0.0, TWO_PI))))
            else:
                specs += [extremal_hyperbolic(config, zeta), extremal_parabolic(config, zeta)]

        config = random_spec(rng, "origin").config
        r = 1.0 / config.inv_lambda_sum
        omega = disk_point(r, r, 0.5)
        specs += [
            lambda_range(config)[1],
            extremal_origin(config, omega, BoundaryPoint(rng.uniform(0.0, TWO_PI))),
        ]
    return specs


def test_inequality_suite_on_extremals_matches_the_object_suite():
    specs = _extremal_specs(np.random.default_rng(5))
    regimes = {spec.config.regime for spec in specs}
    assert regimes == {"interior", "origin", "boundary"}
    for spec in specs:
        got = [(r.name, r.lhs, r.rhs) for r in inequality_suite(spec)]
        expected = [(r.name, r.lhs, r.rhs) for r in ref.inequality_suite(spec)]
        assert exact(got) == exact(expected)


def _close(got, expected, scale):
    return abs(got - expected) <= 1e-12 * scale


def test_cmd_verify_writes_the_object_loop_report(tmp_path, capsys):
    # one block edge inside the run, and a last block of uneven regimes
    samples = cli.VERIFY_BLOCK + 501
    argv = ["verify", "--samples", str(samples), "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    got = json.loads((tmp_path / "verify.json").read_text())
    expected, scale = ref.verify_report(3, samples, 1e-10, cli.VERIFY_BLOCK)
    min_slack, ref_min_slack = got.pop("min_slack"), expected.pop("min_slack")
    assert got == expected
    assert sorted(min_slack) == sorted(ref_min_slack)
    for name, slack in ref_min_slack.items():
        assert _close(min_slack[name], slack, scale[name]), (name, min_slack[name], slack)
    lines = [
        f"{name}: checked={got['checked'][name]} violations={got['violations'].get(name, 0)} "
        f"warnings={got['warnings'].get(name, 0)} min_slack={min_slack[name]!r}"
        for name in sorted(got["checked"])
    ]
    assert capsys.readouterr().out.splitlines() == lines + ["total violations: 0"]


def _gap(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _edge_angles(rng):
    """Angles in [0, 2*pi) with both ends, pairs a last bit to 1e-3 apart
    and a NaN pad among them."""
    below = math.nextafter(TWO_PI, 0.0)
    drawn = TWO_PI * rng.random(60)
    near = np.minimum(drawn + np.repeat([1e-15, 1e-9, 1e-6, 1e-3], 15), below)
    ends = [0.0, 5e-324, 1e-9, math.pi, math.nextafter(below, 0.0), below, np.nan]
    return np.concatenate([ends, drawn, near])


def test_near_is_angle_gap_within_gap_on_angles_in_range():
    # _near leaves out angle_gap's remainder by 2*pi, which returns |a - b|
    # unchanged for angles in [0, 2*pi); a NaN pad is near nothing.  The
    # largest random() draws an angle below 2*pi
    assert TWO_PI * math.nextafter(1.0, 0.0) < TWO_PI
    angles = _edge_angles(np.random.default_rng(3))
    for gap in (0.0, ANGLE_TOL, 1e-6, 1e-3, 1.0, math.pi):
        got = _near(angles[:, None], angles[None, :], gap)
        expected = [[angle_gap(a, b) <= gap for b in angles.tolist()] for a in angles.tolist()]
        assert (got == np.array(expected)).all(), gap


def _index_angle_columns(rng, rows, slots, min_gap, avoid, avoid_gap):
    """_angle_columns with every pass over an index array of rows: all of
    them, then the rejected ones in row order; gaps by _gap."""
    angles = np.empty((rows, slots))
    for k in range(slots):
        todo = np.arange(rows)
        while todo.size:
            theta = TWO_PI * rng.random(todo.size)
            angles[todo, k] = theta
            redo = (_gap(theta[:, None], angles[todo, :k]) <= min_gap).any(1)
            redo |= (_gap(theta[:, None], avoid[todo]) <= avoid_gap).any(1)
            todo = todo[redo]
    return angles


@pytest.mark.parametrize("min_gap, avoid_gap", [(1e-6, 1e-3), (0.8, 0.4)])
def test_angle_columns_take_the_stream_in_row_order(min_gap, avoid_gap):
    # the first pass of a slot takes slices, the redraws index arrays; at
    # gaps 0.8 and 0.4 most rows redraw a slot at least once
    rows, slots = 500, 3
    avoid = TWO_PI * np.random.default_rng(5).random((rows, 2))
    avoid[::3, 1] = np.nan
    got = _angle_columns(np.random.default_rng(9), rows, slots, min_gap, avoid, avoid_gap)
    expected = _index_angle_columns(np.random.default_rng(9), rows, slots, min_gap, avoid, avoid_gap)
    assert got.tobytes() == expected.tobytes()
    assert ((got >= 0.0) & (got < TWO_PI)).all()
    drawn = ~np.isnan(avoid)
    for k in range(slots):
        assert (_gap(got[:, k, None], got[:, :k]) > min_gap).all()
        assert (_gap(got[:, k, None], avoid)[drawn] > avoid_gap).all()


@pytest.mark.parametrize("regime", REGIMES)
def test_column_draw_meets_the_law(regime):
    rows = 4000
    columns = _draw_columns(np.random.default_rng(17), regime, rows)
    kind, tau, tau_angle, sig_angles, lambdas, atom_angles, masses, gamma, _ = columns
    assert kind == {"interior": "interior", "origin": "origin"}.get(regime, "boundary")
    assert tau.shape == gamma.shape == (rows,)
    sig = ~np.isnan(sig_angles)
    atoms = ~np.isnan(atom_angles)
    n, free = sig.sum(1), atoms[:, :3].sum(1)
    # the repelling points and the free atoms fill the first slots, the
    # parabolic atom the last; padding weighs nothing
    assert (sig == (np.arange(4) < n[:, None])).all()
    assert (atoms[:, :3] == (np.arange(3) < free[:, None])).all()
    assert (atoms[:, 3] == (regime == "boundary_parabolic")).all()
    assert np.isneginf(lambdas[~sig]).all() and (masses[~atoms] == 0.0).all()
    assert ((lambdas[sig] >= -math.exp(2.0)) & (lambdas[sig] <= -math.exp(-2.0))).all()
    assert ((masses[atoms] >= math.exp(-3.0)) & (masses[atoms] <= math.e)).all()
    for angles, drawn in ((sig_angles, sig), (atom_angles, atoms)):
        assert ((angles[drawn] >= 0.0) & (angles[drawn] < TWO_PI)).all()
        for j in range(4):
            for k in range(j + 1, 4):
                both = drawn[:, j] & drawn[:, k]
                assert (_gap(angles[both, j], angles[both, k]) > 1e-6).all()

    if regime == "interior":
        assert tau_angle is None and ((abs(tau) > 1e-6) & (abs(tau) < 1.0)).all()
    elif regime == "origin":
        assert tau_angle is None and (tau == 0.0).all()
    else:
        assert ((tau_angle >= 0.0) & (tau_angle < TWO_PI)).all()
        assert (tau == np.cos(tau_angle) + 1j * np.sin(tau_angle)).all()
        theta = tau_angle[:, None]
        assert (_gap(sig_angles, theta)[sig] > 1e-3).all()
        assert (_gap(atom_angles[:, :3], theta)[atoms[:, :3]] > 1e-3).all()
        if regime == "boundary_parabolic":
            assert (atom_angles[:, 3] == tau_angle).all()
        else:
            # the retuned gamma cancels the contact value: lambda > 0
            raws = ref.raw_rows(columns)
            assert all(dw_spectral_value(ref.spec_from_raw(raw)) > 0.0 for raw in raws)
    # n uniform on 1..4 and the free atoms on 0..3, within 5 binomial sd
    sd = math.sqrt(rows * 0.25 * 0.75)
    for counts in (np.bincount(n - 1, minlength=4), np.bincount(free, minlength=4)):
        assert len(counts) == 4 and (abs(counts - rows / 4) < 5 * sd).all(), counts


def _law_samples(raws):
    """The quantities the law draws, pooled over generators in
    raw_from_spec's layout: each a sample of one distribution."""
    samples = {}
    for kind, tau, sig_angles, lambdas, atoms, gamma in raws:
        drawn = {
            "n": [len(sig_angles)],
            "sigma angle": sig_angles,
            "log|lambda|": [math.log(-v) for v in lambdas],
            "|tau|^2": [abs(tau) ** 2] if kind == "interior" else [],
            "tau angle": [circle_angle(math.atan2(tau.imag, tau.real))],
            "atoms": [len(atoms)],
            "atom angle": [t for t, _ in atoms],
            "log mass": [math.log(m) for _, m in atoms],
            "gamma": [gamma],
        }
        for name, values in drawn.items():
            samples.setdefault(name, []).extend(values)
    return samples


def _ks(a, b):
    """The two-sample Kolmogorov-Smirnov statistic of a and b."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, at, "right") / a.size
    return np.abs(cdf_a - np.searchsorted(b, at, "right") / b.size).max()


@pytest.mark.parametrize("regime", REGIMES)
def test_column_draw_follows_the_raw_law(regime):
    # every quantity of 4000 column rows against 2000 draws of the object
    # sampler, by the two-sample KS test at level about 1e-6
    rng = np.random.default_rng(29)
    got = _law_samples(ref.raw_rows(_draw_columns(rng, regime, 4000)))
    expected = _law_samples(ref.raw_from_spec(ref.random_spec(rng, regime)) for _ in range(2000))
    for name, sample in got.items():
        if not sample:  # |tau|^2 off the interior
            assert expected[name] == [], name
            continue
        bound = 2.7 * math.sqrt(1.0 / len(sample) + 1.0 / len(expected[name]))
        assert _ks(sample, expected[name]) < bound, name


def _branch(lam, b):
    """_spectral_value's branch at a boundary tau, read off its result."""
    return "atom" if b > 0.0 else ("hyperbolic" if lam > 0.0 else "contact")


@pytest.mark.parametrize("seed", range(6))
def test_column_records_match_the_object_records(seed):
    rng = np.random.default_rng(seed)
    for regime in REGIMES:
        columns = _draw_columns(rng, regime, 2500)
        records = _column_records(columns)
        for i, raw in enumerate(ref.raw_rows(columns)):
            spec = ref.spec_from_raw(raw)
            expected = ref.verify_records(spec)
            got = [
                (name, lhs[i], rhs[i]) for name, lhs, rhs, rows in records if rows is True or rows[i]
            ]
            assert [r[0] for r in got] == [r.name for r in expected], (seed, regime, i)
            for (name, lhs, rhs), record in zip(got, expected):
                scale = ref.record_scale(spec, record)
                assert _close(lhs, record.lhs, scale) and _close(rhs, record.rhs, scale), (
                    seed, regime, i, name, (lhs, rhs), (record.lhs, record.rhs),
                )
            if raw[0] == "boundary":
                # the masks took _spectral_value's branch: hyperbolic_window
                # applies where lambda > 0, parabolic_floor's rhs is beta
                found = {r[0]: r for r in got}
                lam = found["boundary_spectral_cap"][1]
                b = found["parabolic_floor"][2] if "parabolic_floor" in found else 0.0
                assert ("hyperbolic_window" in found) == (lam > 0.0)
                assert _branch(lam, b) == _branch(dw_spectral_value(spec), beta(spec))
