"""`verify`'s plain-number draw and records against the object versions.

tests/verify_reference.py keeps the sampler, the records and the loop that
built a spec object for every sample.  The raw draw must consume the same
random stream and the record function must give the same floats, bit for
bit, so the comparisons here are exact: floats are compared by repr, which
also tells -0.0 from 0.0.
"""

import json
import math

import numpy as np
import pytest

import verify_reference as ref
from diskflow import BoundaryPoint, cli
from diskflow.herglotz_core import angle_gap
from diskflow.value_regions import (
    REGIMES,
    _draw_raw,
    _raw_records,
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
    rng = np.random.default_rng(seed)
    recorder = AngleRecorder(seed)
    rejections = 0
    for i in range(2000):
        regime = REGIMES[i % len(REGIMES)]
        start = len(recorder.angles)
        spec = ref.random_spec(recorder, regime)
        expected = [(r.name, r.lhs, r.rhs) for r in ref.verify_records(spec)]
        assert exact(_raw_records(_draw_raw(rng, regime))) == exact(expected), (seed, i)
        if regime.startswith("boundary"):
            rejections += len(avoid_rejections(spec, recorder.angles[start:]))
    assert rng.bit_generator.state == recorder.rng.bit_generator.state
    # every seed's 1000 boundary draws reject some angle near tau or a sigma_k
    assert rejections >= 1


def test_random_spec_matches_the_object_sampler():
    for seed in range(2):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(400):
            regime = REGIMES[i % len(REGIMES)]
            got, expected = random_spec(rng, regime), ref.random_spec(ref_rng, regime)
            assert repr(got.config.tau) == repr(expected.config.tau)
            assert [s.theta for s in got.config.sigmas] == [s.theta for s in expected.config.sigmas]
            assert got.config.lambdas == expected.config.lambdas
            assert [(p.theta, m) for p, m in got.p.atoms] == [
                (p.theta, m) for p, m in expected.p.atoms
            ]
            assert repr(got.p.gamma) == repr(expected.p.gamma)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def test_cmd_verify_writes_the_object_loop_report(tmp_path, capsys):
    assert cli.main(["verify", "--samples", "500", "--seed", "3", "--out", str(tmp_path)]) == 0
    report, lines = ref.verify_report(3, 500, 1e-10)
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "verify.json").read_text() == expected
    assert capsys.readouterr().out.splitlines() == lines
