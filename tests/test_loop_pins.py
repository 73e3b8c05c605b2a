"""Bit-for-bit pins of the two numpy loops, the arc solve and the radius
ladder, and of the dense output of a lone orbit.

The arc solve (herglotz_core._arc_zeros) sits behind reciprocal and every
convex_combination; the array solve (semiflow._solve on _Batch) integrates
the radius ladder of estimate_boundary_derivative.  Each digest was recorded
before either loop was rewritten to make fewer numpy calls, and no rewrite
may move a bit of it; the mix's was re-recorded once, when the arc solve
changed its Newton step.  Since the arc solve runs in plain floats at few
atoms, the mix is pinned twice: as dispatched, and with every solve sent to
the array loop, which must still give that digest.  numpy picks some loops
by the CPU, so these digests are computed in a child on the baseline loops,
as test_golden_cli runs verify.  flow_trajectory's samples are pinned the
same way, in process.

The injection test pins where a right-hand side that is not finite stops a
solve: on the attempt that met it, with DomainError, and for the ladder
after exactly the calls the solve had made when the value came back.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import diskflow
from diskflow import DiskflowError, DomainError, _dop853, flow_trajectory, semiflow
from diskflow.generator import _array_generator, _point_generator
from diskflow.value_regions import REGIMES
from test_golden_cli import _baseline_env
from test_herglotz import ARRAYS_ONLY
import verify_reference

# 40 random_spec draws per regime (seed 2901), each solved as the radius
# ladder toward one of its repelling points, picked at random, at
# t = 0.25, 0.5 and 1.  The child prints the sha256 of every end state's
# bytes with the (calls, steps, rejected) counts, or the error raised.
LADDER_DIGEST_CHILD = """
import hashlib
import numpy as np
import verify_reference
from diskflow import DiskflowError, semiflow
from diskflow.value_regions import REGIMES
rng = np.random.default_rng(2901)
digest = hashlib.sha256()
for regime in REGIMES:
    for _ in range(40):
        spec = verify_reference.random_spec(rng, regime)
        sigmas = spec.config.sigmas
        z = np.array(semiflow.RADII) * sigmas[int(rng.integers(len(sigmas)))].value
        for t in (0.25, 0.5, 1.0):
            try:
                y, _, counts = semiflow._batch(spec, z, t)
            except DiskflowError as exc:
                digest.update(f"{type(exc).__name__}: {exc}\\n".encode())
            else:
                digest.update(y.tobytes() + f" {counts}\\n".encode())
print(digest.hexdigest())
"""
LADDER_SHA256 = "a8f56a0c79bb6376f4fb035d579974c87e55a8dfcd6b392c370ca7067364469e"

# 300 pairs (seed 2902): a random_spec draw of each regime in turn and a
# second spec on its skeleton, with new spectral values and the atoms and
# constant of a second draw turned by the angle between the two taus, mixed
# at a weight U[0, 1].  The child prints the sha256 of float.hex of every
# atom, mass, gamma and spectral value of the mixes, or the error raised.
MIX_DIGEST_CHILD = """
import cmath, hashlib, math
import numpy as np
import verify_reference
from diskflow import (
    AtomicHerglotz, BoundaryPoint, DiskflowError, FixedPointConfig, GeneratorSpec,
    convex_combination,
)
from diskflow.value_regions import REGIMES
rng = np.random.default_rng(2902)
digest = hashlib.sha256()
for i in range(300):
    regime = REGIMES[i % len(REGIMES)]
    first, other = verify_reference.random_spec(rng, regime), verify_reference.random_spec(rng, regime)
    c = first.config
    turn = cmath.phase(c.tau) - cmath.phase(other.config.tau)
    p = AtomicHerglotz(
        tuple((BoundaryPoint(pt.theta + turn), m) for pt, m in other.p.atoms), other.p.gamma
    )
    lambdas = tuple(-math.exp(x) for x in rng.uniform(-2.0, 2.0, len(c.sigmas)))
    second = GeneratorSpec(FixedPointConfig(c.tau, c.sigmas, lambdas), p)
    try:
        mix = convex_combination(first, second, float(rng.uniform(0.0, 1.0)))
    except DiskflowError as exc:
        digest.update(f"{type(exc).__name__}: {exc}\\n".encode())
        continue
    words = [x.hex() for point, mass in mix.p.atoms for x in (point.theta, mass)]
    words += [mix.p.gamma.hex()] + [x.real.hex() for x in mix.config.lambdas]
    digest.update((" ".join(words) + "\\n").encode())
print(digest.hexdigest())
"""
# re-recorded when mixes of up to herglotz_core._PLAIN_ATOMS atoms in N
# (all 300 here) began to be solved in plain floats
MIX_SHA256 = "971a20b0539f1d8558379519db5806154e45b5eee0edea39d716ff48418bdd26"
# every arc solve sent to the array loop, as in the parent of that change;
# recorded when the arc solve's Newton step began to divide out the arc's
# two poles
MIX_ARRAY_SHA256 = "1edfbd34d057e3a90f51cbb43bc9560b108ef0f85c879042ca0f475d7b04a176"


def _child_digest(script: str) -> str:
    """The stdout of ``script`` run in a child on numpy's baseline loops,
    where a RuntimeWarning is an error."""
    env = _baseline_env()
    src = str(pathlib.Path(diskflow.__file__).resolve().parents[1])
    tests = str(pathlib.Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", script]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.strip()


def test_the_radius_ladder_is_pinned_bit_for_bit():
    assert _child_digest(LADDER_DIGEST_CHILD) == LADDER_SHA256


def test_convex_combination_is_pinned_bit_for_bit():
    assert _child_digest(MIX_DIGEST_CHILD) == MIX_SHA256


def test_the_array_loop_of_convex_combination_is_pinned_bit_for_bit():
    assert _child_digest(ARRAYS_ONLY + MIX_DIGEST_CHILD) == MIX_ARRAY_SHA256


def _trajectory_digest() -> str:
    """sha256 of float.hex of every sample of flow_trajectory over 8 random_spec
    draws (seed 2904, two per regime) from 0.3 + 0.2j to t = 2, at 2, 7 and
    500 samples, or of the error raised."""
    rng = np.random.default_rng(2904)
    digest = hashlib.sha256()
    for regime in REGIMES * 2:
        spec = verify_reference.random_spec(rng, regime)
        for samples in (2, 7, 500):
            try:
                tr = flow_trajectory(spec, 0.3 + 0.2j, 2.0, samples)
            except DiskflowError as exc:
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            for w in tr.points + tr.derivatives:
                digest.update(f"{w.real.hex()} {w.imag.hex()}\n".encode())
    return digest.hexdigest()


# recorded before flow_trajectory evaluated a step's samples in one pass; a
# lone orbit is plain Python arithmetic, so no numpy loop enters the digest
TRAJECTORY_SHA256 = "815240ca80d2362232925e42c9fed6a40067f5a00275f4ac296d5072eb1ed0a9"


def test_the_dense_output_is_pinned_bit_for_bit():
    assert _trajectory_digest() == TRAJECTORY_SHA256


# its ladder toward the first repelling point takes 338 calls to t = 4, over
# 20 steps and 8 rejected attempts; the orbit of 0.3 + 0.2j takes 164, with 1
SPEC = verify_reference.random_spec(np.random.default_rng(2914), "interior")
T = 4.0


def _poisoned(rhs, k: int, bad: complex, made: list):
    """rhs, counting its calls in ``made``, with one component of the k-th
    call's value replaced by ``bad``."""

    def wrapped(y):
        made.append(None)
        f = rhs(y)
        if len(made) == k:
            f = f.copy() if isinstance(f, np.ndarray) else list(f)
            f[k % len(f)] = bad
        return f

    return wrapped


def _lone_rhs(y: list[complex]) -> list[complex]:
    """The right-hand side semiflow._lone builds for an orbit with its derivative."""
    g, dg = _point_generator(SPEC)(y[0])
    return [g, dg * y[1]]


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf")], ids=repr)
@pytest.mark.parametrize("kind", ["ladder", "lone"])
def test_a_right_hand_side_that_is_not_finite_raises_on_every_call(kind, bad):
    # each stage's input weighs the stage before it by a nonzero weight, so
    # a value that is not finite makes the next input not finite
    assert all(row[-1] != 0.0 for row in _dop853.A[1:])
    if kind == "ladder":
        z = np.array(semiflow.RADII) * SPEC.config.sigmas[0].value

        def solve(rhs):
            return semiflow._solve(semiflow._Batch(), rhs, z, T)

        rhs = _array_generator(SPEC)
    else:
        grid = np.linspace(0.0, T, 20).tolist()

        def solve(rhs):
            return semiflow._solve(semiflow._Lone, rhs, [0.3 + 0.2j, 1.0 + 0j], T, grid)

        rhs = _lone_rhs
    calls, _, rejected = solve(rhs)[2]
    assert rejected > 0
    for k in range(1, calls + 1):
        made = []
        # the poisoned value is combined into the next stage's input before
        # the attempt's test sees it, which numpy may warn of
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            DomainError, match="not finite"
        ):
            solve(_poisoned(rhs, k, bad, made))
        if kind == "ladder":
            assert len(made) == k
