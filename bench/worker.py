"""One workload in a fresh interpreter, as a single closed-loop caller.

Started by run.py; writes its result as JSON to --result.  Calls are made
one after another in whole rounds, each round the same list of operations,
until the next round would overrun --seconds.  Every call is timed alone,
with the speed probe of probe.py run right before and after it, and its
output checked; a call that raises or fails its check counts as failed.

  orbits    per round: 10 orbits to t = 1 (two closed-form Koenigs cases and
            two of each generic regime), 3 boundary-derivative estimates
            (t = 0.25, 0.5, 1) and 2 evolutions of a strict field.
  rational  per round: `reciprocal` on one function of each degree 1..64 and
            16 `convex_combination` calls.
  cli       (traced run only) the cli session, in process through cli.main.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import cmath  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

from tracer import Tracer, install, layer_metrics  # noqa: E402

# interior points where p (1/p) = 1 and the combination identity are checked
CHECK_POINTS = [0j] + [r * complex(math.cos(a), math.sin(a)) for r in (0.3, 0.6, 0.9) for a in (0.4, 2.5, 4.6)]
SPREAD_DEGREES = range(1, 17)
FIXED_DEGREES = range(17, 65)
FIXED_LADDER_SEED = 0
FIXED_PAIR_SEEDS = (88, 181, 275, 287)
SPREAD_PAIRS = 12
ESTIMATE_TIMES = (0.25, 0.5, 1.0)


@dataclass
class Op:
    kind: str  # "call", "compound" or "other" (timed into the round only)
    call: Callable
    check: Callable  # result -> list of problems
    fixed: bool = False  # seed-independent input on which a known fault may show


def _problem(ok: bool, text: str) -> list[str]:
    return [] if ok else [text]


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------


def orbits_round(df, inputs, ref, rng, r: int) -> list[Op]:
    ops = []
    for regime in ("koenigs",) + inputs.REGIMES + ("koenigs",) + inputs.REGIMES:
        d = inputs.koenigs(rng) if regime == "koenigs" else inputs.generic(rng, regime)
        z0 = inputs.disk_point(rng, 0.85)
        ops.append(Op("call", _orbit_call(df, d.spec(), z0), _orbit_check(ref, d, z0)))
    for i, t in enumerate(ESTIMATE_TIMES):
        d, k, _ = inputs.estimate_input(rng, inputs.REGIMES[(3 * r + i) % 4], t)
        sigma = df.BoundaryPoint(d.sigmas[k])
        expected = math.exp(abs(d.lambdas[k]) * t)
        ops.append(
            Op(
                "compound",
                lambda spec=d.spec(), s=sigma, t=t: df.estimate_boundary_derivative(spec, s, t),
                lambda est, e=expected: _problem(abs(est - e) <= 1e-3 * e, f"estimate {est} != {e}"),
            )
        )
    for from_tau in (True, False):
        fd = inputs.strict_field(rng)
        z0 = fd.tau if from_tau else inputs.disk_point(rng, 0.85)
        ops.append(Op("other", lambda f=fd.field, z0=z0: df.evolve_with_derivative(f, z0), _evolve_check(ref, fd, z0, from_tau)))
    return ops


def _orbit_call(df, spec, z0):
    return lambda: df.integrate_flow_with_derivative(spec, z0, 1.0)


def _orbit_check(ref, d, z0):
    def check(result) -> list[str]:
        w, dw = result
        if d.regime == "koenigs":
            w_ref, dw_ref = ref.koenigs_orbit(d.sigmas[0], d.lambdas[0], z0, 1.0)
            return _problem(
                abs(w - w_ref) <= 1e-8 and abs(dw - dw_ref) <= 1e-7 * max(1.0, abs(dw_ref)),
                f"Koenigs orbit ({w}, {dw}) != ({w_ref}, {dw_ref})",
            )
        return _contraction(ref, d.tau, z0, w, dw)

    return check


def _contraction(ref, tau, z0, w, dw) -> list[str]:
    """Schwarz-Pick toward an interior tau, Julia's horocycles for a boundary one."""
    if abs(abs(tau) - 1.0) < 1e-12:
        before, after = ref.horocycle(z0, tau), ref.horocycle(w, tau)
        ok = after <= before * (1.0 + 1e-9)
    else:
        before, after = ref.pseudo_hyperbolic(z0, tau), ref.pseudo_hyperbolic(w, tau)
        ok = after <= before + 1e-9
    ratio = ref.schwarz_pick_ratio(z0, w, dw)
    return _problem(ok and ratio <= 1.0 + 1e-9, f"orbit from {z0} to {w}: distance {before} -> {after}, |phi'| ratio {ratio}")


def _evolve_check(ref, fd, z0, from_tau: bool):
    def check(result) -> list[str]:
        w, dw = result
        if not from_tau:
            return _contraction(ref, fd.tau, z0, w, dw)
        psi = sum(dur * ref.dw_spectral_value(*d.params) for dur, d in fd.segments)
        expected = cmath.exp(-psi)
        return _problem(
            abs(w - fd.tau) <= 1e-12 and abs(dw - expected) <= 1e-8 * abs(expected),
            f"evolve from tau: derivative {dw} != exp(-sum d_i lambda_i) = {expected}",
        )

    return check


# ----------------------------------------------------------------------
# rational
# ----------------------------------------------------------------------


def rational_fixed(np, inputs):
    """Seed-independent inputs: a uniform-atom function of each degree 17..64
    (drawn in turn from seed 0) and four generic pairs on which
    convex_combination fails today."""
    rng = np.random.default_rng(FIXED_LADDER_SEED)
    ladder = [inputs.uniform_rational(rng, d) for d in FIXED_DEGREES]
    pairs = [inputs.generic_pair(np.random.default_rng(s)) for s in FIXED_PAIR_SEEDS]
    return ladder, pairs


def rational_round(df, inputs, ref, rng, fixed) -> list[Op]:
    """Degrees 1..16 and 12 pairs are drawn from the seed with separated atoms,
    where reciprocal is reliable; the fixed inputs carry the root-drift fault."""
    ladder, fixed_pairs = fixed
    ops = [_reciprocal_op(df, ref, inputs.spread_rational(rng, d), False) for d in SPREAD_DEGREES]
    ops += [_reciprocal_op(df, ref, p, True) for p in ladder]
    ops += [_combine_op(df, ref, inputs.shared_skeleton_pair(rng), False) for _ in range(SPREAD_PAIRS)]
    ops += [_combine_op(df, ref, pair, True) for pair in fixed_pairs]
    return ops


def _atoms(h):
    return [pt.theta for pt, _ in h.atoms], [m for _, m in h.atoms]


def _reciprocal_op(df, ref, draw, fixed: bool) -> Op:
    p = draw.herglotz()
    p_values = ref.herglotz(draw.thetas, draw.masses, draw.gamma, CHECK_POINTS)

    def check(q) -> list[str]:
        q_values = ref.herglotz(*_atoms(q), q.gamma, CHECK_POINTS)
        worst = float(max(abs(p_values * q_values - 1.0)))
        if worst > 1e-9:
            return [f"degree {len(draw.thetas)}: |p (1/p) - 1| = {worst:.3e}"]
        try:
            back = df.reciprocal(q)
        except df.DiskflowError as exc:
            return [f"degree {len(draw.thetas)}: reciprocal of the reciprocal raised {exc!r}"]
        same = ref.match_atoms(draw.thetas, draw.masses, *_atoms(back), 1e-9) and abs(back.gamma - draw.gamma) <= 1e-9
        return _problem(same, f"degree {len(draw.thetas)}: reciprocal is not an involution")

    return Op("call", lambda: df.reciprocal(p), check, fixed)


def _combine_op(df, ref, pair, fixed: bool) -> Op:
    first, second, weight = pair
    expected = weight * ref.generator(*first.params, CHECK_POINTS) + (1.0 - weight) * ref.generator(*second.params, CHECK_POINTS)
    scale = max(1.0, float(max(abs(expected))))
    a, b = first.spec(), second.spec()

    def check(c) -> list[str]:
        got = ref.generator(c.config.tau, [s.theta for s in c.config.sigmas], c.config.lambdas, *_atoms(c.p), c.p.gamma, CHECK_POINTS)
        worst = float(max(abs(got - expected)))
        return _problem(worst <= 1e-9 * scale, f"combination G differs from the weighted mean by {worst:.3e}")

    return Op("compound", lambda: df.convex_combination(a, b, weight), check, fixed)


# ----------------------------------------------------------------------
# cli (traced, in process)
# ----------------------------------------------------------------------


def cli_round(df, workdir: str, seed: int, span) -> list[Op]:
    import cli_session

    ops = []
    for i, cmd in enumerate(cli_session.session(seed)):
        argv = cli_session.prepare(cmd, i, workdir)

        def call(argv=argv):
            with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                return df.cli.main(argv)

        ops.append(Op("call" if cmd.short else "compound", call, lambda code, c=cmd, i=i: cli_session.check(c, i, workdir, code)))
    return ops


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


def run_rounds(df, make_round, seconds: float) -> dict:
    from probe import probe, scaled  # numpy is imported by now, inside its traced span

    perf = time.perf_counter
    samples = {"call": [], "compound": [], "other": []}  # per kind, one list of ms per round
    scaled_ms = {kind: [] for kind in samples}  # the same, scaled to the reference speed
    round_s, problems = [], []
    attempted = failed = 0
    start = perf()
    r = 0
    while True:
        t_round = perf()
        ops = make_round(r)
        for kind in samples:
            samples[kind].append([])
            scaled_ms[kind].append([])
        program = 0.0
        for op in ops:
            before = probe()
            t0 = perf()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed call is counted, not fatal
                result, error = None, exc
            dt = perf() - t0
            after = probe()
            program += dt
            samples[op.kind][-1].append(1e3 * dt)
            scaled_ms[op.kind][-1].append(scaled(1e3 * dt, (before, after)))
            if error is not None:
                found = [f"{type(error).__name__}: {error}"]
            else:
                try:
                    found = op.check(result)
                except Exception as exc:  # output the check cannot read is a failure
                    found, error = [f"check raised {exc!r}"], exc
            attempted += 1
            if found:
                failed += 1
                # only the fault kept on the fixed inputs is expected
                if not op.fixed or (error is not None and not isinstance(error, df.DiskflowError)):
                    problems.append(found[0])
        round_s.append(program)
        r += 1
        now = perf()
        if now - start + (now - t_round) > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": problems[:20],
        "unexpected_count": len(problems),
        "call_ms": samples["call"],
        "compound_ms": samples["compound"],
        "call_scaled_ms": scaled_ms["call"],
        "compound_scaled_ms": scaled_ms["compound"],
        "round_s": round_s,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("orbits", "rational", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.start = START
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span("import.numpy"):
        import numpy as np
    with span("import.scipy_integrate"):
        import scipy.integrate  # noqa: F401
    with span("import.diskflow"):
        import diskflow as df

        if args.workload == "cli":
            import diskflow.cli  # noqa: F401
    import inputs
    import reference as ref

    if tracer:
        install(tracer)

    # warm-up on constant inputs, outside the seed's stream
    warm = np.random.default_rng(12345)
    if args.workload == "orbits":
        df.integrate_flow_with_derivative(inputs.koenigs(warm).spec(), 0.5, 1.0)
        d, k, _ = inputs.estimate_input(warm, "interior", 0.25)
        df.estimate_boundary_derivative(d.spec(), df.BoundaryPoint(d.sigmas[k]), 0.25)
        make = lambda r: orbits_round(df, inputs, ref, rng, r)  # noqa: E731
    elif args.workload == "rational":
        df.reciprocal(inputs.spread_rational(warm, 8).herglotz())
        a, b, w = inputs.shared_skeleton_pair(warm)
        df.convex_combination(a.spec(), b.spec(), w)
        fixed = rational_fixed(np, inputs)
        make = lambda r: rational_round(df, inputs, ref, rng, fixed)  # noqa: E731
    else:
        make = lambda r: cli_round(df, os.path.join(args.workdir, f"round{r}"), args.seed, span)  # noqa: E731
    rng = np.random.default_rng(args.seed)

    result = {}
    if not args.setup_only:
        result.update(run_rounds(df, make, args.seconds))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.finish()
        result["layers"] = layer_metrics(tracer)
        result["tree"] = tracer.tree()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
