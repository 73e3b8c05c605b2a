"""diskflow benchmark: runs a workload and prints its metrics.

Usage, from the repository root:

    python3 bench/run.py                               # every workload, one run each
    python3 bench/run.py --workload orbits --seed 3    # one run; last line is JSON
    python3 bench/run.py --workload cli --trace 1      # traced run: per-layer metrics
    python3 bench/run.py --repeat 10 --seed 100        # repeatability: k runs per workload

Workloads (see bench/README.md for why each exists):

  cli       a fixed session of 17 short diskflow commands and five `verify`,
            each a fresh process, checked from their artifacts
  orbits    in-process orbits, boundary-derivative estimates and evolutions
  rational  in-process `reciprocal` over degrees 1..64 and `convex_combination`

A run times whole rounds of its workload for about --seconds seconds, with
BLAS/OpenMP pinned to one thread and the run kept on one CPU.  Each timed
call is scaled by the host's speed at that moment, read by the probe of
bench/probe.py.  The run prints one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from a separate traced run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PROBE_GAP_S, probe, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli", "orbits", "rational")
SETUP_STARTS = 5  # fresh interpreter starts per run behind setup_s
CALL_LIMIT_S = 150.0  # a single child process is killed after this long
CLI_LAUNCH = "import sys; from diskflow.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def spawn(argv: list[str], log: Path, limit: float = CALL_LIMIT_S, probing: bool = True) -> tuple[float, int, float]:
    """Run argv to its end: (wall seconds from spawn to exit, exit code, the
    wall time scaled to the reference speed).

    With ``probing``, the speed probe runs before the spawn, every PROBE_GAP_S
    while the child runs and after it exits.  The child inherits this
    process's CPU (see pin_cpu), so the probes read the CPU it runs on, and
    it gives up 1 to 3% of that CPU to them.
    """
    probes = [probe()] if probing else []
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], PROBE_GAP_S if probing else 1.0)[0]:
                    if time.perf_counter() - t0 > limit:
                        proc.kill()
                    if probing:
                        probes.append(probe())
            finally:
                os.close(exited)
            wall = time.perf_counter() - t0
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not probing:
        return wall, code, wall
    probes.append(probe())
    return wall, code, scaled(wall, probes)


def pin_cpu() -> None:
    """Keep this process and its children on one CPU, the one the probes read."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def worker(workload: str, seed: int, seconds: float, trace: int, work: Path, setup_only: bool = False) -> tuple[dict, float, float]:
    """Run the workload's process; (its result, wall seconds, scaled seconds).

    With ``setup_only`` the process stops after set-up and is timed with the
    speed probe running beside it; a measuring process times its own calls.
    """
    result = work / f"worker-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(work), "--result", str(result)]
    wall, code, wall_scaled = spawn(argv + (["--setup-only"] if setup_only else []), work / "worker.log",
                                    limit=seconds + CALL_LIMIT_S, probing=setup_only)
    if code != 0:
        sys.stderr.write((work / "worker.log").read_text()[-4000:])
        raise RuntimeError(f"{workload} worker exited {code}")
    return json.loads(result.read_text()), wall, wall_scaled


def cli_session_rounds(seed: int, seconds: float, work: Path) -> dict:
    """The untraced cli workload: each command a fresh process, timed from spawn to exit."""
    sys.path.insert(0, str(BENCH))
    import cli_session

    calls, compound, round_s, problems = [], [], [], []
    calls_scaled, compound_scaled = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        program = 0.0
        out = work / f"round{rounds}"
        for kind in (calls, compound, calls_scaled, compound_scaled):
            kind.append([])
        for i, cmd in enumerate(cli_session.session(seed)):
            argv = cli_session.prepare(cmd, i, str(out))
            wall, code, wall_scaled = spawn([sys.executable, "-c", CLI_LAUNCH] + argv, work / "cli.log")
            program += wall
            (calls if cmd.short else compound)[-1].append(1e3 * wall)
            (calls_scaled if cmd.short else compound_scaled)[-1].append(1e3 * wall_scaled)
            found = cli_session.check(cmd, i, str(out), code)
            attempted += 1
            if found:
                failed += 1
                problems.append(found[0])
        round_s.append(program)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    return {"attempted": attempted, "failed": failed, "unexpected": problems[:20], "unexpected_count": len(problems),
            "call_ms": calls, "compound_ms": compound, "call_scaled_ms": calls_scaled,
            "compound_scaled_ms": compound_scaled, "round_s": round_s}


def measure(workload: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    if trace:
        res, wall, _ = worker(workload, seed, seconds, 1, work)
        metrics = dict(res["layers"], **{"trace.wall_s": wall, "trace.round_s": statistics.median(res["round_s"])})
        from tracer import with_units

        (work.parent / f"trace-{workload}-{seed}.json").write_text(json.dumps(res["tree"]))
        save_samples(res, work.parent / f"raw-{workload}-{seed}-traced.json")
        return _result(res, with_units(metrics))

    pin_cpu()
    if workload == "cli":
        setups = [spawn([sys.executable, "-c", "import diskflow"], work / "setup.log")[2] for _ in range(SETUP_STARTS)]
        res = cli_session_rounds(seed, seconds, work)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        setups = [worker(workload, seed, seconds, 0, work, setup_only=True)[2] for _ in range(SETUP_STARTS)]
        res, _, _ = worker(workload, seed, seconds, 0, work)
        peak_kb = res["peak_rss_kb"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "call_p50_scaled_ms": (statistics.median(t for r in res["call_scaled_ms"] for t in r), "ms"),
        "compound_p50_scaled_ms": (statistics.median(t for r in res["compound_scaled_ms"] for t in r), "ms"),
    }
    save_samples(res, work.parent / f"raw-{workload}-{seed}.json")
    return _result(res, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def save_samples(res: dict, path: Path) -> None:
    """Keep a run's raw and scaled per-call samples, per round."""
    path.write_text(json.dumps({k: res[k] for k in res if k.endswith("_ms") or k == "round_s"}))


def _result(res: dict, metrics: dict) -> dict:
    for problem in res["unexpected"]:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    return {"correct": res["unexpected_count"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def subrun(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own process, as the command line would make it."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def repeat(workloads, k: int, seed: int, seconds: float, trace: int) -> dict:
    """Run each workload k times on seeds seed..seed+k-1; median and quartiles per metric."""
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {}
    for w in workloads:
        runs = [subrun(w, seed + i, seconds, trace) for i in range(k)]
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None or trace else ("  ok" if spread < bound / 3 else f"  WIDE (bound {bound})")
            print(f"{w:9s} {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}{flag}")
        shares = sorted({(r["failed"], r["attempted"], r["failed"] / r["attempted"]) for r in runs}, key=lambda x: x[2])
        print(f"{w:9s} failed/attempted per run: {[f'{f}/{a}' for f, a, _ in shares]}  correct: {all(r['correct'] for r in runs)}")
        report[w] = {"metrics": rows, "failed_shares": sorted({s for _, _, s in shares}), "correct": all(r["correct"] for r in runs)}
    out = ROOT / ".bench_run" / f"repeat-{'-'.join(workloads)}-seed{seed}-k{k}-trace{trace}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; default: all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="K", help="run each workload K times and print medians and quartiles")
    args = ap.parse_args()

    if not (ROOT / "src" / "diskflow" / "__init__.py").is_file():
        print(f"error: no diskflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    # compile once up front so no timed start pays for bytecode compilation
    if not (compileall.compile_dir(ROOT / "src", quiet=1) and compileall.compile_dir(BENCH, quiet=1, maxlevels=0)):
        print("error: diskflow sources do not compile", file=sys.stderr)
        return 2
    (ROOT / ".bench_run").mkdir(exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        repeat(workloads, args.repeat, args.seed, args.seconds, args.trace)
        return 0
    if args.workload is None:
        results = {w: subrun(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
        for w, r in results.items():
            print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(results))
        return 0

    work = ROOT / ".bench_run" / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
