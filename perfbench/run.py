"""Benchmark of the bdgame solver stack on four seeded workloads.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 16 --trace 0

Run from the root of a checkout.  Each run sets up its inputs in fresh
processes (timed as `setup_s`), then runs the jobs in one fresh worker
process, one client in a closed loop (see worker.py), and checks every
output.  `--trace 1` runs the same jobs a second time with every public
bdgame function wrapped, and reports per-layer metrics instead of the
end-to-end ones.  `--workload all` runs the four workloads in turn.
Metric names and units come from BENCHMARK.json; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from prepare import WORKLOADS, job_count
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
PINS = HERE / "digests.json"
PIN_HEX = 16  # pinned digests keep this many hex digits of the sha256
SETUP_REPEATS = 3
RUN_LIMIT_S = 175  # one workload's run must end within 180 s
INFO_UNITS = {"jobs": "count", "job_p90_s": "s", "raw_wall_s": "s",
              "raw_job_p50_s": "s", "probe_ms": "ms", "failed_frac": "ratio"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BDGAME_MAX_ATOMS", None)  # every run uses the default atom cap
    env["PYTHONPATH"] = str(Path("src").resolve())
    env["PYTHONHASHSEED"] = "0"  # set iteration order, and so timing, is fixed
    return env


def python(deadline: float, *args: str) -> str:
    """Run a script in a fresh interpreter killed at `deadline`; stdout."""
    done = subprocess.run([sys.executable, *args], env=child_env(),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return done.stdout


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 pin: bool) -> tuple[dict, dict, int, int]:
    """Set up, run and check one workload.

    Returns (metrics, informational figures, outputs attempted, failed).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    work = Path(".bench_work") / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = job_count(workload, seconds)
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        python(deadline, str(HERE / "prepare.py"), "--workload", workload,
               "--seed", str(seed), "--jobs", str(jobs), "--out", str(work))
        setup.append(time.perf_counter() - start)
    manifest = work / "manifest.json"
    python(deadline, str(HERE / "worker.py"), str(manifest),
           str(work / "plain.json"))
    plain = json.loads((work / "plain.json").read_text(encoding="utf-8"))

    digests = [j["sha256"] for j in plain["jobs"]]
    (work / "digests.json").write_text(json.dumps(digests), encoding="utf-8")
    pins = json.loads(PINS.read_text(encoding="utf-8")) \
        if PINS.exists() else {}
    pinned = pins.get(workload, {}).get(str(seed), [])
    problems = {}  # job or golden -> what is wrong with its output
    for k, job in enumerate(plain["jobs"]):
        if job["problem"]:
            problems[f"job {k}"] = job["problem"]
        elif k < len(pinned) and not job["sha256"].startswith(pinned[k]):
            problems[f"job {k}"] = "stdout differs from the pinned digest"
    problems.update((g, "differs from the golden report")
                    for g in plain["golden_mismatches"])
    attempted = len(plain["jobs"]) + plain["goldens"]

    # Job times in reference seconds (see hostspeed.py).  Set-up stays in
    # plain seconds: it is mostly process start-up and imports, which the
    # interpreter probe does not track.
    times = [j["ref_seconds"] for j in plain["jobs"]]
    raw = [j["seconds"] for j in plain["jobs"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "peak_rss_mib": plain["peak_rss_kib"] / 1024,
    }
    extra = {"jobs": len(times)}
    if len(times) >= 100:  # at least ten jobs lie beyond the 90th percentile
        extra["job_p90_s"] = statistics.quantiles(times, n=10)[-1]
    extra.update(raw_wall_s=sum(raw), raw_job_p50_s=statistics.median(raw),
                 probe_ms=statistics.median(plain["probes"]) * 1000)

    if trace:
        python(deadline, str(HERE / "worker.py"), str(manifest),
               str(work / "traced.json"), "--trace", str(work / "trace.json"))
        traced = json.loads((work / "traced.json").read_text(encoding="utf-8"))
        attempted += len(traced["jobs"])
        problems.update(
            (f"traced job {k}", "stdout differs from the untraced run")
            for k, (job, digest) in enumerate(zip(traced["jobs"], digests))
            if job["sha256"] != digest)
        summary = json.loads((work / "trace.json").read_text(encoding="utf-8"))
        warm = json.loads(python(deadline, str(HERE / "micro.py"), "warm"))
        cold = json.loads(python(deadline, str(HERE / "micro.py"), "cold",
                                 "20"))
        metrics = layer_metrics(summary, warm, cold,
                                sum(j["seconds"] for j in traced["jobs"]))
        # In reference seconds, so that host speed does not count as cost.
        metrics["trace.overhead_frac"] = sum(
            j["ref_seconds"] for j in traced["jobs"]) / sum(times) - 1

    extra["failed_frac"] = len(problems) / attempted
    print(f"{workload} seed={seed}: {len(times)} jobs, {attempted} outputs "
          f"checked, {len(problems)} failed")
    for what, problem in list(problems.items())[:20]:
        print(f"  FAILED {what}: {problem}")
    if pin and not problems:
        pins.setdefault(workload, {})[str(seed)] = [
            digest[:PIN_HEX] for digest in digests]
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return metrics, extra, attempted, len(problems)


def layer_metrics(summary: dict, warm: dict, cold: dict,
                  traced_s: float) -> dict:
    """Per-layer metrics of a trace; shares are of `traced_s`, the traced
    timed phase in plain seconds."""
    fns, counters = summary["functions"], summary["counters"]

    def calls(name: str) -> int:
        return fns.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return fns.get(name, {}).get("self_s", 0.0)

    out: dict[str, float] = {}
    for name in ("logic.entails", "logic.consistent", "extension.extension",
                 "decision.agent_extension", "decision.joint_extension",
                 "decision.desire_report", "decision.set_geq",
                 "game.profile_geq", "game.derive_game"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    # Functions that some workload never calls: their self time as a share
    # of the traced timed phase, because a time that is 0 on every run
    # reads as a broken clock.
    for name in ("game.pareto", "game.nash", "goals.goal_set_of",
                 "goals.is_goal_based", "goals.u_closure",
                 "goals.pareto_via_goals", "goals.delta_goal_sets",
                 "goals.representation_check", "verify.check_representation",
                 "verify.check_pipeline_equivalence"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_frac"] = self_s(name) / traced_s
    for name, seen in summary["distinct"].items():
        out[f"{name}.distinct"] = seen
        if calls(name):
            out[f"{name}.useful_ratio"] = seen / calls(name)
    entails = calls("logic.entails")
    out["logic.entails.universe_atoms_mean"] = (
        counters.pop("logic.entails.universe_atoms") / entails
        if entails else 0.0)
    out.update(counters)
    for layer in LAYERS:
        out[f"layer.{layer}.self_frac"] = sum(
            f["self_s"] for name, f in fns.items()
            if name.startswith(layer + ".")) / traced_s
        out[f"layer.{layer}.incl_frac"] = \
            summary["layer_inclusive_s"].get(layer, 0.0) / traced_s
    out["model.parse_spec.self_s"] = self_s("model.parse_spec")
    out["model.validate_spec.self_s"] = self_s("model.validate_spec")
    out["cli.main.self_s"] = self_s("cli.main")
    out.update({f"logic.entails_warm_ms.{k}": v for k, v in warm.items()})
    out.update({f"logic.atom_patterns_cold_s.{k}": v
                for k, v in cold.items()})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's stdout digests as the "
                             "expected ones for its workload and seed")
    args = parser.parse_args(argv)

    bench_path = Path("BENCHMARK.json")
    missing = [p for p in (bench_path, Path("src/bdgame/cli.py"),
                           Path("tests/golden")) if not p.exists()]
    if missing:
        print(f"run.py: not a bdgame checkout, missing "
              f"{', '.join(map(str, missing))}; run from the repo root",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]

    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        measured, extra, attempted, failed = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.pin)
        prefix = f"{workload}." if args.workload == "all" else ""
        for metric in declared:
            value = measured[metric["name"]]
            print(f"  {metric['name']:44s} {value:14.6g} {metric['unit']}")
            result["metrics"][prefix + metric["name"]] = {
                "value": value, "unit": metric["unit"]}
        for key, value in extra.items():
            print(f"  {key:44s} {value:14.6g} {INFO_UNITS[key]}")
        result["attempted"] += attempted
        result["failed"] += failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
