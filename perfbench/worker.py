"""Run a manifest's jobs back to back in this process, then check outputs.

    python3 perfbench/worker.py MANIFEST RESULT [--trace TRACEFILE]

One client, closed loop: a job calls `bdgame.cli.main(argv)` for each of
its commands once the previous call has returned, with stdout captured.
Only the calls are timed.  Between jobs, outside the timed region, the
outputs are hashed and checked, the host speed is probed (hostspeed.py)
at least every PROBE_EVERY_S, and the garbage collector runs.  Each job
also gets its time in reference seconds, scaled by the mean of the probes
before and after it.  After the
last job the golden reports are rerun and compared byte for byte.  With
--trace, the public functions of every bdgame module are wrapped first (see
tracer.py), the goldens are skipped, and the trace is written to TRACEFILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import P_REF, probe

PROBE_EVERY_S = 0.25  # probe the host between jobs at least this often

def run_cli(main, argv: list[str]) -> tuple[float, object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a dead run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def output_problem(argv: list[str], profiles: int | None, code: object,
                   stdout: str) -> str | None:
    """Checks that hold for any seed; None when the output is right."""
    if code != 0:
        return f"{argv[0]}: exit {code!r}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"{argv[0]}: stdout is not JSON"
    command = argv[0]
    if report.get("command") != command:
        return f"report command {report.get('command')!r}"
    if command == "check":
        if [c["passed"] for c in report["checks"]] != [True]:
            return "check did not pass"
        return None
    if len(report["profiles"]) != profiles:
        return (f"{len(report['profiles'])} feasible profiles, "
                f"expected {profiles}")
    picked = next(iter(report["solutions"].values()))
    if not all(0 <= i < profiles for i in picked):
        return "solution index out of range"
    if "pareto" in argv and not picked:
        return "empty pareto family on a nonempty game"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args(argv)
    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))

    import bdgame.cli
    tracer = None
    if args.trace is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    jobs = []
    probes = [probe()]
    last_probe = time.perf_counter()
    for k, job in enumerate(manifest["jobs"]):
        gc.collect()
        if tracer is not None:
            tracer.begin_job()
        calls = [run_cli(bdgame.cli.main, argv) for argv in job["argvs"]]
        before = len(probes) - 1
        if (time.perf_counter() - last_probe >= PROBE_EVERY_S
                or k == len(manifest["jobs"]) - 1):
            probes.append(probe())
            last_probe = time.perf_counter()
        digest = hashlib.sha256()
        problems = []
        for argv, (_, code, stdout) in zip(job["argvs"], calls):
            digest.update(stdout.encode() + b"\0")
            problems.append(output_problem(argv, job["profiles"], code,
                                           stdout))
        jobs.append({
            "seconds": sum(elapsed for elapsed, _, _ in calls),
            "probes": (before, before + 1),
            "sha256": digest.hexdigest(),
            "bytes": sum(len(stdout.encode()) for _, _, stdout in calls),
            "problem": "; ".join(p for p in problems if p) or None})
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for job in jobs:
        around = sum(probes[i] for i in job.pop("probes")) / 2
        job["ref_seconds"] = job["seconds"] * P_REF / around
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace, {
            "cli.report_bytes": sum(j["bytes"] for j in jobs)})

    mismatches = []
    goldens = [] if tracer is not None else manifest["goldens"]
    for case in goldens:
        _, code, stdout = run_cli(bdgame.cli.main, case["argv"])
        expected = Path(case["golden"]).read_text(encoding="utf-8")
        if code != 0 or stdout != expected:
            mismatches.append(case["golden"])
    args.result.write_text(json.dumps({
        "jobs": jobs, "goldens": len(goldens),
        "golden_mismatches": mismatches, "peak_rss_kib": rss_kib,
        "probes": probes}),
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
