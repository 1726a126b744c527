"""Benchmark of the `hhx` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are taken relative to this file, and the package is
imported from `src/` beside it. Every input is generated from the seed
before any timing (see workloads.py), into a scratch directory under
perfbench/ that is removed on exit.

--trace 0 (end to end): a closed loop with one client. Each round runs the
workload's jobs one after another, each a fresh `python -m hhx` process,
checks every answer, and then runs REFERENCE_RUNS times reference.py, a
fixed pure-Python program independent of hhx, also as fresh processes; one
such block of reference runs also precedes the first round. Rounds repeat
for S seconds. Wall and CPU (user+sys) times and max RSS are read from each
child's own os.wait4 result. Per round: wall_rel is the jobs' summed wall
time over the mean wall time of the reference blocks just before and just
after them, cpu_rel the same for CPU time, and peak_rss_mb the largest job
max RSS. The shared 2-vCPU machine this was tuned on changes speed by up
to 1.5x from one minute to the next and by 10-20% from one second to the
next; both programs stretch alike, so the ratios hold where seconds do not.
The seconds themselves are printed on a line before the result. setup_s is
the median wall time of fresh processes that only import hhx and load the
workload's inputs (probe.py), one before each round and at least
SETUP_LAUNCHES in all. Each metric is the median over rounds.

--trace 1 (per layer): the same jobs through `hhx.cli.main` in this process,
in untraced and traced rounds taken in turn for S seconds (tracer.py). Times
are medians of per-round self times; counts must repeat exactly in every
round; the last traced round's spans are written to
perfbench/work/spans-<workload>-<seed>.json. trace.overhead_s is the median
traced minus the median untraced round wall time. cli.import_s is the
import time the set-up probes measure.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
lines before it give the seed, the round count and ops_failed_ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 11
JOB_TIMEOUT_S = 120
REFERENCE_CHECKSUM = "540294"  # what reference.py prints
# reference.py takes about 0.16 s, so one run of it is as noisy as a whole
# multi-second job; four make it a small part of the ratio's noise
REFERENCE_RUNS = 4


def spawn(cmd, env, out_path: Path):
    """Run cmd to completion; return (wall seconds, exit code, rusage)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def probe_setup(wl, env, workdir: Path):
    """Wall time and the probe's own import/load times, one fresh process."""
    loads = json.dumps([job.loads() for job in wl.jobs])
    out = workdir / "probe.out"
    wall, code, _ = spawn([sys.executable, str(BENCH / "probe.py"), loads], env, out)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with status {code}: "
                           + out.with_suffix(".err").read_text())
    return wall, json.loads(out.read_text())


def run_references(env, workdir: Path):
    """Summed wall and CPU seconds of REFERENCE_RUNS fresh reference.py processes."""
    out = workdir / "reference.out"
    wall = cpu = 0.0
    for _ in range(REFERENCE_RUNS):
        w, code, usage = spawn([sys.executable, str(BENCH / "reference.py")], env, out)
        if code != 0 or out.read_text().strip() != REFERENCE_CHECKSUM:
            raise RuntimeError(f"reference program failed (status {code}): "
                               + out.read_text() + out.with_suffix(".err").read_text())
        wall += w
        cpu += usage.ru_utime + usage.ru_stime
    return wall, cpu


def end_to_end(wl, seconds, env, workdir: Path, check_job):
    setups = []
    rounds = []  # (job wall s, job cpu s, peak rss MiB, reference wall s, reference cpu s)
    attempted = failed = 0
    start = time.perf_counter()
    ref_before = run_references(env, workdir)
    # start a round only if one of average length still ends within the time
    while not rounds or (
        time.perf_counter() + (time.perf_counter() - start) / len(rounds)
        <= start + seconds
    ):
        # set-up probes are spread over the run, so a slow spell of the
        # machine moves only some of them
        setups.append(probe_setup(wl, env, workdir)[0])
        results = []
        for k, job in enumerate(wl.jobs):
            out = workdir / f"job{k}.out"
            wall, code, usage = spawn([sys.executable, "-m", "hhx", *job.argv()], env, out)
            results.append((job, code, wall, usage, out))
        wall = sum(r[2] for r in results)
        cpu = sum(u.ru_utime + u.ru_stime for _, _, _, u, _ in results)
        rss = max(u.ru_maxrss for _, _, _, u, _ in results) / 1024  # KiB -> MiB
        # the machine's speed changes from one second to the next, so the
        # jobs are set against the mean of the reference runs either side
        ref_after = run_references(env, workdir)
        rounds.append((wall, cpu, rss, (ref_before[0] + ref_after[0]) / 2,
                       (ref_before[1] + ref_after[1]) / 2))
        ref_before = ref_after
        for job, code, _, _, out in results:
            attempted += 1
            problems = check_job(job, code, out.read_text())
            if problems:
                failed += 1
                print(f"FAILED hhx {' '.join(job.argv())}: {'; '.join(problems)}")
    while len(setups) < SETUP_LAUNCHES:
        setups.append(probe_setup(wl, env, workdir)[0])
    metrics = {
        "wall_rel": statistics.median(r[0] / r[3] for r in rounds),
        "cpu_rel": statistics.median(r[1] / r[4] for r in rounds),
        "peak_rss_mb": statistics.median(r[2] for r in rounds),
        "setup_s": statistics.median(setups),
    }
    walls = ", ".join(f"{r[0]:.3f}" for r in rounds)
    print(f"rounds: {len(rounds)}; job wall_s per round: {walls}")
    print("seconds, median over rounds: "
          f"wall_s {statistics.median(r[0] for r in rounds):.4f}, "
          f"cpu_s {statistics.median(r[1] for r in rounds):.4f}, "
          f"reference wall_s {statistics.median(r[3] for r in rounds):.4f}")
    return attempted, failed, metrics, True


def _run_in_process(cli, job):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv())
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def per_layer(wl, seconds, env, workdir: Path, check_job):
    import hhx.cli as cli
    from tracer import Tracer

    import_s = statistics.median(
        probe_setup(wl, env, workdir)[1]["import_s"] for _ in range(SETUP_LAUNCHES)
    )
    attempted = failed = 0

    def run_round(tracer=None):
        nonlocal attempted, failed
        outputs = []
        start = time.perf_counter()
        for job in wl.jobs:
            outputs.append((job, *_run_in_process(cli, job)))
            if tracer is not None:
                tracer.end_job()
        wall = time.perf_counter() - start
        for job, code, text in outputs:
            attempted += 1
            problems = check_job(job, code, text)
            if problems:
                failed += 1
                print(f"FAILED hhx {' '.join(job.argv())}: {'; '.join(problems)}")
        return wall

    # untraced and traced rounds alternate, so both see the same machine
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or (
        time.perf_counter() + (time.perf_counter() - start) / len(traced)
        <= start + seconds
    ):
        untraced.append(run_round())
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_round(tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())

    spans = BENCH / "work" / f"spans-{wl.name}-{wl.seed}.json"
    tracer.dump(spans)
    print(f"spans of the last traced round: {spans}")

    repeat = True
    metrics = {}
    for name, value in layers[0].items():
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if any(v != value for v in values):
                repeat = False
                print(f"COUNT DIFFERS between traced rounds: {name} {values}")
            metrics[name] = value
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"rounds: {len(untraced)} untraced, median {statistics.median(untraced):.3f} s; "
          f"{len(traced)} traced, median {statistics.median(traced):.3f} s")
    return attempted, failed, metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "hhx" / "__init__.py").is_file():
        print(f"error: no hhx package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.NAMES)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        # compile the package's bytecode once, outside every measurement
        spawn([sys.executable, "-m", "hhx", "validate", "--builtin", "circle"],
              env, workdir / "warmup.out")
        measure = per_layer if args.trace else end_to_end
        attempted, failed, values, repeat = measure(
            wl, args.seconds, env, workdir, workloads.check_job
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    print(f"workload: {args.workload}; seed: {args.seed}; "
          f"ops_failed_ratio: {failed}/{attempted} = {failed / attempted:g}")
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
