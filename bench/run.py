"""chamberwalk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from BENCHMARK.json in this process for up to S seconds
of passes (at least two), checks every output, and prints each metric by name
and unit followed by one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the span recorder in spans.py, and the tracing
overhead is printed as well.

    python3 bench/run.py --vet K

runs one pass of every workload at program seeds 0..K-1 and prints which
seeds pass every check (how PROGRAM_SEEDS below was chosen).
"""

import time

T0 = time.perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Program seeds at which every workload's statistical gates pass (found
#: with --vet); --seed n runs at PROGRAM_SEEDS[n % len(PROGRAM_SEEDS)].
PROGRAM_SEEDS = (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
#: fresh processes timed per run for setup_s
SETUP_PROBES = 3
#: passes per run at the least: selftest-fast compares two passes' artifacts,
#: and a traced run needs one untraced and one traced pass
MIN_PASSES = 2
#: OpenBLAS / OpenMP threads: one per available core, set before numpy loads
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, THREADS)

import host  # noqa: E402
import workloads  # noqa: E402


def _program():
    """Import chamberwalk from this checkout's src/, or exit with an error."""
    package = SRC / "chamberwalk"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: chamberwalk sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import chamberwalk
    import chamberwalk.cli  # noqa: F401  (binds every layer on the package)

    if Path(chamberwalk.__file__).resolve().parent != package:
        sys.exit(f"error: imported chamberwalk from {chamberwalk.__file__}, not {package}")
    return chamberwalk


def _probe_setup(name: str, seed: int) -> None:
    """Child process: import, build root systems, cold-call kernels.

    Prints the set-up time divided by the host slowdown sampled meanwhile,
    then the set-up time as measured.
    """
    with host.HostMeter() as meter:
        workloads.WORKLOADS[name](_program(), seed, OUT).setup()
        took = time.perf_counter() - T0 - meter.spent - meter.samples[0]
    print(took / meter.slowdown(), took)


def _setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes: (rescaled, as measured)."""
    scaled, times = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--probe-setup", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        value, took = map(float, proc.stdout.split()[-2:])
        scaled.append(value)
        times.append(took)
    return statistics.median(scaled), statistics.median(times)


def _run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cw = _program()
    wl = workloads.WORKLOADS[name](cw, seed, workdir)
    rec = None
    if trace:
        import spans

        rec = spans.SpanRecorder()
        rec.install(cw)
    wl.setup()
    setup_end = 0
    if rec is not None:
        rec.uninstall()
        setup_end = len(rec)
        rec.counts.clear()

    walls = {False: [], True: []}
    cpus, raw_walls, slowdowns = [], [], []
    total = workloads.Verdict()
    traced_bytes = 0
    start = time.perf_counter()
    k = 0
    # a pass starts only if, at the mean pass time so far, it ends within the run
    while k < MIN_PASSES or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        traced = rec is not None and k % 2 == 1
        if traced:
            rec.install(cw)
        with host.HostMeter() as meter:
            w0, c0 = time.perf_counter(), time.process_time()
            raw = wl.execute(k)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            wall, cpu = wall - meter.spent, cpu - meter.spent
        if traced:
            rec.uninstall()
        slowdown = meter.slowdown()
        walls[traced].append(wall / slowdown)
        cpus.append(cpu / slowdown)
        raw_walls.append(wall)
        if traced:
            slowdowns.append(slowdown)
        print(f"pass {k}{' traced' if traced else ''}: {wall:.4f} s wall, {cpu:.4f} s cpu, "
              f"host slowdown {slowdown:.3f}", file=sys.stderr)
        v = wl.verify(k, raw)
        total.attempted += v.attempted
        total.failed += v.failed
        total.problems += v.problems
        if traced:
            traced_bytes += v.output_bytes
        k += 1

    result = {"correct": not total.problems, "attempted": total.attempted,
              "failed": total.failed}
    for problem in dict.fromkeys(total.problems):
        print(f"INCORRECT {name}: {problem}", file=sys.stderr)
    print(f"{name}: median pass wall time as measured {statistics.median(raw_walls):.4f} s "
          f"over {k} passes")
    if rec is None:
        result["values"] = {
            "verdict_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result
    traced_s = statistics.median(walls[True])
    plain_s = statistics.median(walls[False])
    n_traced = len(walls[True])
    print(f"tracing overhead {name}: traced verdict {traced_s:.4f} s, untraced "
          f"{plain_s:.4f} s, overhead {traced_s - plain_s:+.4f} s "
          f"({100.0 * (traced_s - plain_s) / plain_s:+.1f}%) over "
          f"{n_traced} traced / {len(walls[False])} untraced passes")
    slowdown = statistics.median(slowdowns)
    result["values"] = spans.layer_metrics(rec, setup_end, n_traced, slowdown, {
        "cli.output_bytes": traced_bytes / n_traced,
        "trace.overhead_s": traced_s - plain_s,
        "host.slowdown": slowdown,
    })
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"trace-{name}.npz")
    return result


def _vet(count: int) -> None:
    cw = _program()
    OUT.mkdir(exist_ok=True)
    good = []
    for seed in range(count):
        bad = []
        for name, cls in workloads.WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix=f"vet-{name}-", dir=OUT))
            try:
                wl = cls(cw, seed, workdir)
                v = wl.verify(0, wl.execute(0))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad += [f"{name}: {p}" for p in v.problems]
            print(f"seed {seed} {name}: {v.attempted} attempted, {v.failed} failed",
                  flush=True)
        print(f"seed {seed}: {'ok' if not bad else '; '.join(bad)}", flush=True)
        if not bad:
            good.append(seed)
    print(f"seeds passing every check: {good}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=sorted(workloads.WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--vet", type=int, metavar="K")
    args = parser.parse_args()
    program_seed = PROGRAM_SEEDS[args.seed % len(PROGRAM_SEEDS)]
    if args.probe_setup:
        _probe_setup(args.probe_setup, program_seed)
        return 0
    if args.vet:
        _vet(args.vet)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    setup_s, setup_raw = (None, None) if args.trace else _setup_seconds(args.workload,
                                                                         program_seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = _run(args.workload, program_seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = result.pop("values")
    if setup_s is not None:
        values["setup_s"] = setup_s
        print(f"{args.workload}: median set-up time as measured {setup_raw:.4f} s")
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"error: measured {sorted(values)} but BENCHMARK.json declares "
                 f"{sorted(m['name'] for m in declared)}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(f"{args.workload} (program seed {program_seed}): attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
