"""mdlab benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of an mdlab checkout:

    python3 perfbench/run.py --workload index_ladder --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

A run imports mdlab from src/ of the checkout, generates the workload's
inputs from --seed, and makes whole passes of the workload for up to
--seconds (always at least one).  Each pass is checked against the
benchmark's own computations.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics (medians over the traced passes).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("reproduce", "index_ladder", "sampled_checks")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import mdlab from this checkout's src/, and nowhere else."""
    if not (SRC / "mdlab" / "__init__.py").is_file():
        print(f"perfbench: no mdlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import mdlab
    if Path(mdlab.__file__).resolve().parent != (SRC / "mdlab").resolve():
        print(f"perfbench: mdlab was imported from {mdlab.__file__}, not from {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "MDLAB_THREADS": os.environ.get("MDLAB_THREADS"),
    }


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_probe(args) -> None:
    """Fresh-process set-up: import mdlab and generate the inputs."""
    workloads = import_program()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workloads.make(args.workload, args.seed, str(WORKDIR))
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


def measure_setup(args) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_passes(wl, seconds: float, tally, tracer=None):
    """Whole passes for up to `seconds`, at least one; with a tracer, alternate
    untraced and traced passes, at least one of each.  Adds every pass's
    checks to `tally`."""
    plain, traced, layer = [], [], []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        use_trace = tracer is not None and len(plain) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcomes = wl.run()
        finally:
            wall = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        checked = wl.check(outcomes)
        tally.attempted += checked.attempted
        tally.failed += checked.failed
        tally.failures += [f for f in checked.failures if f not in tally.failures]
        tally.problems += [p for p in checked.problems if p not in tally.problems]
        (traced if use_trace else plain).append(([o.wall for o in outcomes],
                                                 [o.cpu for o in outcomes]))
        if use_trace:
            layer.append(tracer.metrics())
        print(f"pass {len(plain) + len(traced)} ({'traced' if use_trace else 'untraced'}): "
              f"wall {wall:.3f} s, cpu {sum(o.cpu for o in outcomes):.3f} s, "
              f"attempted {checked.attempted}, failed {checked.failed}", flush=True)
        longest = max(longest, wall)
        if (tracer is None or traced) and time.perf_counter() - t_start + longest > seconds:
            break
    return plain, traced, layer


def envelope(passes, i: int) -> float:
    """Sum over the operations of each one's shortest time among the passes.

    i = 0 for wall time, 1 for CPU time.  Every pass makes the same
    operations, so this is the pass time with each operation at its fastest.
    """
    return sum(min(times) for times in zip(*(p[i] for p in passes)))


def run_workload(args) -> int:
    workloads = import_program()
    print("environment: " + json.dumps(environment()), flush=True)
    setup_s = None if args.trace else measure_setup(args)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, str(WORKDIR))
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    tally = workloads.Tally()
    plain, traced, layer = run_passes(wl, args.seconds, tally, tracer)

    if args.trace:
        units = tracing.METRICS
        metrics = tracing.median_metrics(layer)
        metrics["trace.overhead_s"] = envelope(traced, 0) - envelope(plain, 0)
    else:
        units = END_TO_END
        metrics = {"wall_s": envelope(plain, 0), "cpu_s": envelope(plain, 1),
                   "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for f in tally.failures:
        print(f"FAILED: {f}")
    for p in tally.problems:
        print(f"INCORRECT: {p}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload}: {len(plain) + len(traced)} passes, attempted {tally.attempted}, "
          f"failed {tally.failed}, incorrect outputs {len(tally.problems)}")
    correct = not tally.problems
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        code = max(code, proc.returncode)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
