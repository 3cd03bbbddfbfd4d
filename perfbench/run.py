"""Outside-in benchmark of robustfsc: one workload per process.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``desk`` is the acceptance planning run,
``eval-ladder`` the exact evaluation of fixed controllers on three models,
``learn-random`` a long domain-randomization run.

``--trace 0`` measures the end-to-end metrics with nothing instrumented:

* ``setup_s``: median over three fresh child processes, started between
  the repetitions, of the time from process start to inputs ready
  (imports, grid generation, serialize, parse, validate, fixed
  controllers), which the CLI pays on every call;
* ``wall_s``: time of the workload's operation: the fastest repetition of
  each of its parts (the ladder's models; a planner run is one part),
  summed.  The parts are repeated in turn while one more repetition still
  ends within ``--seconds``, and each runs at least once.  The fastest, not
  the median, because the machine slows a run and does not speed it up: on
  a shared 2-vCPU Xeon VM a learn-random operation took either about 2.0 s
  or about 3.3 s, in spells of 10-40 s, and over ten 40-second runs the
  spread between quartiles was 34% of the median for the runs' medians and
  9% for their fastest repetitions (11% and 10% on eval-ladder, 15% and 16%
  on desk).  The median is printed beside it;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``best_robust_value``: the quality produced (see ``workloads.py``).

``--trace 1`` instead traces one setup and runs each part untraced then
traced, and reports the per-layer split (see ``tracing.py``) plus
``trace.overhead_s``, the traced minus the untraced operation time, both
taken as for ``wall_s``.

Every operation's outputs are checked outside the timed region; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment, the quality of the outputs and,
when traced, every span are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS thread: load comes from this process alone, and steadily
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BENCHMARK = HERE.parent / "BENCHMARK.json"
SETUP_SAMPLES = 3


def use_checkout_source() -> None:
    """Import robustfsc from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "robustfsc" / "__init__.py").is_file():
        raise SystemExit(f"error: no robustfsc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import robustfsc

    if Path(robustfsc.__file__).resolve().parent != SRC / "robustfsc":
        raise SystemExit(f"error: robustfsc imported from {robustfsc.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_start": list(os.getloadavg()),
    }


def time_child_setups(args, count: int) -> list[float]:
    """Seconds from process start to inputs ready, in ``count`` fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Measurement:
    """Times and check results of one run, kept by part of the operation."""

    def __init__(self, workload, parts: list) -> None:
        self.workload = workload
        self.parts = parts
        self.attempted = 0
        self.failed = 0
        self.walls: list[list[float]] = [[] for _ in parts]
        self.traced_walls: list[list[float]] = [[] for _ in parts]
        self.traced_parts: list[int] = []  # part of each traced repetition, in order
        self.qualities: list[dict | None] = [None] * len(parts)
        self.errors: list[str] = []

    def once(self, part: int, tracer=None, caller=None) -> None:
        """Run, time and check one part; failures are counted, not raised."""
        from tracing import OP_ROOT

        inputs = self.parts[part]
        attempted = self.workload.attempted(inputs)
        self.attempted += attempted
        try:
            if tracer is None:
                start = time.perf_counter()
                output = self.workload.operate(inputs)
                self.walls[part].append(time.perf_counter() - start)
            else:
                self.traced_parts.append(part)
                with tracer.installed(caller), tracer.span(OP_ROOT):
                    start = time.perf_counter()
                    output = self.workload.operate(inputs)
                    self.traced_walls[part].append(time.perf_counter() - start)
            failed = self.workload.check(inputs, output)
            quality = self.workload.quality(inputs, output)
        except Exception:  # noqa: BLE001 - an operation that raises counts as failed
            self.errors.append(traceback.format_exc())
            self.failed += attempted
            return
        # outputs are deterministic: every repetition must reproduce the first
        if self.qualities[part] is not None and quality != self.qualities[part]:
            failed = attempted
        self.qualities[part] = self.qualities[part] or quality
        self.failed += failed

    @property
    def quality(self) -> dict | None:
        if any(q is None for q in self.qualities):
            return None
        return self.workload.combine(self.qualities)


def measure(workload, seed: int, seconds: float, trace: bool,
            before_each=None) -> tuple[Measurement, object]:
    """Set up once, then repeat the operation's parts in turn while they fit.

    Every part runs once; after that a repetition starts only if it would
    end within ``seconds``, were it as long as the last repetition of the
    same part.  ``before_each`` is called at the start of every repetition.
    """
    import workloads
    from tracing import SETUP_ROOT, Tracer

    tracer = Tracer() if trace else None
    if tracer is None:
        inputs = workload.setup(seed)
    else:
        with tracer.installed(workloads), tracer.span(SETUP_ROOT):
            inputs = workload.setup(seed)
    result = Measurement(workload, workload.parts(inputs))
    count = len(result.parts)
    took = [0.0] * count
    deadline = time.perf_counter() + seconds
    repetition = 0
    while True:
        part = repetition % count
        began = time.perf_counter()
        if before_each is not None:
            before_each()
        result.once(part)
        if tracer is not None:
            result.once(part, tracer, workloads)
        now = time.perf_counter()
        took[part] = now - began
        repetition += 1
        if repetition >= count and now + took[repetition % count] > deadline:
            return result, tracer


def _operation_time(walls: list[list[float]], estimate=min) -> float:
    """Sum of the parts' fastest (or ``estimate``) times; infinity when a part always raised."""
    return sum(estimate(w) if w else float("inf") for w in walls)


def _number(x: float) -> float:
    # JSON has no infinity or NaN; a run that produces one has already
    # counted the operation as failed
    return float(x) if x == x and abs(x) != float("inf") else 1.0e308


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the monotonic clock, exit")
    args = parser.parse_args(argv)

    use_checkout_source()
    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print(time.monotonic())
        return 0

    origin = time.perf_counter()
    env = environment()
    # setup samples are spread between the repetitions, so that they see the
    # same machine as the operation; the rest are taken at the end
    setups: list[float] = []

    def sample_setup() -> None:
        if not args.trace and len(setups) < SETUP_SAMPLES:
            setups.extend(time_child_setups(args, 1))

    run, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), sample_setup)
    if not args.trace:
        setups.extend(time_child_setups(args, SETUP_SAMPLES - len(setups)))
    env["loadavg_end"] = list(os.getloadavg())
    declared = json.loads(BENCHMARK.read_text())

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": _operation_time(run.walls),
            "peak_rss_mb": peak_rss_mb(),
            "best_robust_value": (run.quality or {}).get("best_robust_value", float("inf")),
        }
        section = "end_to_end"
    else:
        from tracing import per_layer

        values = per_layer(tracer, run.traced_parts)
        values["trace.overhead_s"] = _operation_time(run.traced_walls) - _operation_time(run.walls)
        section = "per_layer"
    units = {m["name"]: m["unit"] for m in declared[section]}
    metrics = {name: {"value": _number(values[name]), "unit": unit} for name, unit in units.items()}

    for error in run.errors:
        print(error, file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"quality: {json.dumps(run.quality)}")
    print(f"{args.workload}: {run.attempted} operations, {run.failed} failed "
          f"(failed_frac {run.failed / max(run.attempted, 1):.4g}), "
          f"wall_s median {_operation_time(run.walls, statistics.median):.6g}, "
          f"samples {[[round(w, 4) for w in part] for part in run.walls]}"
          + ("" if tracer else f", setup_s samples {[round(s, 4) for s in setups]}"))
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    if tracer is not None and values["unattributed_s"]:
        print(f"  {'unattributed_s':28s} {values['unattributed_s']:>16.6g} s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": env, "quality": run.quality, "walls": run.walls,
        "traced_walls": run.traced_walls, "setups": setups,
        "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
    }, indent=2, default=float) + "\n")
    if tracer is not None:
        (OUT / f"{stem}.spans.jsonl").write_text(tracer.to_jsonl(origin))

    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
