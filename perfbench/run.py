"""Benchmark for mocorr: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload pipeline --seed 42 --seconds 35 --trace 0

Run from the repository root; the program is imported from ./src. The
workload's panel of cases comes from --seed. Timed operations take the cases
in turn until the next one would overrun --seconds (at least two run). Every
operation's outputs are checked and scored
outside the timed span, a case that runs again must score bit for bit as it
did the first time, and the run's metrics are medians over operations.

--trace 0 reports the end-to-end metrics and installs no wrappers.
--trace 1 runs each case untraced and then traced: traced operations run
with wrappers around the program's public functions (see probes.py), and
the spans they record give the per-layer metrics; the tracing overhead is
the median, over these pairs, of traced minus untraced wall time.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}. The full record
(machine, settings, every operation, LM convergence, spans) is written to
perfbench/out/.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_OPS = 2
SETUP_REPEATS = 3
# what the program is imported through; timed again in a fresh interpreter
# for each set-up repeat, since a module imports only once per process
IMPORTS = "import mocorr.pipeline, mocorr.net.train, mocorr.optim.problem"

E2E_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# the outputs' accuracy on the panel's first case, reported by the traced
# run: per seed these repeat bit for bit, but across seeds they spread more
# than any end-to-end bound may allow, so they are not end-to-end metrics;
# 0 where a workload has no such stage
ACCURACY = ("mpjpe_init_mm", "mpjpe_sv_mm", "mpjpe_hybrid_mm", "mpjpe_refined_mm")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Import time of the program in a fresh interpreter, measured inside it."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "mocorr"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def machine_record(args):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def run_op(workload, cases, case, index, tracer=None):
    """One timed operation on `cases[case]`, then its check; wrappers only
    when `tracer`."""
    import probes

    scope = probes.tracing(tracer, f"op{index}") if tracer else contextlib.nullcontext()
    outputs, error = None, None
    with scope:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outputs = workload.run(cases[case])
        except Exception:  # a failed operation is counted, and the loop goes on
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    op = {"index": index, "case": case, "traced": tracer is not None, "wall_s": wall,
          "cpu_s": cpu, "accuracy": None, "problems": []}
    if error is not None:
        op["problems"].append(error)
        return op
    try:
        op["accuracy"], op["problems"] = workload.check(cases[case], outputs)
    except Exception:
        op["problems"].append(traceback.format_exc())
    return op


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "mocorr", "__init__.py")):
        print(f"error: no mocorr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]

    import mocorr
    if os.path.dirname(os.path.dirname(os.path.abspath(mocorr.__file__))) != SRC:
        print(f"error: mocorr was imported from {mocorr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import probes
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(OUT_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)

    tracer = Tracer() if args.trace else None
    setup_times = []
    missing = []
    if tracer is not None:
        with probes.tracing(tracer, "setup") as patches:
            cases = workload.setup(args.seed, work_dir)
        missing = patches.missing
    else:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cases = workload.setup(args.seed, work_dir)
            setup_times.append(import_seconds() + time.perf_counter() - t0)

    ops = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((op["wall_s"] for op in ops), default=0.0)
        if len(ops) >= MIN_OPS and elapsed + longest > args.seconds:
            break
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        case = (index // 2 if tracer is not None else index) % len(cases)
        ops.append(run_op(workload, cases, case, index, tracer if traced else None))

    references = {}
    for op in ops:
        if op["accuracy"] is None:
            continue
        reference = references.setdefault(op["case"], op["accuracy"])
        if op["accuracy"] != reference:
            op["problems"].append("accuracy differs from the first repeat of this case")
    failed = sum(bool(op["problems"]) for op in ops)
    run_problems = (workload.check_run([references[k] for k in sorted(references)])
                    if references else ["no operation was scored"])
    ok = [op for op in ops if not op["problems"]]
    plain = [op for op in ok if not op["traced"]]
    accuracy = references.get(0, {})

    record = {"machine": machine_record(args), "ops": ops, "accuracy": accuracy,
              "case_accuracy": references, "run_problems": run_problems,
              "failed_frac": failed / len(ops), "missing_probes": missing}
    if tracer is None:
        metrics = {
            "run_s": median([op["wall_s"] for op in plain]),
            "cpu_s": median([op["cpu_s"] for op in plain]),
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        record["setup_s_repeats"] = setup_times
    else:
        traced_ops = [op for op in ok if op["traced"]]
        runs = {f"op{op['index']}" for op in traced_ops}
        metrics = probes.layer_metrics(tracer.spans, runs)
        for name in ACCURACY:
            metrics[f"accuracy.{name}"] = accuracy.get(name, 0.0)
        metrics["trace.run_s"] = median([op["wall_s"] for op in traced_ops])
        # each traced operation against the untraced one just before it, on
        # the same case
        by_index = {op["index"]: op for op in plain}
        metrics["trace.overhead_s"] = median([
            op["wall_s"] - by_index[op["index"] - 1]["wall_s"]
            for op in traced_ops if op["index"] - 1 in by_index])
        units = {name: probes.unit(name) for name in metrics}
        first = {f"op{traced_ops[0]['index']}"} if traced_ops else set()
        record["lm_solves"] = probes.lm_solves(tracer.spans, first)
    record["metrics"] = metrics
    write_record(args, record, tracer)
    print_summary(record, units)

    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_record(args, record, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump([vars(s) for s in tracer.spans], fh, default=str)


def print_summary(record, units):
    m = record["machine"]
    print(f"# {m['workload']} seed {m['seed']} trace {m['trace']}: nproc {m['nproc']}, "
          f"{m['cpu_model']}, python {m['python']}, numpy {m['numpy']} "
          f"({m['numpy_blas']}), scipy {m['scipy']} ({m['scipy_blas']})")
    for op in record["ops"]:
        status = "ok" if not op["problems"] else "FAILED: " + op["problems"][-1].strip()
        print(f"op {op['index']} case {op['case']}{' traced' if op['traced'] else ''}: "
              f"{op['wall_s']:.3f} s wall, {op['cpu_s']:.3f} s cpu, {status}")
    for name, value in record["accuracy"].items():
        print(f"accuracy {name} = {value!r}")
    for problem in record["run_problems"]:
        print(f"run check FAILED: {problem}")
    print(f"failed_frac = {record['failed_frac']!r}")
    if record["missing_probes"]:
        print(f"probe points not found: {', '.join(record['missing_probes'])}")
    for solve in record.get("lm_solves", []):
        print(f"lm {solve['stage']} {solve['problem']}: {solve['status']} after "
              f"{solve['iterations']} iterations, {solve['trial_steps']} trial steps, "
              f"cost {solve['first_cost']:.6g} -> {solve['last_cost']:.6g}")
    for name, value in record["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
