"""One benchmark process: import fraczeta, build a workload, warm up, time it, check it.

run.py starts this with a pinned environment, once per set-up sample
(``--mode setup``) and once for the measured run (``--mode run`` or
``--mode trace``).  It prints one JSON object on the last line of stdout.

- ``setup``: import fraczeta and run one op of each class untimed.
- ``run``: then repeat the op cycle for ``--seconds`` and at least MIN_OPS
  ops (whole cycles only), checking every output outside the timed region.
- ``trace``: run untimed cycles for half the time, then the same number
  of cycles with spans installed, and report per-layer numbers.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# p90 needs this many timed ops; cli-cold is exempt, four tours (68 cold
# processes) already take the whole run
MIN_OPS = 100


def run_phase(ops, seconds=None, cycles=None, tracer=None, min_ops=0):
    """Repeat the op cycle until ``seconds`` have passed and ``min_ops`` ops
    are timed, or until ``cycles`` are done.

    Returns (latencies in ns, [(op kind, failure or None, output bytes)],
    cycles run).  Only the op call itself is timed; each output is checked
    right after it and then dropped, so memory does not grow with the run.
    """
    import spans

    latencies, records = [], []
    done = 0
    start = time.perf_counter()
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        while True:
            for op in ops:
                traced = tracer is not None and op.traced_run is not None
                if tracer is not None:
                    tracer.op = len(latencies)
                t0 = time.perf_counter_ns()
                try:
                    raw = (op.traced_run if traced else op.run)()
                except Exception as exc:  # a failing op is counted, the loop goes on
                    raw, err = None, f"{type(exc).__name__}: {exc}"
                else:
                    err = None
                latencies.append(time.perf_counter_ns() - t0)
                nbytes = 0
                if err is None:
                    try:
                        kept = op.keep(raw)
                        nbytes = getattr(kept, "nbytes", 0)
                        err = op.check(kept)
                    except Exception as exc:  # an oracle that cannot read the output fails it
                        err = f"checking raised {type(exc).__name__}: {exc}"
                if traced and op.spans_file.exists():
                    tracer.adopt(json.loads(op.spans_file.read_text()))
                    op.spans_file.unlink()
                records.append((op.kind, err, nbytes))
            done += 1
            if cycles is not None and done >= cycles:
                break
            if (cycles is None and time.perf_counter() - start >= seconds
                    and len(latencies) >= min_ops):
                break
    return latencies, records, done


def latency_summary(latencies) -> dict:
    ms = [ns / 1e6 for ns in latencies]
    return {
        "ops": len(ms),
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "p50_ms": statistics.median(ms),
        "p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    cold = args.workload == "cli-cold"

    import fraczeta
    if cold or args.workload == "export":
        import fraczeta.cli  # noqa: F401
    import_end = time.monotonic()
    if not Path(fraczeta.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"fraczeta imported from {fraczeta.__file__}, outside {ROOT / 'src'}", file=sys.stderr)
        return 3

    import oracles
    import seeded
    import spans
    import workloads

    ctx = workloads.Context(fraczeta, seeded.rng_for(args.workload, args.seed), args.work, dict(os.environ))
    ops = workloads.WORKLOADS[args.workload](ctx)

    # Warm-up: one op of each class.  Cold commands each run once here, so
    # bytecode is compiled before timing; their warm-up is not in setup_s
    # because every timed cold command pays its own import.
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op)
    warm_latencies, warm_records = [], []
    if not (cold and args.mode == "setup"):
        warm_latencies, warm_records, _ = run_phase(list(first_of_kind.values()), cycles=1)
    warmup_s = sum(warm_latencies) / 1e9
    result = {"setup_s": import_end - args.spawned_at + (0.0 if cold else warmup_s), "warmup_s": warmup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    gc.collect()
    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    min_ops = MIN_OPS if args.mode == "run" and not cold else 0
    latencies, records, cycles = run_phase(ops, seconds=seconds, min_ops=min_ops)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    result.update(latency_summary(latencies), cycles=cycles, peak_rss_mb=usage.ru_maxrss / 1024)
    # read after peak memory, so the metadata import is not measured; numpy
    # may not be imported at all
    import importlib.metadata
    mp = sys.modules["mpmath"]
    result["runtime"] = (f"python {sys.version.split()[0]}, numpy {importlib.metadata.version('numpy')}, "
                         f"mpmath {mp.__version__} ({mp.libmp.BACKEND} backend), {os.cpu_count()} CPUs")

    if args.mode == "trace":
        tracer = spans.Tracer()
        gc.collect()
        traced_latencies, traced_records, _ = run_phase(ops, cycles=cycles, tracer=tracer)
        records += traced_records
        traced = latency_summary(traced_latencies)
        result["layers"] = spans.layer_metrics(tracer.spans, traced["ops"])
        result["layers"]["cli.output_bytes"] = sum(n for _, _, n in traced_records) / traced["ops"]
        result["layers"]["trace.overhead_ratio"] = traced["ops_per_s"] / result["ops_per_s"]

    failures = [f"{kind}: {err}" for kind, err, _ in warm_records + records if err]
    for op in ops:
        if op.finish is not None:
            try:
                failures += [f"{op.kind}: {err}" for err in op.finish()]
            except Exception as exc:
                failures.append(f"{op.kind}: checking raised {type(exc).__name__}: {exc}")
    try:
        checked, missed = oracles.negative_checks(fraczeta, args.work)
    except Exception as exc:
        checked, missed = 0, [f"negative checks raised {type(exc).__name__}: {exc}"]
    result.update(
        attempted=len(warm_records) + len(records),
        failed=len(failures),
        failures=failures[:5],
        oracles_checked=checked,
        oracles_missed=missed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
