"""fraczeta benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fraczeta checkout.  It measures the tree in
``src/`` of that checkout and no installed copy.  Each run starts fresh
worker processes with a pinned environment: PYTHONPATH set to ``src``,
FRACZETA_PRECISION unset, the BLAS/OpenMP thread counts set to 1, and
PYTHONHASHSEED fixed.

- ``--trace 0`` gives the end-to-end metrics.  ``setup_s`` is the median
  of SETUP_SAMPLES fresh processes, one of them the measured worker.
- ``--trace 1`` gives the per-layer metrics from a traced run, plus
  ``python -X importtime`` figures for the imports.

The metric names and units come from BENCHMARK.json.  The last line of
stdout is the JSON result.  The lines above it are a readable summary
that also states the seed, the sample counts and the failure ratio.
Scratch files go to ``.perfbench_work/`` in the checkout, and are removed
at exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170  # every run ends well inside 180 s


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for name in ("FRACZETA_PRECISION", "PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME",
                 "PYTHONDEVMODE", "PYTHONWARNINGS"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    def __init__(self, args, env, work):
        self.args, self.env, self.work = args, env, work
        self.start = time.monotonic()

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1:
            raise BenchError("out of time")
        return left

    def worker(self, mode: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--mode", mode,
               "--work", str(self.work), "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"worker --mode {mode} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def import_ms(self, modules) -> dict:
        """Median cumulative import time of each module, from ``-X importtime``.

        A module that ``import fraczeta`` does not load (say, one imported
        lazily) is not listed and reports 0 ms.
        """
        samples = {m: [] for m in modules}
        for _ in range(IMPORTTIME_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fraczeta"],
                                  env=self.env, capture_output=True, text=True, timeout=self._timeout())
            if proc.returncode != 0:
                raise BenchError(f"import fraczeta failed: {proc.stderr[-300:]}")
            for line in proc.stderr.splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) == 3 and parts[2].strip() in samples:
                    samples[parts[2].strip()].append(int(parts[1]) / 1000)
        if any(len(v) not in (0, IMPORTTIME_SAMPLES) for v in samples.values()):
            raise BenchError("-X importtime listed a module in some runs only")
        return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def measure(runner: Runner, trace: bool) -> tuple[dict, dict]:
    """(metrics, facts for the summary)."""
    if not trace:
        setup = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        res = runner.worker("run")
        setup.append(res["setup_s"])
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["p50_ms"],
            "op_p90_ms": res["p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return metrics, res
    res = runner.worker("trace")
    imports = runner.import_ms(("fraczeta", "numpy", "mpmath"))
    metrics = {f"import.{m}_ms": v for m, v in imports.items()}
    metrics.update(res["layers"])
    return metrics, res


def main() -> int:
    parser = argparse.ArgumentParser(description="fraczeta benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fraczeta" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"perfbench: {ROOT} holds no fraczeta source tree (src/fraczeta) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, res = measure(Runner(args, pinned_env(), work), bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    correct = res["failed"] == 0 and not res["oracles_missed"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cycles={res['cycles']} timed_ops={res['ops']} "
          f"warmup_s={res['warmup_s']:.3f}")
    print(f"  runtime: {res['runtime']}")
    for m in wanted:
        value = metrics[m["name"]]
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<30} {shown:>14} {m['unit']}")
    print(f"  {'failure_ratio':<30} {res['failed'] / res['attempted']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} ops checked)")
    print(f"  oracle self-check: {res['oracles_checked'] - len(res['oracles_missed'])}"
          f"/{res['oracles_checked']} oracles rejected a corrupted result")
    for line in res["failures"] + res["oracles_missed"]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
