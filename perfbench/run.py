"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload airy-cli --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The metric names, units and workloads
come from ``BENCHMARK.json`` at that root.  Each round runs in a fresh
interpreter (``round_child.py``), so no ``lru_cache`` carries over; rounds
repeat while another fits into ``--seconds`` (at least one runs).  With
``--trace 1`` each iteration is an untraced round followed by a traced
one, and the per-layer metrics are reported, including the tracing
overhead (traced minus untraced wall time).  Outputs are checked after
the timed rounds.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s, checks included


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _environment(workers: int, blas_threads: int, nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        git = described.stdout.strip() if described.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        git = ""
    return {"git_describe": git or "unavailable (not a git checkout)",
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "nproc": nproc, "pool_workers": workers,
            "blas_threads": blas_threads}


class Runner:
    """Spawns rounds and probes one at a time, so the load always comes
    from a single process (plus that process's own pool workers)."""

    def __init__(self, workload: str, seed: int, run_dir: Path, env: dict,
                 workers: int):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = env
        self.workers = workers
        self.setup_samples = []
        self.rounds = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _spawn(self, args, log: Path) -> float:
        """Run round_child.py to completion; returns the spawn stamp.

        The child leads its own process group, so a child still running at
        the run's deadline is killed together with its pool workers."""
        with open(log, "w", encoding="utf-8") as out:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "round_child.py"), *args],
                env=self.env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        return started

    def probe(self) -> float:
        log = self.run_dir / "probe.log"
        started = self._spawn(["--probe"], log)
        return float(log.read_text().split()[-1]) - started

    def round(self, traced: bool) -> None:
        round_dir = self.run_dir / f"round{len(self.rounds)}"
        round_dir.mkdir(parents=True)
        log = round_dir / "child.log"
        try:
            started = self._spawn([self.workload, str(self.seed),
                                   str(round_dir), "1" if traced else "0",
                                   str(self.workers)], log)
            doc = json.loads((round_dir / "result.json").read_text())
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            doc = {"crashed": f"{exc}; see {log}"}
        else:
            self.setup_samples.append(doc["ready"] - started)
        doc.update(dir=round_dir, traced=traced)
        self.rounds.append(doc)


def _check_op(workload, op: dict, inputs: dict, round_dir: Path) -> list:
    """Problems with one op of a round; an empty list means it passed."""
    import numpy as np
    if op["error"]:
        return ["raised " + op["error"].strip().splitlines()[-1]]
    out = op["output"]
    if isinstance(out, dict) and set(out) == {"npy"}:
        out = np.load(round_dir / out["npy"])
    return workload.check(op["name"], out, inputs, round_dir / "out")


def _check_rounds(workload, inputs, rounds):
    """(ops attempted, ops failed, problem lines) over every round."""
    attempted = failed = 0
    lines = []
    for r in rounds:
        tag = r["dir"].name
        if "crashed" in r:
            attempted += 1
            failed += 1
            lines.append(f"{tag}: round crashed: {r['crashed']}")
            continue
        for op in r["ops"]:
            attempted += 1
            problems = _check_op(workload, op, inputs, r["dir"])
            failed += bool(problems)
            lines.extend(f"{tag}/{op['name']}: {p}" for p in problems)
    return attempted, failed, lines


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "airypng" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/airypng; run from the "
              "root of an airypng checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    workers = workload.pool_workers(nproc)
    blas_threads = max(1, nproc // workers)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), AIRYPNG_THREADS=str(workers),
               OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               MKL_NUM_THREADS=str(blas_threads))
    run_dir = BUILD / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, env, workers)

    runner.probe()  # compiles bytecode; not a sample
    runner.setup_samples.extend(runner.probe() for _ in range(SETUP_PROBES))
    began = time.monotonic()
    while True:
        lap = time.monotonic()
        runner.round(traced=False)
        if args.trace:
            runner.round(traced=True)
        now = time.monotonic()
        if now - began + (now - lap) > args.seconds:
            break

    inputs = workload.inputs(args.seed)
    attempted, failed, failures = _check_rounds(workload, inputs,
                                                runner.rounds)
    for r in runner.rounds:  # op outputs are checked; keep only the records
        shutil.rmtree(r["dir"] / "out", ignore_errors=True)
        for npy in r["dir"].glob("*.npy"):
            npy.unlink()
    done = [r for r in runner.rounds if "crashed" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no round finished; " + "; ".join(failures),
              file=sys.stderr)
        return 1

    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        layer = {}
        for r in traced:
            self_sum = sum(v for k, v in r["trace"]["metrics"].items()
                           if k.endswith(".self_s"))
            if abs(self_sum - r["trace"]["metrics"]["trace.wall_s"]) > 1e-6:
                print("perfbench: layer self times do not sum to the traced "
                      "wall time", file=sys.stderr)
                return 1
            for k, v in r["trace"]["metrics"].items():
                layer.setdefault(k, []).append(v)
        values = {k: statistics.median(v) for k, v in layer.items()}
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(runner.setup_samples),
                  "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in plain)}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    env_record = _environment(workers, blas_threads, nproc)
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "rounds": len(runner.rounds),
               "setup_samples": runner.setup_samples,
               "environment": env_record, "failures": failures,
               "metrics": metrics,
               "missing_wrappers": sorted({m for r in traced
                                           for m in r["trace"]["missing"]})}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1),
                                          encoding="utf-8")
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(runner.rounds)} dir={run_dir.relative_to(ROOT)}")
    print("# env " + json.dumps(env_record, sort_keys=True))
    for line in failures:
        print(f"# FAILED {line}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'ops':<{width}}  {attempted} count")
    print(f"{'ops_failed':<{width}}  {failed} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
