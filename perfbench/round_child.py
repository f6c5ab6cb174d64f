"""One round of one workload, in a fresh interpreter.

Usage: round_child.py <workload> <seed> <round dir> <trace 0|1> <workers>
       round_child.py --probe

The first statement after ``import time`` imports the package, so the
parent's spawn time and the stamp taken here bound the set-up a user pays
on every CLI call.  ``--probe`` stops after that stamp.  The round's result
goes to ``<round dir>/result.json``; op outputs that are arrays go next to
it as ``.npy`` files.
"""

import time

import airypng  # noqa: F401  (the import being timed)

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _usage():
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (ru_self.ru_utime + ru_self.ru_stime
           + ru_kids.ru_utime + ru_kids.ru_stime)
    # ru_maxrss is in KiB on Linux; the children figure is the largest
    # reaped child (a pool worker or the CLI's git subprocess)
    return cpu, (ru_self.ru_maxrss + ru_kids.ru_maxrss) / 1024.0


def _jsonable(name, value, round_dir: Path):
    if isinstance(value, np.ndarray):
        path = round_dir / f"{name}.npy"
        np.save(path, value)
        return {"npy": path.name}
    return value


def main(argv) -> int:
    workload_name, seed, round_dir, trace, workers = argv
    round_dir = Path(round_dir)
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(airypng.__file__).resolve().parents:
        sys.exit(f"airypng imported from {airypng.__file__}, not from {src}")
    import workloads
    import tracer
    workload = workloads.WORKLOADS[workload_name]
    inputs = workload.inputs(int(seed))
    ops = workload.ops(inputs, round_dir / "out", int(workers))
    recorder = None
    missing = []
    if trace == "1":
        recorder = tracer.Recorder()
        missing = recorder.install(tracer.WRAPPED)

    results = []
    cpu0, _ = _usage()
    if recorder is not None:
        root = recorder.open("bench.round", "bench")
    t0 = time.monotonic()
    for name, op in ops:
        try:
            results.append((name, op(), None))
        except (Exception, SystemExit):
            results.append((name, None, traceback.format_exc()))
    t1 = time.monotonic()
    if recorder is not None:
        recorder.close(root)
    cpu1, peak_mb = _usage()

    doc = {"ready": READY, "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
           "peak_rss_mb": peak_mb, "pid": os.getpid(),
           "ops": [{"name": n, "error": err,
                    "output": None if err else _jsonable(n, out, round_dir)}
                   for n, out, err in results]}
    if recorder is not None:
        recorder.uninstall()
        spans = recorder.spans
        (round_dir / "spans.json").write_text(json.dumps(spans),
                                              encoding="utf-8")
        doc["trace"] = {"metrics": tracer.rollup(spans), "missing": missing}
    (round_dir / "result.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(READY)
        sys.exit(0)
    sys.exit(main(sys.argv[1:]))
