"""Benchmark entry point for brokermkt.

    python3 bench/run.py --workload {pc-eval,pc-verify,ts-broker,all} \
        --seed N --seconds S --trace {0,1} [--tiny] [--out DIR]

Run from the root of a checkout.  Each workload runs in its own fresh Python
process (``bench/workload.py``) with BLAS thread pools capped at one thread;
this process only starts it, waits, and prints.  Output: every metric of
every workload by name with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the bounded
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Result documents (provenance, per-op exit codes
and stdout digests) and, when traced, the spans go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pc-eval", "pc-verify", "ts-broker")
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
DEADLINE_S = 175.0             # per workload: a single-workload run must end within 180 s

# Bounded end-to-end metrics (BENCHMARK.json "end_to_end"); every workload has them.
CONTRACT_E2E = ("setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb")


def _layer_names() -> tuple[str, ...]:
    sys.path.insert(0, str(BENCH))
    from workload import LAYER
    return tuple(LAYER)


def run_workload(workload: str, args) -> dict:
    suffix = "-tiny" if args.tiny else ""
    stem = f"{workload}-s{args.seed}-t{args.trace}{suffix}"
    out = Path(args.out)
    result = out / f"{stem}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(out / f"{stem}.instances"),
           "--result", str(result)] + (["--tiny"] if args.tiny else [])
    # stdout of the child goes to our stderr: our stdout ends with the result line.
    subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_CAPS}, check=True,
                   stdout=sys.stderr, timeout=DEADLINE_S)
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="brokermkt benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="one small instance per workload (smoke and determinism test)")
    parser.add_argument("--out", default=str(BENCH / "out"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "brokermkt" / "__init__.py").is_file():
        print(f"error: no brokermkt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        docs = [run_workload(w, args) for w in names]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    selected = _layer_names() if args.trace else CONTRACT_E2E
    line = {"correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs), "metrics": {}}
    for d in docs:
        w, m = d["workload"], d["metrics"]
        print(f"# {w}: seed {d['seed']}, {d['provenance']['op_count']} ops, "
              f"{d['passes']['untraced']} untraced + {d['passes']['traced']} traced passes, "
              f"failed {d['failed']}/{d['attempted']}, correct {d['correct']}")
        for name, metric in m.items():
            print(f"{w:10s} {name:34s} {metric['value']:>16.6g} {metric['unit']}")
        for name in selected:
            key = name if len(docs) == 1 else f"{w}.{name}"
            line["metrics"][key] = m[name]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
