"""One workload in one process: set up, run passes of ops, verify, measure.

Started by ``run.py`` with BLAS thread caps in its environment; writes its
result document to ``--result``.  Each op is ``brokermkt.cli.main(argv)``
called in-process with stdout and stderr captured, run back to back (a
closed loop with one client) in an order shuffled from the seed.  A pass
runs every op once, after emptying the library's lru caches; garbage is
collected before each op, outside its timing.  Passes repeat
while the next one is predicted to end within ``--seconds``.  Figures are
per-op medians over the untraced passes.  With ``--trace 1`` untraced and
traced passes alternate, and the traced ones give the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better).  The first five are the bounded end-to-end metrics
# that every workload has; command metrics exist only where the command runs.
E2E = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "op_p90_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "profit_exact_s": ("s", "lower"),
    "bound_s": ("s", "lower"),
    "check_s": ("s", "lower"),
    "opt_s": ("s", "lower"),
    "mc_trials_per_s": ("1/s", "higher"),
    "fail_frac": ("ratio", "lower"),
    "op_count": ("count", "higher"),
    "ops_beyond_p90": ("count", "higher"),
}
COMMAND_METRICS = {"profit_exact": "profit_exact_s", "bound": "bound_s",
                   "check": "check_s", "opt": "opt_s"}

_S, _N, _R = ("s", "lower"), ("count", "lower"), ("ratio", "higher")
LAYER = {
    "instances.load_s": _S, "instances.gen_s": _S,
    "dists.virtual_hit_ratio": _R, "dists.virtual_calls": _N,
    "dists.monopoly_price_calls": _N, "dists.monopoly_price_s": _S,
    "model.profiles_enumerated": _N, "model.enumerate_s": _S,
    "model.profit_self_s": _S, "model.mc_s": _S, "model.mc_trials": ("count", "higher"),
    **{f"mechanisms.runs.{m}": _N for m in ("it", "bvcg", "1la")},
    **{f"mechanisms.run_s.{m}": _S for m in ("it", "bvcg", "1la")},
    "mechanisms.entry_fee_hit_ratio": _R, "mechanisms.entry_fee_calls": _N,
    "reduction.convert_calls": _N, "reduction.convert_self_s": _S,
    "reduction.memo_hit_ratio": _R, "reduction.memo_lookups": _N,
    **{f"oracle.check_s.{p}": _S for p in ("dsic", "ir", "feasible", "cost_monotone")},
    "oracle.check_runs_per_profile": ("runs/profile", "lower"), "oracle.check_profiles": _N,
    "oracle.lp_build_s": _S, "oracle.lp_solve_s": _S, "oracle.lp_count": _N,
    "oracle.lp_rows": _N, "oracle.lp_cols": _N, "oracle.lp_nnz": _N,
    "oracle.lp_dense_mb": ("MB", "lower"), "oracle.lp_residual_max": ("abs", "lower"),
    "oracle.lp_distinct_cost_ratio": _R,
    "duality.interim_s": _S, "duality.terms_s": _S, "duality.r_s": _S,
    "duality.median_s": _S, "duality.compute_r_calls": _N,
    "cli.self_s": _S,
    "trace_overhead_frac": ("ratio", "lower"),
}


def _import_library():
    """Import brokermkt from this checkout's src/ only; returns import seconds."""
    src = ROOT / "src"
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import brokermkt.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    loaded = Path(sys.modules["brokermkt"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        raise SystemExit(f"brokermkt imported from {loaded}, not from {src}")
    return elapsed


def _rel(path: Path) -> str:
    path = path.resolve()
    return str(path.relative_to(ROOT)) if ROOT in path.parents else str(path)


def _file_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _profile_space(doc: dict) -> int:
    dists = [d for row in doc["buyers"] for d in row] + doc.get("sellers", [])
    return prod(len(d["values"]) for d in dists)


def setup(workload: str, classes, seed: int, workdir: Path, trials: int):
    """Write the seeded pools, select each class's instances, build the ops.

    Each distinct size gets its own pool, seeded ``seed * 100 + k`` for the
    k-th distinct size of the workload.
    """
    from brokermkt.instances import generate_files
    from workloads import VALUE_MAX, ops_for

    sizes = list(dict.fromkeys((c.kind, c.buyers, c.items, c.support) for c in classes))
    pools: dict[tuple, list[Path]] = {}
    instances, ops = [], []
    for cls in classes:
        dims = (cls.kind, cls.buyers, cls.items, cls.support)
        count = 8 * cls.count
        while True:
            if len(pools.get(dims, ())) < count:
                pools[dims] = generate_files(
                    kind=cls.kind, buyers=cls.buyers, items=cls.items,
                    support=cls.support, value_max=VALUE_MAX, count=count,
                    seed=seed * 100 + sizes.index(dims),
                    out_dir=workdir / "-".join(map(str, dims)),
                )
            chosen = []
            for path in pools[dims]:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if _profile_space(doc) == cls.profiles:
                    chosen.append((path, doc))
                    if len(chosen) == cls.count:
                        break
            if len(chosen) == cls.count:
                break
            if count >= 4096:
                raise SystemExit(f"{cls.label}: too few instances of that size")
            count *= 2
        for path, doc in chosen:
            rel = _rel(path)
            instances.append({"path": rel, "class": cls.label, "profiles": cls.profiles,
                              "digest": _file_digest(doc), "opt": cls.opt})
            ops.extend(ops_for(workload, cls, rel, trials))
    random.Random(seed).shuffle(ops)
    return instances, ops


def run_pass(ops, tr=None, op_base=0):
    from brokermkt import cli
    from tracer import OP_SPAN, cache_counts, clear_caches, ENTRY_FEE_CACHE, VIRTUAL_CACHES

    clear_caches()
    runs = {}
    op_span = tr.name_id(OP_SPAN) if tr else None
    for k, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()            # the previous op's garbage is not this op's time
        if tr:
            tr.op_id = op_base + k
            idx = tr.open(op_span)
        code, error = None, None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # an op that raises is a failure
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tr:
            tr.close(idx)
        text = out.getvalue()
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        runs[op.key] = {"exit": code, "error": error, "doc": doc, "latency": latency,
                        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    caches = {"virtual": cache_counts(VIRTUAL_CACHES),
              "entry_fee": cache_counts((ENTRY_FEE_CACHE,))}
    return runs, caches


def _opt_reference(instances):
    """Best shipped mechanism's exact profit per production-cost opt instance."""
    from brokermkt.instances import load_instance
    from brokermkt.mechanisms import MECHANISMS
    from brokermkt.model import ProductionCostInstance, expected_profit

    ref = {}
    for inst in instances:
        if inst["opt"]:
            market = load_instance(ROOT / inst["path"])
            if isinstance(market, ProductionCostInstance):
                ref[inst["path"]] = max(expected_profit(m, market) for m in MECHANISMS.values())
    return ref


def _provenance(args, n_ops):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else []:
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAP_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "op_count": n_ops,
    }


def _end_to_end(ops, untraced, import_s, gen_reps, failed, attempted) -> dict:
    med = {op.key: statistics.median(p[1][op.key]["latency"] for p in untraced) for op in ops}
    lat = sorted(med.values())
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    values = {
        "setup_s": import_s + statistics.median(gen_reps),
        "wall_s": sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for command, name in COMMAND_METRICS.items():
        if any(op.command == command for op in ops):
            values[name] = sum(med[op.key] for op in ops if op.command == command)
    mc = [op for op in ops if op.command == "profit_mc"]
    if mc:
        values["mc_trials_per_s"] = sum(op.trials for op in mc) / sum(med[op.key] for op in mc)
    values["fail_frac"] = failed / attempted
    values["op_count"] = len(ops)
    values["ops_beyond_p90"] = sum(1 for x in lat if x > p90)
    return {k: {"value": v, "unit": E2E[k][0]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import_s = _import_library()
    import workloads
    import tracer as tracing
    from checks import integrity_error, invariant_errors

    classes = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    trials = workloads.TINY_MC_TRIALS if args.tiny else workloads.MC_TRIALS
    os.chdir(ROOT)
    workdir = Path(args.workdir)

    tr = tracing.Tracer() if args.trace else None
    gen_reps, gen_traced = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        if tr:
            tr.install()
            lo = len(tr.name)
        t0 = time.perf_counter()
        instances, ops = setup(args.workload, classes, args.seed, workdir, trials)
        gen_reps.append(time.perf_counter() - t0)
        if tr:
            tr.uninstall()
            gen_traced.append(tracing.span_seconds(tr, "instances.generate_files",
                                                   lo, len(tr.name)))

    # Set-up objects leave the collector's view, so collections during an op
    # traverse only what ops create.
    gc.freeze()
    passes = []                 # (traced, runs, caches, op_base)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs, caches = run_pass(ops)
        passes.append((False, runs, caches, 0))
        if tr:
            base = len(passes) * len(ops)
            tr.install()
            try:
                runs, caches = run_pass(ops, tr, base)
            finally:
                tr.uninstall()
            passes.append((True, runs, caches, base))
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle > args.seconds:
            break

    # -- verification -------------------------------------------------------
    digest_of = {inst["path"]: inst["digest"] for inst in instances}
    opt_ref = _opt_reference(instances)
    attempted = failed = 0
    correct = True
    failures = []
    for pass_no, (traced, runs, _, _) in enumerate(passes):
        bad = invariant_errors(ops, runs, opt_ref)
        for op in ops:
            attempted += 1
            run = runs[op.key]
            integrity = integrity_error(run, digest_of[op.instance])
            if integrity:
                correct = False
            reason = integrity or bad.get(op.key)
            if reason:
                failed += 1
                failures.append({"pass": pass_no, "op": op.key, "reason": reason})
    op_records = []
    for op in ops:
        shas = {runs[op.key]["sha256"] for _, runs, _, _ in passes}
        if len(shas) != 1:
            correct = False
            failures.append({"pass": None, "op": op.key, "reason": "stdout differs between passes"})
        first = passes[0][1][op.key]
        op_records.append({
            "key": op.key, "command": op.command, "argv": list(op.argv),
            "exit": first["exit"], "sha256": first["sha256"],
            "latency_s": [runs[op.key]["latency"] for traced, runs, _, _ in passes if not traced],
        })

    # -- metrics ------------------------------------------------------------
    untraced = [p for p in passes if not p[0]]
    if tr:
        per_pass = [tracing.layer_metrics(tr, base, base + len(ops), caches)
                    for traced, _, caches, base in passes if traced]
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layer["instances.gen_s"] = statistics.median(gen_traced)
        walls = [(traced, sum(r["latency"] for r in runs.values()))
                 for traced, runs, _, _ in passes]
        layer["trace_overhead_frac"] = (
            statistics.median(w for traced, w in walls if traced)
            / statistics.median(w for traced, w in walls if not traced) - 1.0)
        metrics = {k: {"value": layer[k], "unit": LAYER[k][0]} for k in LAYER}
        tr.save(Path(args.result).with_suffix(".spans.npz"))
    else:
        metrics = _end_to_end(ops, untraced, import_s, gen_reps, failed, attempted)
    shutil.rmtree(workdir, ignore_errors=True)   # the seed regenerates it

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "provenance": _provenance(args, len(ops)),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "metrics": metrics,
        "failures": failures,
        "setup": {"import_s": import_s, "instance_gen_s": gen_reps, "instances": instances},
        "ops": op_records,
    }
    Path(args.result).parent.mkdir(parents=True, exist_ok=True)
    Path(args.result).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
