"""The benchmark's own checks: byte-determinism of every op and the metric contract."""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pc-eval", "pc-verify", "ts-broker")


def _run_tiny(out: Path, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    docs = {w: json.loads((out / f"{w}-s3-t{trace}-tiny.json").read_text())
            for w in WORKLOADS}
    return line, docs


def _digests(doc):
    return [(op["key"], op["exit"], op["sha256"]) for op in doc["ops"]]


def test_tiny_variant_stdout_is_byte_identical_across_runs(tmp_path):
    first_line, first = _run_tiny(tmp_path, trace=0)
    second_line, second = _run_tiny(tmp_path, trace=0)
    assert first_line["correct"] and second_line["correct"]
    for w in WORKLOADS:
        assert _digests(first[w]) and _digests(first[w]) == _digests(second[w])
        assert first[w]["setup"]["instances"] == second[w]["setup"]["instances"]


def test_traced_tiny_variant_reports_every_layer(tmp_path):
    line, docs = _run_tiny(tmp_path, trace=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(line["metrics"]) == sorted(f"{w}.{n}" for w in WORKLOADS for n in names)
    value = {k: v["value"] for k, v in line["metrics"].items()}
    assert value["pc-eval.duality.compute_r_calls"] > 0
    assert value["pc-eval.oracle.lp_count"] == 0
    assert value["pc-verify.oracle.lp_count"] > 0
    assert value["pc-verify.oracle.check_runs_per_profile"] > 0
    assert value["ts-broker.reduction.convert_calls"] > 0
    assert 0 < value["ts-broker.reduction.memo_hit_ratio"] < 1
    for w in WORKLOADS:
        assert value[f"{w}.model.profiles_enumerated"] > 0
        assert value[f"{w}.instances.load_s"] > 0


def test_metric_lists_match_benchmark_json():
    sys.path.insert(0, str(BENCH))
    from run import CONTRACT_E2E
    from workload import E2E, LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(CONTRACT_E2E)
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == E2E[m["name"]]
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == LAYER[m["name"]]
