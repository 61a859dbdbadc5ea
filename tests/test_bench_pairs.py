"""The pairs command's summariser, on canned benchmark output: no test here
starts the benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "answer_accuracy", "unit": "share", "better": "higher", "bound": 0.05},
]}


def _stdout(build_s, setup_s=0.1, accuracy=1.0, failed=0, digest="ab" * 32):
    result = {"correct": not failed, "attempted": 184, "failed": failed,
              "metrics": {"build_s": {"value": build_s, "unit": "s"},
                          "setup_s": {"value": setup_s, "unit": "s"},
                          "answer_accuracy": {"value": accuracy, "unit": "share"}}}
    return "\n".join([
        "workload large-clean seed 2: 1 scene(s)",
        "  build_s    0.3 s",
        f"checks: {failed} of 184 operations failed",
        f"output digest (sha256 over canonical memories and answers): {digest}",
        json.dumps(result), ""])


def _runs(parent: list[dict], change: list[dict]) -> list[dict]:
    return [{"pair": i + 1, "parent": bench_pairs.parse_run(_stdout(**p)),
             "change": bench_pairs.parse_run(_stdout(**c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_parse_run_reads_the_json_line_and_the_digest():
    run = bench_pairs.parse_run(_stdout(0.3, digest="cd" * 32))
    assert run["digest"] == "cd" * 32
    assert run["metrics"]["build_s"]["value"] == 0.3 and run["attempted"] == 184


@pytest.mark.parametrize("stdout", [
    "", "output digest (sha256): ab\nnot json",
    '{"correct": true, "metrics": {}}',
])
def test_parse_run_refuses_output_without_a_result_or_digest(stdout):
    with pytest.raises(bench_pairs.PairsError):
        bench_pairs.parse_run(stdout)


def test_a_clear_gain_and_unchanged_metrics():
    parent = [{"build_s": 0.40 + 0.002 * i} for i in range(10)]
    change = [{"build_s": 0.32 + 0.002 * i} for i in range(10)]
    entry = bench_pairs.summarise(_runs(parent, change), SPEC)
    build = entry["summary"]["build_s"]
    assert build["change_wins"] == "10/10" and build["verdict"] == "gain"
    assert build["parent_median"] == pytest.approx(0.409)
    assert build["change_median"] == pytest.approx(0.329)
    assert build["parent_iqr"] == pytest.approx(0.011)  # quartiles 0.4035 and 0.4145
    assert build["ratio"] == pytest.approx(0.329 / 0.409)
    assert (build["parent_min"], build["change_max"]) == (0.40, pytest.approx(0.338))
    for name in ("setup_s", "answer_accuracy"):
        assert entry["summary"][name]["change_wins"] == "0/10"
        assert entry["summary"][name]["verdict"] == "within bound"
    assert entry["verdict"] == "no regression" and entry["pairs"] == 10
    assert bench_pairs.same_outputs(entry)


def test_a_gain_needs_ten_pairs():
    entry = bench_pairs.summarise(_runs([{"build_s": 0.3}] * 9, [{"build_s": 0.2}] * 9),
                                  SPEC)
    assert entry["summary"]["build_s"]["verdict"] == "within bound"


def test_worse_beyond_the_bound_is_a_regression():
    parent = [{"build_s": 0.3, "accuracy": 1.0}] * 4
    change = [{"build_s": 0.3, "accuracy": 0.9}] * 4
    entry = bench_pairs.summarise(_runs(parent, change), SPEC)
    assert entry["summary"]["answer_accuracy"]["verdict"] == "worse"
    assert entry["verdict"] == "regression"


def test_more_failed_operations_is_a_regression():
    parent = [{"build_s": 0.3}] * 10
    change = [{"build_s": 0.2, "failed": 1}] * 10
    entry = bench_pairs.summarise(_runs(parent, change), SPEC)
    assert entry["summary"]["build_s"]["verdict"] == "gain"
    assert entry["failed_share"]["change"] == pytest.approx(1 / 184)
    assert entry["verdict"] == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    setups = [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2]
    parent = [{"build_s": 0.3, "setup_s": s} for s in setups]
    change = [{"build_s": 0.3, "setup_s": s} for s in reversed(setups)]
    entry = bench_pairs.summarise(_runs(parent, change), SPEC)
    assert entry["summary"]["setup_s"]["verdict"] == "unresolved"
    assert entry["verdict"] == "no regression"
    # unless every run of the change reads better than every parent run
    change = [{"build_s": 0.3, "setup_s": 0.05}] * 8
    entry = bench_pairs.summarise(_runs(parent, change), SPEC)
    assert entry["summary"]["setup_s"]["verdict"] != "unresolved"


def test_different_digests_are_not_the_same_outputs():
    entry = bench_pairs.summarise(_runs([{"build_s": 0.3}], [{"build_s": 0.3,
                                                              "digest": "ef" * 32}]), SPEC)
    assert entry["digests"] == {"parent": ["ab" * 32], "change": ["ef" * 32]}
    assert not bench_pairs.same_outputs(entry)


def test_sibling_has_a_name_of_the_same_length(tmp_path):
    root = tmp_path / "checkout"
    root.mkdir()
    (tmp_path / "checkou0").mkdir()
    path = bench_pairs.sibling(root)
    assert path.parent == root.parent and len(path.name) == len(root.name)
    assert path != root and not path.exists()
