"""``BENCH_e2e.json``: the end-to-end trajectory, one record per change.

Each record names its revision and parent, the medians of one
``e2ebench/run.py --workload all`` run and, for one or more seeds, the
``benchmarks/ab.py`` rows against the parent. The workloads and metrics
are the ones ``BENCHMARK.json`` declares, so a record cannot drift from
the benchmark.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name):
    return json.loads((ROOT / name).read_text())


def declared():
    benchmark = load("BENCHMARK.json")
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    return workloads, metrics


def test_every_record_carries_medians_and_ab_ratios_of_every_declared_metric():
    workloads, metrics = declared()
    records = load("BENCH_e2e.json")["records"]
    assert records
    for record in records:
        rev = record["rev"]
        assert isinstance(rev, str) and rev
        assert isinstance(record["parent"], str) and record["parent"]
        assert isinstance(record["host"], str) and record["host"]
        run = record["run"]
        assert run["command"].startswith("python3 e2ebench/run.py --workload all")
        assert sorted(run["medians"]) == sorted(workloads), rev
        for workload in workloads:
            medians = run["medians"][workload]
            assert sorted(medians) == sorted(metrics), (rev, workload)
            assert all(value > 0 for value in medians.values()), (rev, workload)
        assert record["ab"], rev
        for ab in record["ab"]:
            assert ab["command"].startswith(f"python benchmarks/ab.py {record['parent']} ")
            assert sorted(ab["workloads"]) == sorted(workloads), rev
            for workload in workloads:
                rows = ab["workloads"][workload]
                assert sorted(rows) == sorted(metrics), (rev, workload)
                for metric, row in rows.items():
                    assert row["base_median"] > 0 and row["head_median"] > 0
                    assert row["ratio"] > 0, (rev, workload, metric)
                    assert 0 <= row["won"] <= row["pairs"] > 0, (rev, workload, metric)
                    assert row["correct"] is True, (rev, workload, metric)


def test_revisions_are_unique():
    revs = [record["rev"] for record in load("BENCH_e2e.json")["records"]]
    assert len(revs) == len(set(revs))
