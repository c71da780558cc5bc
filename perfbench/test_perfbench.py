"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about 15 s: two small program runs and one serve-mix iteration).
"""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

import digest
import run

SMALL_GRID = [
    "--experiment", "all", "--quick", "--n-keys", "4000",
    "--n-lookups", "25", "--warmup", "15", "--max-configs", "2",
    "--jobs", "1",
]


#: Largest share of the traced wall left to ``unattributed_s``: the CLI's
#: argument parsing and printing.
MAX_UNATTRIBUTED = 0.02


@pytest.fixture
def runner():
    r = run.Runner(time.monotonic() + 170)
    yield r
    r.close()


def _header(exp_id, seconds):
    rule = "=" * 72
    return f"{rule}\n[{exp_id}] ({seconds:.1f}s)\n{rule}\n"


def _report(build_time, kops, title="Figure 17"):
    return (
        "runner: 9 cells (9 unique), jobs=1, 0.3s wall\n\n"
        + _header("fig17", build_time)
        + f"{title}: build times\n\n"
        "index  config  40000 keys (s)\n"
        "-----  ------  --------------\n"
        f"  PGM      {{}}  {build_time:.3f}\n\n"
        + _header("ext3", kops / 1000)
        + "mixed read/write\n\n"
        "store  95% reads (kops/s)\n"
        "-----  ------------------\n"
        f"ALEX   {kops}\n\n"
        "note: wall-clock Python throughput\n"
    )


def test_report_digest_ignores_host_timed_lines():
    a = digest.report_digests(_report(0.011, 67))
    b = digest.report_digests(_report(0.019, 81))
    assert set(a) == {"fig17", "ext3"}
    assert a == b
    c = digest.report_digests(_report(0.011, 67, title="Figure 18"))
    assert c["fig17"] != a["fig17"] and c["ext3"] == a["ext3"]


def test_compare_counts_every_mismatch_as_failed():
    ref = {"cells": {"a": "1", "b": "2"}, "reports": {"fig7": "3"}}
    assert digest.compare(ref, ref) == (3, 0)
    wrong = {"cells": {"a": "1", "b": "X"}, "reports": {"fig7": "3"}}
    assert digest.compare(ref, wrong) == (3, 1)
    missing = {"cells": {"a": "1"}}
    assert digest.compare(ref, missing) == (3, 2)
    unknown = {"cells": {"a": "1", "b": "2", "c": "4"}, "reports": {"fig7": "3"}}
    assert digest.compare(ref, unknown) == (4, 1)


def test_injected_digest_mismatch_raises_failed(runner):
    """A real serve-mix iteration matches its reference; tampering with
    one reference digest makes exactly that task fail."""
    reference = run.load_reference("serve-mix", 0)
    result = runner.spawn(run.serve_spec(0))
    attempted, failed = run.check(reference, result)
    assert attempted == len(reference["tasks"]) >= 100
    assert failed == 0
    tampered = json.loads(json.dumps(reference))
    tampered["tasks"]["t007"] = "0" * 16
    assert run.check(tampered, result) == (attempted, 1)


def test_traced_counts_match_program_spans(runner, tmp_path):
    """Wrapping every binding sees every build and measure the program's
    own spans see, and the layers account for nearly all of the traced
    wall: a binding the wrappers miss moves its time into
    ``unattributed_s``, which must stay a small share."""
    import subprocess
    import sys

    obs = tmp_path / "obs"
    subprocess.run(
        [sys.executable, "-m", "repro.bench", *SMALL_GRID,
         "--cache-dir", str(tmp_path / "c1"), "--obs-dir", str(obs)],
        cwd=run.ROOT, env=run.child_env(), stdout=subprocess.DEVNULL,
        check=True, timeout=120,
    )
    spans = Counter(
        json.loads(line)["name"] for line in open(obs / "spans.jsonl")
    )
    spec = {"kind": "quick", "seed": 0, "argv": SMALL_GRID + [
        "--cache-dir", str(tmp_path / "c2")], "setup_only": False,
        "trace": True}
    result = runner.spawn(spec)
    got = result["layers"]
    assert got["build.calls"] == spans["build"]
    assert got["measure.calls"] == spans["measure"]
    assert got["runner.executed"] == spans["cell"]
    assert got["build.distinct"] + got["build.duplicate_calls"] == got[
        "build.calls"]
    assert not result["unknown_families"]

    assert 0 <= got["unattributed_s"] <= MAX_UNATTRIBUTED * result["wall_s"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units()
    )
