"""tools/bench_pairs.py reports only records its own runs wrote.

The checkouts are fake: a BENCHMARK.json and a results directory each,
and run_once is patched, so no benchmark runs.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

WORKLOAD, SECONDS = "campaigns", 5


def _record(value):
    return {"seconds": SECONDS, "failed": 0, "digest": "d", "metrics": {"items_per_s": {"value": value}}}


def _write_record(checkout, seed, value):
    path = bench_pairs.record_path(checkout, WORKLOAD, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_record(value)))
    return path


def _checkouts(tmp_path, seed):
    """Parent and change checkouts, each holding an old record of seed."""
    sides = []
    for name in ("parent", "change"):
        checkout = tmp_path / name
        checkout.mkdir()
        (checkout / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": [{"name": "items_per_s", "better": "higher"}]})
        )
        old = _write_record(checkout, seed, 1.0)
        os.utime(old, ns=(10**18, 10**18))  # written long before any run
        sides.append(checkout)
    return sides


def _fake_run(rc, writes):
    def run_once(checkout, workload, seed, seconds):
        if writes:
            _write_record(Path(checkout), seed, 2.0)
        return rc

    return run_once


def _main(parent, change, seed, *extra):
    argv = [str(parent), str(change), "--workload", WORKLOAD, "--seeds", str(seed), "--seconds", str(SECONDS)]
    return bench_pairs.main(argv + list(extra))


@pytest.mark.parametrize("rc", [0, 1])
def test_fresh_records_are_reported(tmp_path, monkeypatch, capsys, rc):
    parent, change = _checkouts(tmp_path, 3)
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(rc, writes=True))
    assert _main(parent, change, 3) == 0
    assert "`items_per_s` 2.000 -> 2.000" in capsys.readouterr().out


@pytest.mark.parametrize("rc,writes", [(2, True), (-9, False), (0, False), (1, False)])
def test_a_run_without_a_record_of_its_own_is_refused(tmp_path, monkeypatch, capsys, rc, writes):
    parent, change = _checkouts(tmp_path, 3)
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(rc, writes))
    with pytest.raises(SystemExit) as stop:
        _main(parent, change, 3)
    message = str(stop.value)
    # seed 3 runs the parent first, so the parent is the run refused
    assert str(parent) in message and "seed 3" in message
    assert ("exited" in message) == (rc not in (0, 1))
    assert "items_per_s" not in capsys.readouterr().out


def test_report_only_reads_the_records_as_they_are(tmp_path, monkeypatch, capsys):
    parent, change = _checkouts(tmp_path, 4)
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run(2, writes=False))
    assert _main(parent, change, 4, "--report-only") == 0
    assert "`items_per_s` 1.000 -> 1.000" in capsys.readouterr().out
