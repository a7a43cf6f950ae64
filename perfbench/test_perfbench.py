"""Tests of the benchmark itself: the output checker, the tracer, the wrappers.

    python3 -m pytest perfbench -q

The checker is held to the package's own mutant rule: each test feeds it
a doctored report, and a checker that lets one through checks nothing.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402
from workload import latency_metrics  # noqa: E402

import qgrass  # noqa: E402
from qgrass import cli  # noqa: E402


def run_cli(task):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(list(task.argv))
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def task_lists(tmp_path_factory):
    lists = {}
    for workload in tasks.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        fields = tasks.build_fields(workload)
        lists[workload] = tasks.build_tasks(workload, 0, workdir, fields)
    return lists


def pick(task_list, label):
    return next(t for t in task_list if t.label == label)


def assert_flags(task, rc, doc, doctor):
    """The real output passes; the doctored one must be flagged."""
    assert checks.check(task, rc, json.dumps(doc)) == []
    bad = copy.deepcopy(doc)
    bad_rc = doctor(bad)
    problems = checks.check(task, rc if bad_rc is None else bad_rc, json.dumps(bad))
    assert problems, f"doctored {task.label} output went through"


def real(task):
    rc, stdout = run_cli(task)
    assert checks.check(task, rc, stdout) == [], stdout
    return rc, json.loads(stdout)


# -- the checker ----------------------------------------------------------------


def test_task_lists_repeat_for_a_seed(task_lists, tmp_path):
    again = tasks.build_tasks("campaigns", 0, tmp_path, tasks.build_fields("campaigns"))
    assert [t.argv for t in again] == [t.argv for t in task_lists["campaigns"]]
    other = tasks.build_tasks("campaigns", 1, tmp_path, tasks.build_fields("campaigns"))
    assert [t.argv for t in other] != [t.argv for t in again]


def test_every_task_list_can_report_a_tail(task_lists):
    for task_list in task_lists.values():
        assert len(task_list) >= 11


def test_campaign_checks(task_lists):
    task = pick(task_lists["campaigns"], "redundancy")
    rc, doc = real(task)

    def flip_verdict(d):
        d["verdict"] = "fail"

    def off_by_one(d):
        d["cases_tested"] += 1

    def wrong_exit(d):
        return 1

    for doctor in (flip_verdict, off_by_one, wrong_exit):
        assert_flags(task, rc, doc, doctor)


def test_mutant_tasks_must_fail(task_lists):
    task = pick(task_lists["campaigns"], "dual-image/dual-formula-m-minus-j")
    rc, doc = real(task)
    assert rc == 1 and doc["verdict"] == "fail"

    def mutant_passed(d):
        d["verdict"] = "pass"
        d["failures"] = []
        return 0

    assert_flags(task, rc, doc, mutant_passed)


def test_census_checks(task_lists):
    task = pick(task_lists["census"], "census q=2 m=3 alpha=1,3")
    rc, doc = real(task)

    def fast_off_by_one(d):
        d["fast_count"] += 1

    def oracle_disagrees(d):
        d["oracle_count"] -= 1

    def skipped_elements(d):
        d["tested"] -= 1

    for doctor in (fast_off_by_one, oracle_disagrees, skipped_elements):
        assert_flags(task, rc, doc, doctor)


def test_census_holds_the_frozen_count(task_lists):
    task = pick(task_lists["census"], "census q=2 m=4 alpha=1,4")
    assert task.expect == {"group_size": 20160, "stabilizers": 1344}
    doc = {
        "verdict": "pass",
        "mismatches": [],
        "group_size": 20160,
        "tested": 20160,
        "oracle_checked": 20160,
        "fast_count": 1344,
        "oracle_count": 1344,
    }

    def both_drift(d):
        d["fast_count"] = d["oracle_count"] = 1343

    assert_flags(task, 0, doc, both_drift)


def test_points_checks(task_lists):
    task = pick(task_lists["fields"], "points q=3 alpha=2,4")
    rc, doc = real(task)

    def off_by_one(d):
        d["count"] += 1

    assert_flags(task, rc, doc, off_by_one)


def test_eq_checks(task_lists):
    unequal = pick(task_lists["fields"], "eq --oracle q=3 nc-differ alpha=1,3")
    rc, doc = real(unequal)
    assert doc["fast"] is False and "witness" in doc

    def witness_on_both(d):
        d["witness"]["in_first"] = d["witness"]["in_second"] = True

    def no_witness(d):
        del d["witness"]

    def disagree(d):
        d["oracle"] = True
        d["agree"] = False

    for doctor in (witness_on_both, no_witness, disagree):
        assert_flags(unequal, rc, doc, doctor)

    equal = pick(task_lists["fields"], "eq q=512 redundant alpha=2,3,5")
    rc, doc = real(equal)

    def flipped(d):
        d["fast"] = False

    assert_flags(equal, rc, doc, flipped)


def test_image_checks(task_lists):
    task = pick(task_lists["fields"], "image q=243 alpha=2,3,5")
    rc, doc = real(task)

    def moved_member(d):
        row = d["flag"]["subspaces"][0][-1]
        row[-1] = (row[-1] + 1) % 243

    assert_flags(task, rc, doc, moved_member)


def test_aut_check_checks(task_lists):
    fast = pick(task_lists["fields"], "aut-check --fast q=256 stabilizer alpha=2,3,5")
    rc, doc = real(fast)

    def rejected(d):
        d["fast"] = False

    assert_flags(fast, rc, doc, rejected)

    both = pick(task_lists["fields"], "aut-check --both q=4 random alpha=2,4")
    rc, doc = real(both)

    def disagree(d):
        d["oracle"] = not d["fast"]
        d["agree"] = False

    assert_flags(both, rc, doc, disagree)


def test_unparsable_output_is_a_failure(task_lists):
    task = task_lists["campaigns"][0]
    assert checks.check(task, 0, "budget exceeded") != []


def test_closed_forms():
    assert checks.gaussian_binomial(4, 2, 2) == 35
    assert checks.gl_order(2, 4) == 20160
    assert checks.flag_stabilizer_order(2, 4, [1]) == 1344
    assert checks.flag_stabilizer_order(2, 4, [1, 3]) == 192
    assert checks.flag_stabilizer_order(3, 3, [2]) == 864


def test_tail_has_ten_tasks_beyond_it():
    # each task ran three times; the first, warm-up run is left out
    latencies = [[1.0, i / 1000, 3 * i / 1000] for i in range(40)]
    m = latency_metrics(latencies, items_per_pass=78)
    assert m["task_tail_ms"] == pytest.approx(58.0)
    assert m["tail_percentile"] == 75.0
    assert m["task_p50_ms"] == pytest.approx(39.0)
    assert m["items_per_s"] == pytest.approx(78 / 1.56)


def test_latencies_rescale_to_the_reference_speed():
    latencies = [[1.0, i / 1000, 3 * i / 1000] for i in range(40)]
    slow_host = latency_metrics([[2 * t for t in ts] for ts in latencies], items_per_pass=78, scale=0.5)
    assert slow_host == pytest.approx(latency_metrics(latencies, items_per_pass=78))


# -- the tracer -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_and_parents_on_a_hand_built_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def c():
        clock.t += 1

    def b():
        clock.t += 2
        wc()

    def a():
        clock.t += 3
        wb()
        wc()
        clock.t += 1

    wa, wb, wc = (tr.span(n, f) for n, f in (("a", a), ("b", b), ("c", c)))
    wa()
    assert dict(tr.calls) == {"a": 1, "b": 1, "c": 2}
    assert tr.total["a"] == 8 and tr.self_time["a"] == 4
    assert tr.total["b"] == 3 and tr.self_time["b"] == 2
    assert tr.total["c"] == 2 and tr.self_time["c"] == 2
    assert dict(tr.edge_calls) == {(None, "a"): 1, ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}
    assert tr.edge_time["a", "c"] == 1 and tr.edge_time["b", "c"] == 1
    assert tr.stack == []


def test_generator_spans_cover_resumptions_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def gen():
        for _ in range(3):
            clock.t += 1
            yield clock.t

    for _ in tr.span("g", gen)():
        clock.t += 10  # the consumer's time is not the generator's
    assert tr.counters["g.yields"] == 3
    assert tr.calls["g"] == 4  # three yields and the final resumption
    assert tr.total["g"] == 3


def test_spans_close_when_the_call_raises():
    tr = tracing.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.span("boom", boom)()
    assert tr.stack == [] and tr.calls["boom"] == 1


def test_mark_flags_the_enclosing_span():
    tr = tracing.Tracer(clock=FakeClock())
    inner = tr.span("inner", lambda: tr.mark("outer"))
    tr.span("outer", inner)()
    tr.span("outer", lambda: None)()
    assert tr.counters["outer.marked"] == 1


def test_wrappers_are_gone_after_the_traced_run():
    originals = {
        "rref": qgrass.linalg.rref,
        "enum": qgrass.schubert.enumerate_grassmannian,
        "campaign": qgrass.verify.CAMPAIGNS["redundancy"],
        "intersect": qgrass.linalg.Subspace.__dict__["intersect"],
        "and": qgrass.linalg.Subspace.__dict__["__and__"],
        "from_rows": qgrass.linalg.Subspace.__dict__["from_rows"],
        "main": cli.main,
    }
    tr = tracing.Tracer()
    with tracing.traced(tr) as patches:
        assert qgrass.linalg.rref is not originals["rref"]
        assert qgrass.schubert.enumerate_grassmannian is not originals["enum"]
        assert qgrass.verify.CAMPAIGNS["redundancy"] is not originals["campaign"]
        with redirect_stdout(io.StringIO()):
            cli.main(["verify", "redundancy", "--q", "2", "--m", "4", "--l", "2", "--flags-per-alpha", "1"])
            cli.main(["verify", "dual-image", "--q", "2", "--m", "4", "--l", "2", "--trials", "1"])
    assert patches
    for container, key, original in patches:
        now = container[key] if isinstance(container, dict) else vars(container)[key]
        assert now is original, key
    assert qgrass.linalg.rref is originals["rref"]
    assert qgrass.schubert.enumerate_grassmannian is originals["enum"]
    assert qgrass.verify.CAMPAIGNS["redundancy"] is originals["campaign"]
    assert qgrass.linalg.Subspace.__dict__["intersect"] is originals["intersect"]
    assert qgrass.linalg.Subspace.__dict__["__and__"] is originals["and"]
    assert qgrass.linalg.Subspace.__dict__["from_rows"] is originals["from_rows"]
    assert cli.main is originals["main"]

    assert tr.calls["cli.main"] == 2
    assert tr.edge_calls["cli.main", "verify.verify_redundancy"] == 1
    assert tr.calls["linalg.Subspace.intersect"] > 0
    metrics = tracing.layer_metrics(tr)
    assert metrics["verify.cases"] == 6 * 35 + 6
    # the dual-image oracle enumerates each of the six varieties and its image
    assert metrics["schubert.point_set.calls"] == 12
    assert 0 < metrics["verify.oracle_share"] < 1


def test_layer_metrics_match_the_catalogue():
    computed = set(tracing.layer_metrics(tracing.Tracer()))
    added_by_run = {"setup.import_s", "setup.fields_s", "setup.inputs_s", "trace.overhead"}
    catalogue = [name for name, _, _, _ in tracing.LAYER_METRICS]
    assert computed | added_by_run == set(catalogue)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == catalogue
