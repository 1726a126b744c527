"""Tests of the benchmark itself: inputs, answer checks, span arithmetic.

Run with `python -m pytest perfbench -q` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hhx.cli  # noqa: E402
import hhx.simplicial  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ENV = dict(run.os.environ, PYTHONPATH=str(run.SRC))


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_generated_inputs_are_valid(tmp_path, name, seed):
    wl = workloads.build(name, seed, tmp_path)
    assert wl.jobs
    # the set-up probe loads every space (validated), algebra and module the
    # jobs read, as the CLI does, and fails on an invalid document
    _, times = run.probe_setup(wl, ENV, tmp_path)
    assert times["load_s"] > 0


@pytest.mark.parametrize("name", ["circle-deep", "actions-scan"])
def test_same_seed_same_inputs(tmp_path, name):
    def files(seed, sub):
        workloads.build(name, seed, tmp_path / sub)
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_answer_check_fails_a_wrong_expectation(tmp_path):
    wl = workloads.build("sparse-f5", 1, tmp_path)
    job = wl.jobs[-1]  # pinched-torus end, N=2: the cheapest job
    wall, code, usage = run.spawn(
        [sys.executable, "-m", "hhx", *job.argv()],
        ENV,
        tmp_path / "job.out",
    )
    text = (tmp_path / "job.out").read_text()
    assert code == 0 and wall > 0 and usage.ru_maxrss > 0
    assert workloads.check_job(job, code, text) == []
    wrong = workloads.Job(job.command, job.space, {"hh_dims": [2, 0, 2]})
    assert workloads.check_job(wrong, code, text) == [
        "hh_dims: got [2, 0, 1], expected [2, 0, 2]"
    ]
    assert workloads.check_job(job, 1, text) == ["exit status 1"]
    assert workloads.check_job(job, 0, "not json")


def test_reference_program_repeats_its_checksum(tmp_path):
    # run_references raises unless every run prints REFERENCE_CHECKSUM
    wall, cpu = run.run_references(ENV, tmp_path)
    assert wall > 0 and cpu > 0


def test_check_report_nested_fields():
    report = {"status": "pass", "paranoid": {"cap": 8, "agrees": False}}
    assert workloads.check_report(report, {"status": "pass"}) == []
    assert workloads.check_report(report, {"paranoid": {"agrees": True}}) == [
        "paranoid.agrees: got False, expected True"
    ]
    assert workloads.check_report({}, {"paranoid": {"agrees": True}}) == [
        "paranoid: missing"
    ]


def test_self_times_on_a_synthetic_span_tree():
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the union is counted once
        S("leaf", 2.0, 3.0, 1, 0),
        S("late", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
        S("other", 20.0, 21.0, None, 1),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def _small_jobs(tmp_path):
    wl = workloads.build("torus-q", 3, tmp_path)
    dual, module = wl.jobs[0].algebra, wl.jobs[0].module
    return [
        workloads.Job("cohomology", ("--builtin", "torus"), {"hh_dims": [2, 2]},
                      dual, module, options=("-N", "1")),
        workloads.Job("actions", ("--builtin", "torus"),
                      {"paranoid": {"agrees": True}}, options=("--paranoid", "4")),
        workloads.Job("validate", ("--builtin", "pinched-torus"), {"status": "pass"}),
    ]


def _traced_round(jobs):
    t = tracer.Tracer()
    t.install()
    try:
        for job in jobs:
            code, text = run._run_in_process(hhx.cli, job)
            assert workloads.check_job(job, code, text) == []
            t.end_job()
    finally:
        t.uninstall()
    return t.layer_metrics()


def test_two_traced_runs_give_identical_counts(tmp_path):
    jobs = _small_jobs(tmp_path)
    first, second = _traced_round(jobs), _traced_round(jobs)
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    for name in ("exactlinalg.rank_sum", "exactlinalg.matmul_count",
                 "cochain.coface_count", "cochain.identity_products",
                 "simplicial.face_calls", "actions.scanned_simplices"):
        assert counts[name] > 0, name
    assert 0 < counts["cochain.coface_row_yield"] <= 1
    # memoised builds count once: torus N=1 builds cofaces (0,0..1), (1,0..2)
    # and ranks delta_0 (16x2) and delta_1, however often they are asked for
    assert counts["cochain.coface_count"] == 5
    assert counts["exactlinalg.rank_cols"] == 2 + 16
    for name in ("exactlinalg.rank_s", "cochain.coface_s", "simplicial.load_s",
                 "simplicial.validate_s", "coeffalg.load_s", "actions.paranoid_s"):
        assert first[name] > 0, name


def test_uninstall_restores_every_patched_name():
    targets = [(t.module, t.cls, t.attr) for t in tracer.SPANS]
    targets += [c[:3] for c in tracer.COUNTERS]

    def current():
        return [getattr(tracer._owner(m, c), a) for m, c, a in targets]

    before = current()
    t = tracer.Tracer()
    t.install()
    # patched where the CLI looks the name up, not where it is defined
    assert hhx.cli.builtin_space is not hhx.simplicial.builtin_space
    assert all(a is not b for a, b in zip(current(), before))
    t.uninstall()
    assert all(a is b for a, b in zip(current(), before))


def test_benchmark_declares_what_the_run_prints():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in declared["per_layer"]}
    produced = set(tracer.TIME_METRICS) | set(tracer.COUNT_METRICS)
    produced |= {"cochain.coface_row_yield", "cli.import_s", "trace.overhead_s"}
    assert layer_names == produced
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)

    baseline = json.loads((run.BENCH / "baseline.json").read_text())["workloads"]
    assert list(baseline) == list(workloads.NAMES)
    for entry in baseline.values():
        assert set(entry["end_to_end"]) == {m["name"] for m in declared["end_to_end"]}
        assert set(entry["per_layer"]) == layer_names
