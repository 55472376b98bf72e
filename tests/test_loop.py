"""Config handling, the phase loop, resume semantics, and the manifest."""
import inspect
import json
import logging
import re
import shutil
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from doubles import FaultyTabularBackend, FaultyTeacher, guidance_to_text, run_python
from rlvrloop.backends import PolicyBackend, TabularPolicyBackend
from rlvrloop.cli import main
from rlvrloop.errors import BackendError, GuidanceError, PhaseError, UsageError
from rlvrloop.evaluator import EvaluationFailure
from rlvrloop.guidance import Guidance, TeacherBackend
from rlvrloop.jsonl import canonical_file_hash, derive_seed
from rlvrloop.loop import (
    ARTIFACTS,
    PHASE_TABLE,
    PHASES,
    RM_TABLE,
    RunConfig,
    RunPaths,
    RunState,
    _SECTION_FIELDS,
    build_backend,
    build_teacher,
    count_infra_errors,
    evaluate_trajectories,
    guide_failures,
    load_config,
    make_tasks,
    read_artifact,
    read_guidance,
    reattempt_with_guidance,
    rollout_all_tasks,
    run_loop,
    setting_parameters,
    train_dpo,
    train_sft,
    write_guidance,
)
from rlvrloop.metrics import aggregate, render_report_text
from rlvrloop.policy import TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER
from rlvrloop.rollout import rollout_params
from rlvrloop.tasks import enumerate_passing_patches, generate_synth_suite, save_tasks

SMALL = dict(
    seed=0,
    workers=1,
    rollouts_n=6,
    synth_count=4,
    synth_lines=3,
    synth_candidates=3,
    sft_epochs=30,
    dpo_epochs=60,
)
# SMALL as run-loop flags
SMALL_ARGV = ["--seed", "0"] + [
    arg
    for item in ("run.workers=1", "run.rollouts_n=6", "tasks.synth_count=4", "tasks.synth_lines=3",
                 "tasks.synth_candidates=3", "sft.sft_epochs=30", "dpo.dpo_epochs=60")
    for arg in ("--set", item)
]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = RunConfig(output_dir=str(out), **SMALL)
    manifest = run_loop(config)
    return config, RunPaths(out), manifest


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

CONFIG_TEXT = """\
[run]
seed = 7
rollouts_n = 12
guidance_enabled = off

[tasks]
synth_count = 10
synth_lines = 4

[dpo]
dpo_beta = 0.25
dpo_epochs = 50
"""


def test_load_config_file_and_coercion(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    assert config.seed == 7
    assert config.rollouts_n == 12
    assert config.guidance_enabled is False
    assert config.synth_count == 10
    assert config.dpo_beta == 0.25
    assert config.dpo_epochs == 50
    # untouched fields keep their defaults
    assert config.backend_endpoint == ""
    assert config.sft_fraction == 0.2


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    config = load_config(path, overrides=["run.seed=99", "assemble.sft_fraction=0.4"])
    assert config.seed == 99
    assert config.sft_fraction == 0.4


def test_config_rejects_unknowns(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[mystery]\nx = 1\n")
    with pytest.raises(UsageError, match="unknown config section"):
        load_config(bad_section)

    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[run]\nrollout_n = 4\n")
    with pytest.raises(UsageError, match="unknown config key run.rollout_n"):
        load_config(bad_key)

    with pytest.raises(UsageError, match="not found"):
        load_config(tmp_path / "missing.ini")


def test_config_rejects_bad_values_and_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nguidance_enabled = maybe\n")
    with pytest.raises(UsageError, match="not a boolean"):
        load_config(path)

    for override in ("run.seed", "seed=1", "run.nope=1", "tasks.seed=1"):
        with pytest.raises(UsageError):
            load_config(None, overrides=[override])

    with pytest.raises(UsageError, match="seed='notanint'"):
        load_config(None, overrides=["run.seed=notanint"])

    # out-of-range values fail here, naming the key, before any phase runs
    for override, key in (
        ("run.workers=0", "workers"), ("run.workers=-3", "workers"),
        ("run.rollouts_n=0", "rollouts_n"), ("run.max_tokens=0", "max_tokens"),
        ("assemble.sft_fraction=-0.1", "sft_fraction"), ("assemble.sft_fraction=1.5", "sft_fraction"),
        ("sft.sft_learning_rate=0", "sft_learning_rate"), ("dpo.dpo_learning_rate=-1", "dpo_learning_rate"),
        ("sft.sft_epochs=-1", "sft_epochs"), ("dpo.dpo_epochs=-1", "dpo_epochs"),
        ("dpo.dpo_beta=0", "dpo_beta"), ("dpo.dpo_beta=nan", "dpo_beta"),
        ("tasks.synth_count=0", "synth_count"), ("tasks.synth_lines=1", "synth_lines"),
        ("tasks.synth_candidates=1", "synth_candidates"), ("tasks.synth_candidates=28", "synth_candidates"),
    ):
        with pytest.raises(UsageError, match=f"{key}=.* out of range"):
            load_config(None, overrides=[override])
    path.write_text("[run]\nrollouts_n = 0\n")
    with pytest.raises(UsageError, match="rollouts_n=0"):
        load_config(path)
    # the edges of each range are accepted
    edges = ["run.workers=1", "run.rollouts_n=1", "run.max_tokens=1", "assemble.sft_fraction=0", "sft.sft_epochs=0",
             "dpo.dpo_epochs=0", "tasks.synth_count=1", "tasks.synth_lines=2", "tasks.synth_candidates=2"]
    config = load_config(None, overrides=edges + ["assemble.sft_fraction=1", "tasks.synth_candidates=27"])
    assert (config.workers, config.rollouts_n, config.sft_fraction, config.synth_lines, config.synth_candidates) == (
        1, 1, 1.0, 2, 27)


@pytest.mark.parametrize("override, message", [
    ("backend.backend_kind=remote", "unknown config key 'backend.backend_kind'"),
    ("teacher.teacher_kind=remote", "unknown config key 'teacher.teacher_kind'"),
    ("backend.container_image=img:1", "unknown config key 'backend.container_image'"),
    ("assemble.keep_guidance_in_prompt=true", "unknown config key 'assemble.keep_guidance_in_prompt'"),
    ("run.output_dir=elsewhere", "unknown config key 'run.output_dir'"),
])
def test_config_rejects_what_no_phase_could_run(override, message):
    """A key no phase reads fails the config, before any phase."""
    with pytest.raises(UsageError, match=message):
        load_config(None, overrides=[override])


def test_readme_names_every_config_key_and_no_other():
    """README's "Sections and keys" paragraph lists each section's keys as loop._SECTION_FIELDS does."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Sections and keys:", 1)[1].split("\n\n", 1)[0]
    documented = {
        section: set(re.findall(r"`(\w+)`", keys))
        for section, keys in re.findall(r"`(\w+)`\s+\(([^)]*)\)", paragraph)
    }
    assert documented == {section: set(keys) for section, keys in _SECTION_FIELDS.items()}


def test_readme_states_each_range_as_its_field_declares_it():
    """README's range paragraph names each ranged key once with its range, as its RunConfig field declares it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.split("Settings out of their range", 1)[1].split("\n\n", 1)[0].split())
    entries = re.findall(r"`(\w+) (>=? \S+|in \[[^\]]*\])`", paragraph)
    assert len(entries) == len(dict(entries))
    assert dict(entries) == {f.name: f.metadata["range"] for f in fields(RunConfig) if f.metadata.get("range")}


def test_readme_library_use_runs_and_imports_exactly_the_package_root():
    """README's "Library use" block runs, and it imports every name rlvrloop.__all__ exports and no other."""
    import rlvrloop

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = re.search(r"from rlvrloop import \((.*?)\)", block, re.S).group(1)
    names = re.findall(r"\b[A-Za-z_]\w*\b", re.sub(r"#.*", "", imported))
    assert sorted(rlvrloop.__all__) == sorted(names)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["suite"]) == 16 and namespace["dataset"].pairs


@pytest.mark.parametrize("text, problem", [
    (b"seed = 3\n[run]\nworkers = 1\n", "no section headers"),
    (b"[run]\nseed = 3\nseed = 4\n", "already exists"),
    (b"[run]\nseed = 3\n[run]\nworkers = 1\n", "already exists"),
    (b"[run]\nseed = \xff\n", "can't decode"),
])
def test_config_file_that_does_not_parse_is_a_usage_error(text, problem, tmp_path, capsys):
    """A key before any section, a key or section given twice, or bytes that are not UTF-8 exit 1 naming the file."""
    path, out = tmp_path / "bad.ini", tmp_path / "run"
    path.write_bytes(text)
    with pytest.raises(UsageError, match=problem):
        load_config(path)
    assert main(["run-loop", "--config", str(path), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_values_are_taken_as_written(tmp_path):
    """No interpolation: a URL-encoded endpoint keeps its % escapes."""
    path = tmp_path / "remote.ini"
    path.write_text("[backend]\nbackend_endpoint = http://x/a%20b\n[teacher]\nteacher_endpoint = http://t/%(x)s\n")
    config = load_config(path)
    assert (config.backend_endpoint, config.teacher_endpoint) == ("http://x/a%20b", "http://t/%(x)s")


# ---------------------------------------------------------------------------
# Component builders
# ---------------------------------------------------------------------------


def test_build_backend_and_teacher_validation(small_suite):
    """An endpoint selects the HTTP client; without one, the tabular backend and the oracle."""
    policy = TabularPolicy.uniform(small_suite)
    assert build_backend("", policy).backend_id == "tabular"
    remote = build_backend("http://b", policy)
    assert (remote.backend_id, remote.endpoint) == ("remote", "http://b")

    assert build_teacher("") is None  # oracle arm
    teacher = build_teacher("http://t")
    assert (teacher.teacher_id, teacher.endpoint) == ("remote-teacher", "http://t")


def test_resolve_tasks_prefers_explicit_path(tmp_path):
    suite = generate_synth_suite(3, 3, 3, seed=4)
    path = tmp_path / "tasks.jsonl"
    save_tasks(suite, path)
    settings = dict(tasks_path="", synth_count=3, synth_lines=3, synth_candidates=3, seed=4, initial_policy="")
    assert make_tasks(**dict(settings, tasks_path=str(path), synth_count=99))[0] == suite

    generated, _ = make_tasks(**settings)
    assert generated == suite  # same generator arguments, same suite


# ---------------------------------------------------------------------------
# Rollout and reattempt batches
# ---------------------------------------------------------------------------


class UnlimitedBackend(PolicyBackend):
    """A thread-safe tabular backend that declares no concurrency limit and
    answers only generate(), so batches take the per-call path."""

    backend_id = "tabular"

    def __init__(self, policy):
        self.inner = TabularPolicyBackend(policy)

    def generate(self, prompt, params):
        return self.inner.generate(prompt, params)


def _guidance_for(suite, backend):
    trajs = rollout_all_tasks(suite, backend, 4, 0, workers=1)
    return guide_failures(suite, trajs, evaluate_trajectories(suite, trajs, workers=1), None)


def test_in_process_backend_never_builds_a_thread_pool(small_suite, monkeypatch):
    import rlvrloop.backends as backends

    def no_pool(*args, **kwargs):
        raise AssertionError("the in-process backend must be called inline")

    backend = TabularPolicyBackend(TabularPolicy.uniform(small_suite))
    guidance = _guidance_for(small_suite, backend)
    assert len(guidance) > 1
    monkeypatch.setattr(backends, "ThreadPoolExecutor", no_pool)
    assert len(rollout_all_tasks(small_suite, backend, 4, 0, workers=4)) == 4 * len(small_suite)
    assert len(reattempt_with_guidance(small_suite, guidance, backend, 0, workers=4)) == len(guidance)


def test_pooled_backend_matches_serial_trajectories(small_suite, monkeypatch):
    import rlvrloop.backends as backends

    pools = []

    class CountingPool(backends.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    backend = UnlimitedBackend(TabularPolicy.uniform(small_suite))
    guidance = _guidance_for(small_suite, backend)
    monkeypatch.setattr(backends, "ThreadPoolExecutor", CountingPool)
    built = []

    def counted(fn, *args, workers):
        before = len(pools)
        out = fn(*args, workers=workers)
        built.append(len(pools) - before)
        return out

    serial = counted(rollout_all_tasks, small_suite, backend, 4, 0, workers=1)
    assert counted(rollout_all_tasks, small_suite, backend, 4, 0, workers=4) == serial
    serial = counted(reattempt_with_guidance, small_suite, guidance, backend, 0, workers=1)
    assert counted(reattempt_with_guidance, small_suite, guidance, backend, 0, workers=4) == serial
    # the workers=4 calls, and only those, ran pooled: one pool for each of a phase's two batches
    assert built == [0, 2, 0, 2]


class TwoAtATimeBackend(UnlimitedBackend):
    """Declares a limit of two concurrent calls and records the most it was given at once."""

    max_concurrency = 2

    def __init__(self, policy):
        super().__init__(policy)
        self.lock = threading.Lock()
        self.active = self.peak = 0

    def generate(self, prompt, params):
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.002)
            return super().generate(prompt, params)
        finally:
            with self.lock:
                self.active -= 1


def test_pool_honours_a_declared_concurrency_limit(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    backend = TwoAtATimeBackend(policy)
    serial = rollout_all_tasks(small_suite, TabularPolicyBackend(policy), 4, 0, workers=1)
    assert rollout_all_tasks(small_suite, backend, 4, 0, workers=4) == serial
    assert backend.peak == 2


class CountingTeacher(TeacherBackend):
    """A thread-safe teacher that records every request and the most calls it was
    given at once; its reply depends on the request only, or it is always down."""

    teacher_id = "counting"

    def __init__(self, dead=False):
        self.dead = dead
        self.lock = threading.Lock()
        self.active = self.peak = 0
        self.requests = []

    def generate_guidance_text(self, request):
        with self.lock:
            self.requests.append(request)
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.01 if self.dead else 0.002)
            if self.dead:
                raise BackendError("teacher: HTTP 503")
            size = len(request)
            return guidance_to_text(Guidance("g", "t", "r", "plan", f"{size} chars", f"line {size % 7}", "x"))
        finally:
            with self.lock:
                self.active -= 1


def _failed_rollouts(suite):
    trajs = rollout_all_tasks(suite, TabularPolicyBackend(TabularPolicy.uniform(suite)), 4, 0, workers=1)
    return trajs, evaluate_trajectories(suite, trajs, workers=1)


def test_teacher_batch_runs_on_workers_threads(small_suite):
    trajs, records = _failed_rollouts(small_suite)
    serial_teacher, pooled_teacher = CountingTeacher(), CountingTeacher()
    serial = guide_failures(small_suite, trajs, records, serial_teacher, workers=1)
    assert len(serial) > 2 and serial_teacher.peak == 1
    assert guide_failures(small_suite, trajs, records, pooled_teacher, workers=4) == serial
    assert 1 < pooled_teacher.peak <= 4


@pytest.mark.parametrize("workers", [1, 2])
def test_dead_teacher_costs_each_failure_one_lost_record(small_suite, workers):
    trajs, records = _failed_rollouts(small_suite)
    failed = [rec for rec in records if rec.reward == 0]
    teacher = CountingTeacher(dead=True)
    guidance = guide_failures(small_suite, trajs, records, teacher, workers=workers)
    # every request is sent and makes its three calls, and each becomes its failure's lost record
    assert len(failed) > 2 and len(teacher.requests) == 3 * len(failed)
    assert guidance == [EvaluationFailure(r.task_id, r.trajectory_ref, "teacher: HTTP 503") for r in failed]


@pytest.mark.parametrize("dead", [False, True])
def test_lost_teacher_exchanges_are_logged_once_with_the_first_error(small_suite, caplog, dead):
    trajs, records = _failed_rollouts(small_suite)
    with caplog.at_level(logging.WARNING, logger="rlvrloop.loop"):
        assert guide_failures(small_suite, trajs, records, FaultyTeacher()) and not caplog.records
        guidance = guide_failures(small_suite, trajs, records, FaultyTeacher(2, frozenset({0}), dead))
    lost = [g for g in guidance if isinstance(g, EvaluationFailure)]
    assert 0 < len(lost) < len(guidance)
    assert ("injected fault" if dead else "unusable reply") in lost[0].error
    assert [r.getMessage() for r in caplog.records] == [
        f"{len(lost)} of {len(guidance)} teacher exchanges were lost; the first: {lost[0].error}"
    ]


def _sharp_suite_and_policy():
    """Eight tasks and a non-uniform policy: eight rollouts each give 56 sampled localizations."""
    suite = generate_synth_suite(8, 4, 4, seed=5)
    policy = TabularPolicy.uniform(suite)
    policy.set_theta(np.random.default_rng(5).normal(scale=2.0, size=policy.theta().size))
    return suite, policy


def test_batched_phases_match_the_per_call_path(monkeypatch):
    import rlvrloop.backends as backends

    draws = []  # the number of seeds of each splitmix64 call
    splitmix64 = backends.splitmix64
    monkeypatch.setattr(backends, "splitmix64", lambda seeds, k: draws.append(len(seeds)) or splitmix64(seeds, k))
    suite, policy = _sharp_suite_and_policy()
    batched, per_call = TabularPolicyBackend(policy), UnlimitedBackend(policy)
    trajs = rollout_all_tasks(suite, batched, 8, 0, workers=1)
    guidance = guide_failures(suite, trajs, evaluate_trajectories(suite, trajs, workers=1), None)
    guided = reattempt_with_guidance(suite, guidance, batched, 0, workers=1)
    # each batch drew every sampled request's uniforms in one call; a hinted localization draws nothing
    assert draws == [8 * 7, 8 * 7, 0, len(guidance)] and len(guidance) > 1
    assert trajs == rollout_all_tasks(suite, per_call, 8, 0, workers=1)
    assert guided == reattempt_with_guidance(suite, guidance, per_call, 0, workers=1)
    assert max(draws[4:]) == 1  # the per-call path draws at most one seed at a time
    assert not any(t.is_placeholder for t in trajs + guided)


def test_an_attempt_derives_one_seed(monkeypatch):
    """The only seed an attempt derives is the one its trajectory records: both step requests carry it, and the
    backend draws from it directly, so a phase costs one derive_seed per rollout slot or guided reattempt."""
    import rlvrloop.backends as backends

    assert not hasattr(backends, "derive_seed")
    suite, policy = _sharp_suite_and_policy()
    backend = TabularPolicyBackend(policy)
    seeds = []

    def counting(*parts):
        seeds.append(derive_seed(*parts))
        return seeds[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("rlvrloop") and getattr(module, "derive_seed", None) is derive_seed:
            monkeypatch.setattr(module, "derive_seed", counting)
    trajs = rollout_all_tasks(suite, backend, 8, 0, workers=1)
    assert seeds == [t.sampling.seed for t in trajs] and len(seeds) == 64
    guidance = guide_failures(suite, trajs, evaluate_trajectories(suite, trajs, workers=1), None)
    seeds.clear()
    guided = reattempt_with_guidance(suite, guidance, backend, 0, workers=1)
    assert seeds == [t.sampling.seed for t in guided] and len(seeds) == len(guidance) > 1


class FailsOneSeedInFive(PolicyBackend):
    """Answers batches through a backend's generate_batch, except that each request
    whose seed is 0 mod 5 gets a BackendError."""

    backend_id = "tabular"

    def __init__(self, inner: PolicyBackend):
        self.inner = inner

    def generate_batch(self, requests, workers=1):
        answers = self.inner.generate_batch(requests, workers)
        return [BackendError("down") if params.seed % 5 == 0 else a for (_, params), a in zip(requests, answers)]


def test_failed_requests_cost_exactly_their_slots():
    suite, policy = _sharp_suite_and_policy()
    clean = rollout_all_tasks(suite, TabularPolicyBackend(policy), 8, 0, workers=1)
    trajs = rollout_all_tasks(suite, FailsOneSeedInFive(TabularPolicyBackend(policy)), 8, 0, workers=1)
    # both requests of an attempt carry the seed its trajectory records, so a slot dies with its seed
    assert [t.traj_id for t in trajs] == [t.traj_id for t in clean]
    assert [t.is_placeholder for t in trajs] == [t.sampling.seed % 5 == 0 for t in clean]
    assert 0 < sum(t.is_placeholder for t in trajs) < len(trajs)
    assert all(got == want for got, want in zip(trajs, clean) if not got.is_placeholder)


def test_a_dead_greedy_slot_stays_out_of_greedy_pass_at_1():
    """Every greedy decode is the fix, and the backend kills one task's greedy attempt: that task has no
    greedy reward, its dead slot is one infra error, and pass@1 is taken over the other tasks' greedy slots."""
    suite = generate_synth_suite(6, 4, 4, seed=11)
    policy = TabularPolicy.uniform(suite)
    for task in suite:
        [(line, cand)] = enumerate_passing_patches(task)
        policy.head(task.id).line_logits[line] = policy.head(task.id).cand_logits[line, cand] = 1.0
    dead = suite.tasks[2]
    greedy = rollout_params(0, dead.id, 0).seed
    trajs = rollout_all_tasks(suite, FaultyTabularBackend(policy, 2**63, frozenset({greedy})), 4, 0, workers=1)
    assert [(t.task_id, t.sampling.temperature) for t in trajs if t.is_placeholder] == [(dead.id, 0.0)]
    report = aggregate(trajs, evaluate_trajectories(suite, trajs, workers=1))
    assert report.totals["infra_errors"] == 1
    assert report.per_task[dead.id]["greedy_reward"] is None
    assert [s["greedy_reward"] for tid, s in report.per_task.items() if tid != dead.id] == [1] * 5
    assert report.pass_at_1 == 1.0 and report.pass_at_1_std == 0.0
    # no scored greedy slot at all: pass@1 is n/a, not a model score of 0
    sampled = [t for t in trajs if t.sampling.temperature]
    none = aggregate(sampled, evaluate_trajectories(suite, sampled, workers=1))
    assert none.pass_at_1 is none.pass_at_1_std is None and none.totals["successes"] > 0
    assert "pass@1 (greedy)  n/a" in render_report_text(none)
    assert json.loads(json.dumps(none.to_dict()))["pass_at_1"] is None


def test_guidance_file_round_trip(tmp_path):
    g = Guidance(
        guidance_id="g-1",
        task_id="t1",
        source_trajectory_ref="t1/x/0/u",
        plan="replace the defective statement",
        env_feedback="output mismatched",
        env_interaction="line 2",
        teacher_id="oracle",
    )
    lost = EvaluationFailure("t1", "t1/x/1/u", "remote-teacher: HTTP 503")
    path = tmp_path / "guidance.jsonl"
    write_guidance([g, lost], path)
    assert read_guidance(path) == [g, lost]
    # a lost exchange is the line a reward file holds for a lost attempt
    assert json.loads(path.read_text().splitlines()[2]) == {
        "infrastructure_error": "remote-teacher: HTTP 503", "task_id": "t1", "trajectory_ref": "t1/x/1/u"
    }


def test_every_jsonl_artifact_rewrites_to_its_own_bytes(tmp_path, monkeypatch):
    """A small run with lost rollout slots and lost teacher exchanges: each JSONL file its row reads, read back
    through read_artifact and written by the row's own writer, gives the same bytes."""
    import rlvrloop.loop as loop

    sample = loop.rollout_all_tasks
    monkeypatch.setattr(
        loop, "rollout_all_tasks", lambda tasks, backend, *a, **kw: sample(tasks, DiesOnOneSeedInFive(backend), *a, **kw)
    )
    monkeypatch.setattr(loop, "build_teacher", lambda endpoint: FaultyTeacher(3, frozenset({0}), dead=True))
    assert main(["run-loop", "--output-dir", str(tmp_path / "run"), *SMALL_ARGV]) == 3
    paths = RunPaths(tmp_path / "run")
    for name in ("rewards", "guidance"):
        lost = [r for r in read_artifact(name, getattr(paths, name)) if isinstance(r, EvaluationFailure)]
        assert lost and "infrastructure_error" in getattr(paths, name).read_text()
    rewritten = [
        (name, artifact) for phase in PHASE_TABLE for name, artifact in phase.outputs.items()
        if artifact.file.endswith(".jsonl") and artifact.read is not None
    ]
    assert len(rewritten) == 9
    for name, artifact in rewritten:
        artifact.write(read_artifact(name, getattr(paths, name)), tmp_path / artifact.file)
        assert (tmp_path / artifact.file).read_bytes() == getattr(paths, name).read_bytes(), name


def test_run_state_persistence(tmp_path):
    path = tmp_path / "runstate.json"
    state = RunState(path)
    state.mark("tasks")
    state.hashes["rollouts.jsonl"] = "ab" * 32
    state.mark("rollout")
    state.mark("tasks")  # idempotent
    assert RunState(path).completed == ["tasks", "rollout"]
    assert RunState(path).hashes == {"rollouts.jsonl": "ab" * 32}
    assert not list(tmp_path.glob("*.partial"))


def test_phase_table_declares_each_artifact_once():
    produced: list[str] = []
    for phase in PHASE_TABLE:
        assert set(phase.inputs) <= set(produced), f"{phase.name} reads an artifact no earlier phase writes"
        produced += phase.outputs
    assert PHASES == tuple(phase.name for phase in PHASE_TABLE)
    assert len(produced) == len(set(produced)) == len(set(ARTIFACTS.values())) == 16
    paths = RunPaths("run")
    assert {getattr(paths, name).name for name in produced} == set(ARTIFACTS.values())


# ---------------------------------------------------------------------------
# The loop end to end
# ---------------------------------------------------------------------------


def test_run_produces_every_artifact(finished_run):
    config, paths, manifest = finished_run
    expected = [
        paths.tasks, paths.policy_init, paths.rollouts, paths.rewards,
        paths.guidance, paths.guided_rollouts, paths.guided_rewards,
        paths.dataset, paths.policy_sft, paths.sft_log, paths.policy_final,
        paths.dpo_log, paths.eval_rollouts, paths.eval_rewards,
        paths.report_json, paths.report_txt, paths.state, paths.manifest,
    ]
    for file in expected:
        assert file.exists(), file
    assert json.loads(paths.state.read_text())["completed"] == list(PHASES)
    assert count_infra_errors(paths) == manifest["infra_errors"] == 0

    report = json.loads(paths.report_json.read_text())
    assert set(report) == {"pre_training", "post_training"}
    assert report["pre_training"]["totals"]["tasks"] == config.synth_count
    txt = paths.report_txt.read_text()
    assert "== pre-training (rollout phase) ==" in txt
    assert "== post-training (final eval) ==" in txt


def test_training_moved_the_policy(finished_run):
    _, paths, _ = finished_run
    init = TabularPolicy.load(paths.policy_init)
    final = TabularPolicy.load(paths.policy_final)
    assert init.theta().tobytes() != final.theta().tobytes()
    assert final.fine_tuned

    pre = json.loads(paths.report_json.read_text())["pre_training"]
    post = json.loads(paths.report_json.read_text())["post_training"]
    assert post["pass_at_1"] >= pre["pass_at_1"]


def test_manifest_lists_declared_outputs_and_run_state(finished_run, tmp_path, monkeypatch):
    import rlvrloop.loop as loop

    config, paths, manifest = finished_run
    listed = [a["path"] for a in manifest["artifacts"]]
    assert listed == sorted([*ARTIFACTS.values(), "runstate.json"])
    for artifact in manifest["artifacts"]:
        assert artifact["sha256"] == canonical_file_hash(paths.dir / artifact["path"])
    assert manifest["config"]["rollouts_n"] == 6
    assert json.loads(paths.manifest.read_text()) == manifest

    # a stray file in the run directory is neither hashed nor listed
    copy = tmp_path / "run"
    shutil.copytree(paths.dir, copy)
    (copy / "notes.txt").write_text("not an artifact\n")
    hashed = []
    monkeypatch.setattr(loop, "canonical_file_hash", lambda f: hashed.append(f.name) or canonical_file_hash(f))
    again = run_loop(replace(config, output_dir=str(copy)), resume=True)
    assert again["artifacts"] == manifest["artifacts"]
    # the run directory is no setting, so the manifest of one config does not depend on where it was written
    assert "output_dir" not in manifest["config"] and again == manifest
    assert (copy / "manifest.json").read_bytes() == paths.manifest.read_bytes()
    assert sorted(hashed) == listed  # the resume re-hashed each output once, and the run state


def test_rerun_without_resume_is_refused(finished_run):
    config, _, _ = finished_run
    with pytest.raises(UsageError, match="already holds a run"):
        run_loop(config)


def test_identical_configs_reproduce_identical_artifacts(finished_run, tmp_path):
    config, paths, manifest = finished_run
    twin = RunConfig(output_dir=str(tmp_path / "twin"), **SMALL)
    twin_manifest = run_loop(twin)
    mine = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
    theirs = {a["path"]: a["sha256"] for a in twin_manifest["artifacts"]}
    assert mine == theirs
    # the digests agree because the bytes do: no artifact records a wall time
    for name in mine:
        assert (paths.dir / name).read_bytes() == (tmp_path / "twin" / name).read_bytes(), name


def test_phase_failure_then_resume(tmp_path, caplog, monkeypatch):
    import rlvrloop.loop as loop

    def no_guidance(*args, **kwargs):
        raise GuidanceError("the teacher answered nothing usable")

    out = tmp_path / "run"
    config = RunConfig(output_dir=str(out), **SMALL)
    monkeypatch.setattr(loop, "guide_failures", no_guidance)
    with pytest.raises(PhaseError) as excinfo:
        run_loop(config)
    assert excinfo.value.phase == "guide"
    assert "the teacher answered nothing usable" in str(excinfo.value)

    paths = RunPaths(out)
    assert json.loads(paths.state.read_text())["completed"] == ["tasks", "rollout", "evaluate"]
    rollout_bytes = paths.rollouts.read_bytes()

    monkeypatch.undo()
    with caplog.at_level(logging.INFO, logger="rlvrloop.loop"):
        run_loop(config, resume=True)
    assert json.loads(paths.state.read_text())["completed"] == list(PHASES)
    assert paths.rollouts.read_bytes() == rollout_bytes
    skipped = [r for r in caplog.records if "already complete" in r.message]
    assert len(skipped) == 3


def test_guidance_disabled_run(tmp_path):
    config = RunConfig(output_dir=str(tmp_path / "run"), guidance_enabled=False, **SMALL)
    run_loop(config)
    paths = RunPaths(config.output_dir)
    assert read_guidance(paths.guidance) == []
    report = json.loads(paths.report_json.read_text())
    uplift = report["post_training"]["guidance_uplift"]
    assert uplift["guided"]["attempts"] == 0
    assert uplift["delta"] is None
    assert re.search(r"^uplift \(rate\) +n/a$", paths.report_txt.read_text(), re.MULTILINE)

    dataset_lines = paths.dataset.read_text().splitlines()
    accounting = json.loads(dataset_lines[1])
    assert accounting["guided_repair_pairs"] == 0


class DiesOnOneSeedInFive(PolicyBackend):
    """Delegates to a backend, except that a call whose seed is 0 mod 5 fails, every retry too."""

    def __init__(self, inner: PolicyBackend):
        self.inner, self.backend_id, self.max_concurrency = inner, inner.backend_id, inner.max_concurrency

    def generate(self, prompt, params):
        if params.seed % 5 == 0:
            raise BackendError(f"{self.backend_id}: connection reset")
        return self.inner.generate(prompt, params)


def test_dead_backend_slots_are_infrastructure_failures(tmp_path, monkeypatch, capsys):
    """The rollout and final-eval phases sample from a backend that dies on one seed in five.

    Each dead slot's placeholder is scored as an infrastructure failure, so
    no guidance, pair, pass@k or best-of-k selection counts it, and the run
    completes with exit 3.
    """
    import rlvrloop.loop as loop

    sample = loop.rollout_all_tasks
    monkeypatch.setattr(
        loop, "rollout_all_tasks", lambda tasks, backend, *a, **kw: sample(tasks, DiesOnOneSeedInFive(backend), *a, **kw)
    )
    assert main(["run-loop", "--output-dir", str(tmp_path), *SMALL_ARGV]) == 3
    assert "run completed with" in capsys.readouterr().err
    paths = RunPaths(tmp_path)
    rollouts = read_artifact("rollouts", paths.rollouts)
    eval_rollouts = read_artifact("eval_rollouts", paths.eval_rollouts)
    dead = {t.traj_id for t in rollouts if t.is_placeholder}
    eval_dead = {t.traj_id for t in eval_rollouts if t.is_placeholder}
    assert dead and eval_dead

    assert json.loads(paths.manifest.read_text())["infra_errors"] == len(dead) + len(eval_dead)
    for name, refs in (("rewards", dead), ("eval_rewards", eval_dead)):
        failed = {r.trajectory_ref for r in read_artifact(name, getattr(paths, name)) if isinstance(r, EvaluationFailure)}
        assert failed == refs, name
    assert not {g.source_trajectory_ref for g in read_guidance(paths.guidance)} & dead
    dataset = read_artifact("dataset", paths.dataset)
    assert not {ref for p in dataset.pairs for ref in (p.winner.trajectory_ref, p.loser.trajectory_ref)} & dead
    accounting = dataset.accounting
    assert accounting["skipped_unscored"] == len(dead)
    assert accounting["positives_total"] + accounting["negatives_total"] + len(dead) == len(rollouts)
    post = json.loads(paths.report_json.read_text())["post_training"]["totals"]
    assert post["infra_errors"] == len(eval_dead)
    assert post["records"] == len(eval_rollouts) - len(eval_dead)

    tasks = read_artifact("tasks", paths.tasks)
    rm, _ = loop.train_rm(tasks, dataset)
    selections = loop.rank(tasks, rm, eval_rollouts, read_artifact("eval_rewards", paths.eval_rewards))
    assert len(selections) == SMALL["synth_count"]
    assert not {s["trajectory_ref"] for s in selections} & eval_dead
    assert sum(s["k"] for s in selections) == len(eval_rollouts) - len(eval_dead)


def test_dead_reattempt_slots_are_infrastructure_failures(tmp_path, monkeypatch, capsys):
    """Every backend the loop builds dies on one seed in five, the reattempt phase's included.

    A dead guided reattempt becomes a guided placeholder, scored as an
    infrastructure failure; the run completes with exit 3, and no pair or
    guidance uplift counts the placeholder.
    """
    import rlvrloop.loop as loop

    build = loop.build_backend
    monkeypatch.setattr(loop, "build_backend", lambda endpoint, policy: DiesOnOneSeedInFive(build(endpoint, policy)))
    assert main(["run-loop", "--output-dir", str(tmp_path), *SMALL_ARGV]) == 3
    assert "run completed with" in capsys.readouterr().err
    paths = RunPaths(tmp_path)
    guided = read_artifact("guided_rollouts", paths.guided_rollouts)
    guidance_ids = {g.guidance_id for g in read_guidance(paths.guidance)}
    assert len(guided) == len(guidance_ids)
    guided_dead = {t.traj_id for t in guided if t.is_placeholder}
    assert guided_dead
    for traj in guided:
        if traj.is_placeholder:
            assert traj.guidance_id in guidance_ids and traj.traj_id.endswith("/g")
            assert HINT_DELIMITER in traj.steps[0].prompt and traj.patch is None

    guided_rewards = read_artifact("guided_rewards", paths.guided_rewards)
    assert {r.trajectory_ref for r in guided_rewards if isinstance(r, EvaluationFailure)} == guided_dead
    placeholders = sum(
        t.is_placeholder
        for name in ("rollouts", "guided_rollouts", "eval_rollouts")
        for t in read_artifact(name, getattr(paths, name))
    )
    assert json.loads(paths.manifest.read_text())["infra_errors"] == placeholders
    dataset = read_artifact("dataset", paths.dataset)
    assert not {p.winner.trajectory_ref for p in dataset.pairs} & guided_dead
    uplift = json.loads(paths.report_json.read_text())["post_training"]["guidance_uplift"]
    assert uplift["guided"]["attempts"] == len(guided) - len(guided_dead)


def test_initial_policy_is_honored(tmp_path, finished_run):
    _, done_paths, _ = finished_run
    config = RunConfig(
        output_dir=str(tmp_path / "run"),
        initial_policy=str(done_paths.policy_final),
        **SMALL,
    )
    paths = RunPaths(config.output_dir)
    run_loop(config)
    init = TabularPolicy.load(paths.policy_init)
    assert init.theta().tobytes() == TabularPolicy.load(done_paths.policy_final).theta().tobytes()
    # a fine-tuned starting point skips sft: the sft checkpoint is the input
    assert TabularPolicy.load(paths.policy_sft).theta().tobytes() == init.theta().tobytes()
    assert paths.sft_log.read_text() == ""


def test_crash_mid_write_leaves_no_final_file_and_resume_matches(finished_run, tmp_path, monkeypatch):
    import rlvrloop.loop as loop

    config, done, _ = finished_run
    config = replace(config, output_dir=str(tmp_path / "run"))
    paths = RunPaths(config.output_dir)
    real_write = loop.write_trajectories

    def crash(trajectories, path):
        real_write(trajectories[: len(trajectories) // 2], path)
        raise OSError("disk full")

    monkeypatch.setattr(loop, "write_trajectories", crash)
    with pytest.raises(OSError, match="disk full"):
        run_loop(config)
    assert not paths.rollouts.exists()
    assert not list(paths.dir.glob("*.partial"))  # the half-written file was unlinked
    assert json.loads(paths.state.read_text())["completed"] == ["tasks"]

    monkeypatch.setattr(loop, "write_trajectories", real_write)
    run_loop(config, resume=True)
    for file in ARTIFACTS.values():
        assert (paths.dir / file).read_bytes() == (done.dir / file).read_bytes(), file
    assert not list(paths.dir.glob("*.partial"))


@pytest.mark.parametrize("k", range(1, len(PHASES)))
def test_resume_from_every_phase_boundary_matches_the_uninterrupted_run(finished_run, tmp_path, k):
    """Outputs read back on resume feed later phases exactly as the handed-forward values did."""
    config, done, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done.dir, out)
    state = json.loads((out / "runstate.json").read_text())
    (out / "runstate.json").write_text(json.dumps({**state, "completed": list(PHASES[:k])}) + "\n")
    for phase in PHASE_TABLE[k:]:
        for name in phase.outputs:
            (out / ARTIFACTS[name]).unlink()
    run_loop(replace(config, output_dir=str(out)), resume=True)
    for file in ARTIFACTS.values():
        assert (out / file).read_bytes() == (done.dir / file).read_bytes(), file
    assert not list(out.glob("*.partial"))


@pytest.mark.parametrize("change, phase, name", [
    (["--seed", "5"], "tasks", "seed"),
    (["--set", "tasks.synth_count=5"], "tasks", "synth_count"),
    (["--set", "run.max_tokens=128"], "rollout", "max_tokens"),
    (["--set", "run.guidance_enabled=off"], "guide", "guidance_enabled"),
    (["--set", "assemble.include_guided_in_sft=on"], "assemble", "include_guided_in_sft"),
    (["--set", "sft.sft_learning_rate=0.25"], "train-sft", "sft_learning_rate"),
    (["--set", "dpo.dpo_epochs=61"], "train-dpo", "dpo_epochs"),
])
def test_a_resume_refuses_a_changed_setting_that_a_completed_phase_read(finished_run, tmp_path, capsys, change,
                                                                        phase, name):
    _, done, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done.dir, out)
    before = {file: (out / file).read_bytes() for file in ("manifest.json", "runstate.json")}
    assert main(["run-loop", "--output-dir", str(out), "--resume", *SMALL_ARGV, *change]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: phase {phase!r} completed with {name}=") and "Traceback" not in err
    assert {file: (out / file).read_bytes() for file in before} == before


def test_a_run_that_failed_at_guide_resumes_with_another_teacher(finished_run, tmp_path, monkeypatch):
    """A setting only phases not yet completed read may change: the README's fix-the-teacher-and-resume flow."""
    import rlvrloop.loop as loop

    config, done, _ = finished_run
    config = replace(config, output_dir=str(tmp_path / "run"), teacher_endpoint="http://127.0.0.1:9/")

    def no_guidance(*args, **kwargs):
        raise GuidanceError("the teacher answered nothing usable")

    monkeypatch.setattr(loop, "guide_failures", no_guidance)
    with pytest.raises(PhaseError, match="guide"):
        run_loop(config)
    monkeypatch.undo()
    run_loop(replace(config, teacher_endpoint=""), resume=True)
    for file in ARTIFACTS.values():
        assert (tmp_path / "run" / file).read_bytes() == (done.dir / file).read_bytes(), file


def test_a_run_state_that_records_no_settings_cannot_resume(finished_run, tmp_path, capsys):
    _, done, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done.dir, out)
    state = json.loads((out / "runstate.json").read_text())
    del state["settings"]
    (out / "runstate.json").write_text(json.dumps(state) + "\n")
    assert main(["run-loop", "--output-dir", str(out), "--resume", *SMALL_ARGV]) == 1
    assert "records no settings for phase 'tasks'" in capsys.readouterr().err


def test_every_setting_but_the_run_directory_and_worker_count_is_declared_by_a_phase():
    declared = [name for phase in PHASE_TABLE for name in phase.settings]
    assert set(declared) == {f.name for f in fields(RunConfig)} - {"output_dir", "workers"}
    for phase in PHASE_TABLE:
        assert len(set(phase.settings)) == len(phase.settings), phase.name


def test_each_phase_takes_its_inputs_and_exactly_the_settings_its_resume_checks():
    """A phase function takes its input values positionally and its settings as keyword-only parameters named as
    the RunConfig fields, never the RunConfig; a row's settings are those parameters but workers."""
    field_names = {f.name for f in fields(RunConfig)}
    for phase in (*PHASE_TABLE, *RM_TABLE):
        parameters = inspect.signature(phase.fn).parameters.values()
        positional = [p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD]
        keywords = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY and p.default is p.empty}
        assert len(positional) == len(phase.inputs) + len(phase.optional), phase.name
        assert keywords <= field_names and set(setting_parameters(phase.fn)) == keywords, phase.name
        assert set(phase.settings) == keywords - {"workers"}, phase.name
    # the sets each row declared by hand before its settings came from its function
    assert {phase.name: set(phase.settings) for phase in (*PHASE_TABLE, *RM_TABLE)} == {
        "tasks": {"tasks_path", "synth_count", "synth_lines", "synth_candidates", "seed", "initial_policy"},
        "rollout": {"rollouts_n", "seed", "max_tokens", "backend_endpoint"},
        "evaluate": set(),
        "guide": {"guidance_enabled", "teacher_endpoint"},
        "reattempt": {"seed", "max_tokens", "backend_endpoint"},
        "evaluate-guided": set(),
        "assemble": {"sft_fraction", "max_pairs_per_task", "include_guided_in_sft", "seed"},
        "train-sft": {"sft_learning_rate", "sft_epochs"},
        "train-dpo": {"dpo_beta", "dpo_learning_rate", "dpo_epochs"},
        "final-eval": {"backend_endpoint", "seed", "rollouts_n", "max_tokens"},
        "report": {"seed"},
        "train-rm": set(),
        "rank": set(),
    }


def test_a_resume_with_another_worker_count_changes_no_artifact(finished_run, tmp_path):
    """workers is the one setting outside the resume check: it changes no byte, so a resume may change it."""
    _, done, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done.dir, out)
    assert main(["run-loop", "--output-dir", str(out), "--resume", *SMALL_ARGV, "--set", "run.workers=3"]) == 0
    for file in (*ARTIFACTS.values(), "runstate.json"):
        assert (out / file).read_bytes() == (done.dir / file).read_bytes(), file
    assert json.loads((out / "manifest.json").read_text())["config"]["workers"] == 3


def test_training_phases_leave_their_input_policy_alone(finished_run):
    config, done, _ = finished_run
    dataset = read_artifact("dataset", done.dataset)
    for phase, made, policy_file in ((train_sft, done.policy_sft, done.policy_init),
                                     (train_dpo, done.policy_final, done.policy_sft)):
        policy = read_artifact(policy_file.stem, policy_file)
        before = policy.theta().tobytes()
        trained, _ = phase(policy, dataset, **{name: getattr(config, name) for name in setting_parameters(phase)})
        assert policy.theta().tobytes() == before
        assert trained.theta().tobytes() == TabularPolicy.load(made).theta().tobytes() != before


def test_resume_refuses_an_edited_missing_or_unhashed_output(finished_run, tmp_path, capsys):
    _, done, _ = finished_run
    out = tmp_path / "run"
    shutil.copytree(done.dir, out)
    argv = ["run-loop", "--output-dir", str(out), "--resume", *SMALL_ARGV]
    assert main(argv) == 0  # untouched outputs verify, and the manifest is rewritten
    capsys.readouterr()

    paths = RunPaths(out)
    rewards = paths.rewards.read_bytes()
    assert b'"reward":0' in rewards
    paths.rewards.write_bytes(rewards.replace(b'"reward":0', b'"reward":1', 1))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rewards.jsonl is missing or changed" in err
    paths.rewards.write_bytes(rewards)

    paths.guidance.unlink()
    assert main(argv) == 1
    assert "guidance.jsonl is missing or changed" in capsys.readouterr().err
    shutil.copy(done.guidance, paths.guidance)

    # a run state without per-output hashes cannot vouch for any file
    completed = json.loads(paths.state.read_text())["completed"]
    paths.state.write_text(json.dumps({"completed": completed}) + "\n")
    assert main(argv) == 1
    assert "records no hash for tasks.jsonl" in capsys.readouterr().err


def test_a_run_loads_neither_numpy_random_nor_openssl(tmp_path):
    """rollout -> evaluate -> rewards file -> rank -> aggregate loads neither numpy.random (the bootstrap
    draws its own SplitMix64 stream) nor _hashlib (derive_seed hashes with the builtin sha256); a run-loop at
    the reference config, which hashes its artifacts for the manifest, loads no numpy.random either."""
    script = f"""
import sys
from rlvrloop.backends import TabularPolicyBackend
from rlvrloop.evaluator import read_rewards, write_rewards
from rlvrloop.loop import RunConfig, evaluate_trajectories, rollout_all_tasks, run_loop
from rlvrloop.metrics import aggregate
from rlvrloop.policy import TabularPolicy
from rlvrloop.reward_model import PairwiseRM, rank_best_of_k
from rlvrloop.tasks import generate_synth_suite

suite = generate_synth_suite(16, 4, 4, 3)
trajs = rollout_all_tasks(suite, TabularPolicyBackend(TabularPolicy.uniform(suite)), 8, 0, workers=1)
write_rewards(evaluate_trajectories(suite, trajs, workers=1), {str(tmp_path / "rewards.jsonl")!r})
records = read_rewards({str(tmp_path / "rewards.jsonl")!r})
rewards = {{r.trajectory_ref: r.reward for r in records}}
picks = {{t.id: rank_best_of_k(PairwiseRM(), t.issue, [x.patch for x in trajs if x.task_id == t.id]) for t in suite}}
selections = {{tid: rewards[[x for x in trajs if x.task_id == tid][p.selected_index].traj_id] for tid, p in picks.items()}}
report = aggregate(trajs, records, selections=selections, bootstrap_seed=5)
assert report.totals["tasks"] == 16  # so the bootstrap drew (1000, 16) indices
print(sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules))
run_loop(RunConfig(output_dir={str(tmp_path / "run")!r}, workers=1))
print(sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules))
"""
    out = run_python(script)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "['_hashlib']"]
