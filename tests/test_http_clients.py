"""The remote policy and teacher clients against a local HTTP server."""
import dataclasses
import gc
import json
import random
import shlex
import socket
import sys
import threading
import time
from collections import Counter
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

from doubles import guidance_to_text
from rlvrloop.backends import HttpPolicyBackend, SamplingParams, TabularPolicyBackend, call_batch, call_with_retry
from rlvrloop.cli import main
from rlvrloop.errors import BackendError
from rlvrloop.evaluator import EvaluationFailure
from rlvrloop.guidance import Guidance, HttpTeacherBackend
from rlvrloop.loop import (
    ARTIFACTS,
    PHASE_TABLE,
    PHASES,
    RunPaths,
    evaluate_trajectories,
    guide_failures,
    read_artifact,
    rollout_all_tasks,
)
from rlvrloop.policy import TabularPolicy
from rlvrloop.prompts import HINT_DELIMITER
from rlvrloop.tasks import TaskDataset, save_tasks


# The teacher's reply at /teacher: the scripted repository's defect is app.py's line 1.
TEACHER_REPLY = guidance_to_text(Guidance(
    "", "", "", "Make value() return 7.", "t_value fails: value() returns 3.", "open app.py at line 1", ""
))


def scripted_policy(body: dict) -> str:
    """The /policy answer for the scripted real task: a greedy or hinted localization names app.py, a sampled
    unhinted one a file the workspace lacks; a repair of app.py is the fix, any other repair no edit block."""
    prompt = body["prompt"]
    if "Identify the files" in prompt:
        found = body["temperature"] == 0 or HINT_DELIMITER in prompt
        return f"```\nFILES:\n{'app.py' if found else 'notes.py'}\n```"
    if "Files under repair:\napp.py\n" in prompt:
        return "```\nEDIT: app.py:1:2\n    return 7\nEND EDIT\n```"
    return "I could not find the defect."


def seeded_policy(body: dict) -> str:
    """The /seeded answer for the scripted real task: every localization names app.py, and every repair makes
    value() return 7 (an odd seed) or 3 (an even one), tagged with the request's seed in a comment."""
    if "Identify the files" in body["prompt"]:
        return "```\nFILES:\napp.py\n```"
    return f"```\nEDIT: app.py:1:2\n    return {7 if body['seed'] % 2 else 3}  # {body['seed']}\nEND EDIT\n```"


class Handler(BaseHTTPRequestHandler):
    """/ok echoes the prompt, /down answers 503, /bare answers 200 without a completion, /empty answers 204;
    /policy, /seeded and /teacher answer the scripted real task as scripted_policy, seeded_policy and TEACHER_REPLY
    say. Each answer waits the server's `delay_s` first, 0 unless a test sets it."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append(body)
        time.sleep(self.server.delay_s)
        if self.path == "/policy":
            status, reply = 200, {"completion": scripted_policy(body)}
        elif self.path == "/seeded":
            status, reply = 200, {"completion": seeded_policy(body)}
        elif self.path == "/teacher":
            status, reply = 200, {"completion": TEACHER_REPLY}
        else:
            status, reply = {
                "/ok": (200, {"completion": "echo " + body["prompt"], "ignored": 1}),
                "/down": (503, {"error": "overloaded"}),
                "/bare": (200, {"text": "no completion field"}),
                "/empty": (204, None),
            }[self.path]
        data = b"" if reply is None else json.dumps(reply).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def serve(monkeypatch, server_class):
    # the requests must reach 127.0.0.1 directly, whatever proxy the host names
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("NO_PROXY", "*")
    httpd = server_class(("127.0.0.1", 0), Handler)
    httpd.requests, httpd.delay_s = [], 0
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield httpd, f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join()


@pytest.fixture
def server(monkeypatch):
    yield from serve(monkeypatch, HTTPServer)


@pytest.fixture
def threaded_server(monkeypatch):
    """A server that answers each request on its own thread."""
    yield from serve(monkeypatch, ThreadingHTTPServer)


PARAMS = SamplingParams(temperature=0.7, seed=5, max_tokens=32)


def test_policy_backend_posts_the_wire_request(server):
    httpd, url = server
    completion = HttpPolicyBackend(url + "/ok", timeout_s=5).generate("fix it", PARAMS)
    assert completion == "echo fix it"
    assert httpd.requests == [{"prompt": "fix it", "temperature": 0.7, "seed": 5, "max_tokens": 32}]


def test_policy_backend_errors(server):
    _, url = server
    with pytest.raises(BackendError, match="remote: HTTP 503"):
        HttpPolicyBackend(url + "/down", timeout_s=5).generate("p", PARAMS)
    with pytest.raises(BackendError, match="remote: malformed response"):
        HttpPolicyBackend(url + "/bare", timeout_s=5).generate("p", PARAMS)
    with pytest.raises(BackendError, match="remote: HTTP 204"):  # a success without a body is no completion
        HttpPolicyBackend(url + "/empty", timeout_s=5).generate("p", PARAMS)


def test_teacher_backend_round_trip_and_errors(server):
    httpd, url = server
    assert HttpTeacherBackend(url + "/ok", timeout_s=5).generate_guidance_text("help") == "echo help"
    assert httpd.requests == [{"prompt": "help"}]
    with pytest.raises(BackendError, match="remote-teacher: HTTP 503"):
        HttpTeacherBackend(url + "/down", timeout_s=5).generate_guidance_text("help")
    with pytest.raises(BackendError, match="remote-teacher: malformed response"):
        HttpTeacherBackend(url + "/bare", timeout_s=5).generate_guidance_text("help")


def client_sockets_still_open(port: int) -> list:
    """The open sockets among all objects that are connected to port: the client ends of its connections."""
    found = []
    for obj in gc.get_objects():
        if isinstance(obj, socket.socket) and obj.fileno() != -1:
            try:
                peer = obj.getpeername()
            except OSError:  # the listening socket, or one no longer connected
                continue
            if peer[1] == port:
                found.append(obj)
    return found


def test_error_replies_on_the_pool_path_leave_no_socket_open(server):
    """A non-200 reply's HTTPError holds the response; sent from the pool it ends up in a reference cycle, and
    unless the client closes it, its socket stays open until the cyclic collector runs."""
    httpd, url = server
    teacher = HttpTeacherBackend(url + "/down", timeout_s=5)
    gc.disable()  # no cyclic collection between the requests and the count
    try:
        results = call_batch(partial(call_with_retry, teacher.generate_guidance_text), [("help",)] * 4, 4)
        leaked = client_sockets_still_open(httpd.server_port)
    finally:
        gc.enable()
    assert [str(r) for r in results] == ["remote-teacher: HTTP 503"] * 4
    for sock in leaked:
        sock.close()
    assert not leaked


def test_unreachable_teacher_is_an_infrastructure_failure(server, tmp_path, capsys):
    """Each failed attempt's teacher request is tried three times and costs its guidance record; the run completes."""
    httpd, url = server
    out = tmp_path / "run"
    argv = ["run-loop", "--output-dir", str(out), "--seed", "3"]
    for item in ("run.workers=1", "run.rollouts_n=4", "tasks.synth_count=3",
                 "tasks.synth_lines=3", "tasks.synth_candidates=3",
                 f"teacher.teacher_endpoint={url}/down"):
        argv += ["--set", item]
    assert main(argv) == 3
    failed = sum(r.reward == 0 for r in read_artifact("rewards", RunPaths(out).rewards))
    err = capsys.readouterr().err
    assert f"run completed with {failed} infrastructure errors" in err and "Traceback" not in err
    assert json.loads(RunPaths(out).manifest.read_text())["infra_errors"] == failed > 0
    assert len(httpd.requests) == 3 * failed
    assert all(isinstance(g, EvaluationFailure) for g in read_artifact("guidance", RunPaths(out).guidance))


def test_run_loop_refuses_a_remote_policy_before_calling_it(server, tmp_path, capsys):
    """run-loop trains the tabular policy, so a remote one would be reported as trained: refused, 0 requests."""
    httpd, url = server
    out = tmp_path / "run"
    argv = ["run-loop", "--output-dir", str(out), "--set", "tasks.synth_count=2",
            "--set", f"backend.backend_endpoint={url}/ok"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "backend_endpoint" in err and "Traceback" not in err
    assert httpd.requests == [] and not out.exists()


def test_stepwise_final_eval_refuses_a_remote_policy(server, tmp_path, capsys):
    httpd, url = server
    sets = ["--set", "tasks.synth_count=2", "--set", "tasks.synth_lines=3", "--set", "tasks.synth_candidates=3"]
    tasks, policy = str(tmp_path / "tasks.jsonl"), str(tmp_path / "policy.json")
    assert main(["tasks", *sets, "--tasks", tasks, "--policy-init", policy]) == 0
    outs = [str(tmp_path / "eval_rollouts.jsonl"), str(tmp_path / "eval_rewards.jsonl")]
    argv = ["final-eval", *sets, "--set", f"backend.backend_endpoint={url}/ok", "--tasks", tasks,
            "--policy-final", policy, "--eval-rollouts", outs[0], "--eval-rewards", outs[1]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "final-eval measures the trained policy" in err and "Traceback" not in err
    assert httpd.requests == []
    assert not any(Path(o).exists() or Path(o + ".partial").exists() for o in outs)


def test_stepwise_real_task_reaches_assemble_and_each_attempt_sends_its_seed(server, scripted_repo, tmp_path):
    """The stepwise tasks through assemble on a real task, with a remote policy and teacher: 4 rollouts (the greedy
    one fixes the task, the 3 sampled ones name a missing file and give no edit), 3 guided fixes; both wire
    requests of every attempt carry the seed its trajectory records."""
    httpd, url = server
    task, _ = scripted_repo
    save_tasks(TaskDataset((task,)), tmp_path / "suite.jsonl")
    sets = [f"tasks.tasks_path={tmp_path / 'suite.jsonl'}", "run.rollouts_n=4", "run.workers=1",
            f"backend.backend_endpoint={url}/policy", f"teacher.teacher_endpoint={url}/teacher"]
    for phase in PHASE_TABLE[:PHASES.index("assemble") + 1]:
        argv = [phase.name, "--seed", "0", *(a for item in sets for a in ("--set", item))]
        for artifact in (*phase.inputs, *phase.outputs):
            argv += ["--" + artifact.replace("_", "-"), str(tmp_path / ARTIFACTS[artifact])]
        assert main(argv) == 0, phase.name

    def read(name):
        return read_artifact(name, tmp_path / ARTIFACTS[name])

    rollouts, guided = read("rollouts"), read("guided_rollouts")
    fix = (("app.py:1:2", "    return 7"),)
    assert [t.patch and t.patch.edits for t in rollouts] == [fix, None, None, None]
    assert rollouts[0].patch.rendering == "--- app.py [1:2)\n+    return 7"
    assert [r.reward for r in read("rewards")] == [1, 0, 0, 0]
    assert [g.source_trajectory_ref for g in read("guidance")] == [t.traj_id for t in rollouts[1:]]
    assert [t.patch.edits for t in guided] == [fix] * 3
    assert [r.reward for r in read("guided_rewards")] == [1] * 3
    accounting = read("dataset").accounting
    assert {key: accounting[key] for key in ("rollout_pairs", "guided_repair_pairs", "pairs_total", "positives_total",
                                             "negatives_total", "guided_successes", "sft_examples")} == {
        "rollout_pairs": 3, "guided_repair_pairs": 3, "pairs_total": 6, "positives_total": 1, "negatives_total": 3,
        "guided_successes": 3, "sft_examples": 1}
    # one localization and one repair request per attempt, each with the attempt's seed and temperature
    sent = Counter((b["prompt"], b["seed"], b["temperature"]) for b in httpd.requests if "seed" in b)
    assert sent == Counter(
        (step.prompt, t.sampling.seed, t.sampling.temperature) for t in rollouts + guided for step in t.steps
    )
    assert len({t.sampling.seed for t in rollouts + guided}) == 7
    assert sum("seed" not in b for b in httpd.requests) == 3  # one teacher request per failure


def test_guide_on_four_threads_takes_at_most_four_tenths_of_the_time_on_one(threaded_server, small_suite):
    """Eight failures' guidance from a teacher that takes 50 ms per answer: on 4 threads the same guidance as on 1,
    in at most 0.4 of the time (ideally a quarter)."""
    httpd, url = threaded_server
    httpd.delay_s = 0.05
    trajectories = rollout_all_tasks(small_suite, TabularPolicyBackend(TabularPolicy.uniform(small_suite)), 4, 0)
    records = evaluate_trajectories(small_suite, trajectories, workers=1)
    failed = [r for r in records if r.reward == 0][:8]
    assert len(failed) == 8
    teacher = HttpTeacherBackend(url + "/teacher", timeout_s=5)
    runs = {}
    for workers in (1, 4):
        started = time.perf_counter()
        guidance = guide_failures(small_suite, trajectories, failed, teacher, workers=workers)
        runs[workers] = guidance, time.perf_counter() - started
    assert runs[1][0] == runs[4][0] and all(isinstance(g, Guidance) for g in runs[1][0])
    assert len(httpd.requests) == 16
    assert runs[4][1] <= 0.4 * runs[1][1], runs


FAULT_CHECK = """\
import sys
seed = open("app.py").read().split("# ")[1].split()[0]
sys.exit(seed in open(sys.argv[1]).read().split())
"""


def test_a_sandbox_failure_costs_only_its_own_reward_record(server, scripted_repo, tmp_path):
    """Stepwise tasks, rollout and evaluate on a real task whose setup command fails for a drawn set of attempts,
    keyed by the seed each attempt's patch carries, so the evaluation pool cannot change which fail: each of those
    attempts gets its infrastructure_error line and every other record equals the fault-free run's."""
    _, url = server
    task, _ = scripted_repo
    check, faults = tmp_path / "fault_check.py", tmp_path / "faults.txt"
    check.write_text(FAULT_CHECK)
    faults.write_text("")
    setup = f"{shlex.quote(sys.executable)} {shlex.quote(str(check))} {shlex.quote(str(faults))}"
    task = dataclasses.replace(task, env_spec=dataclasses.replace(task.env_spec, setup_commands=(setup,)))
    save_tasks(TaskDataset((task,)), tmp_path / "suite.jsonl")
    sets = [f"tasks.tasks_path={tmp_path / 'suite.jsonl'}", "run.rollouts_n=6", "run.workers=4",
            f"backend.backend_endpoint={url}/seeded"]
    argv = ["--seed", "0", *(a for item in sets for a in ("--set", item))]
    d = {name: str(tmp_path / ARTIFACTS[name]) for name in ("tasks", "policy_init", "rollouts")}
    assert main(["tasks", *argv, "--tasks", d["tasks"], "--policy-init", d["policy_init"]]) == 0
    assert main(["rollout", *argv, "--tasks", d["tasks"], "--policy-init", d["policy_init"],
                 "--rollouts", d["rollouts"]]) == 0
    seeds = {t.traj_id: t.sampling.seed for t in read_artifact("rollouts", d["rollouts"])}

    def evaluate(faulted: set, out: Path) -> tuple[int, list]:
        faults.write_text("".join(f"{seeds[ref]}\n" for ref in faulted))
        code = main(["evaluate", *argv, "--tasks", d["tasks"], "--rollouts", d["rollouts"], "--rewards", str(out)])
        return code, read_artifact("rewards", out)

    code, expected = evaluate(set(), tmp_path / "rewards.jsonl")
    assert code == 0 and [r.reward for r in expected] == [seed % 2 for seed in seeds.values()]
    rng = random.Random(0)
    for i, faulted in enumerate([{next(iter(seeds))}, set(rng.sample(sorted(seeds), 3)), set(seeds)]):
        code, got = evaluate(faulted, tmp_path / f"faulted-{i}.jsonl")
        assert code == 3
        assert [r.trajectory_ref for r in got] == list(seeds)
        for want, record in zip(expected, got):
            if record.trajectory_ref in faulted:
                assert isinstance(record, EvaluationFailure) and "setup command" in record.infrastructure_error
            else:
                assert record == want
        lines = (tmp_path / f"faulted-{i}.jsonl").read_text().count('"infrastructure_error"')
        assert lines == len(faulted)
