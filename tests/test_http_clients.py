"""The remote policy and teacher clients against a local HTTP server."""
import gc
import json
import socket
import threading
from collections import Counter
from functools import partial
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from doubles import guidance_to_text
from rlvrloop.backends import HttpPolicyBackend, SamplingParams, call_batch, call_with_retry
from rlvrloop.cli import main
from rlvrloop.errors import BackendError
from rlvrloop.evaluator import EvaluationFailure
from rlvrloop.guidance import Guidance, HttpTeacherBackend
from rlvrloop.loop import ARTIFACTS, PHASE_TABLE, PHASES, RunPaths, read_artifact
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


class Handler(BaseHTTPRequestHandler):
    """/ok echoes the prompt, /down answers 503, /bare answers 200 without a completion, /empty answers 204;
    /policy and /teacher answer the scripted real task as scripted_policy and TEACHER_REPLY say."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append(body)
        if self.path == "/policy":
            status, reply = 200, {"completion": scripted_policy(body)}
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


@pytest.fixture
def server(monkeypatch):
    # the requests must reach 127.0.0.1 directly, whatever proxy the host names
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("NO_PROXY", "*")
    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    httpd.requests = []
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield httpd, f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join()


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
