import pytest

from rlvrloop.tasks import EnvSpec, Task, TestSuite, generate_synth_suite

RUNTESTS = """\
import app
print("PASS t_parse")
print("PASS t_value" if app.value() == 7 else "FAIL t_value")
"""


@pytest.fixture(scope="session")
def small_suite():
    """Six 4x4 tasks; shared by tests that only need any valid suite."""
    return generate_synth_suite(6, 4, 4, seed=11)


@pytest.fixture(scope="session")
def one_task(small_suite):
    return small_suite.tasks[0]


@pytest.fixture
def scripted_repo(tmp_path):
    """A real task over a throwaway repository whose focused test passes once value() returns 7, and its workspace."""
    ws = tmp_path / "repo"
    ws.mkdir()
    (ws / "app.py").write_text("def value():\n    return 3\n")
    (ws / "runtests.py").write_text(RUNTESTS)
    task = Task(
        id="real-1",
        issue="value() should return 7",
        workspace=str(ws),
        env_spec=EnvSpec((), "python3 runtests.py", 30.0, "process_sandbox"),
        tests=TestSuite(regression=("t_parse",), focused=("t_value",)),
        repo_name="scripted",
    )
    return task, ws
