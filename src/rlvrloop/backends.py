"""Policy backends: anything that turns a prompt into a completion's text.

The engine only relies on the generate() contract plus a concurrency
limit, so a desk-scale tabular policy and a remote text-generation
endpoint are interchangeable. Local backends must be deterministic for a
fixed (prompt, params); remote ones are exempt, and the run manifest
records `backend_deterministic` as false when a backend endpoint is set.
"""
from __future__ import annotations

import bisect
import contextlib
import json
from dataclasses import dataclass

import numpy as np

from . import prompts
from .errors import BackendError, TrainingError
from .jsonl import derive_seed
from .policy import TabularPolicy, softmax

# The tolerance numpy's Generator.choice allows on sum(p) before it raises.
_P_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class SamplingParams:
    temperature: float
    seed: int
    max_tokens: int = 256

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be > 0, got {self.max_tokens}")


class PolicyBackend:
    """Base contract. Subclasses override generate()."""

    backend_id: str = "base"
    max_concurrency: int | None = None  # None means no declared limit

    def generate(self, prompt: str, params: SamplingParams) -> str:
        raise NotImplementedError


class TabularPolicyBackend(PolicyBackend):
    """Reads scaffold prompts and answers from a frozen copy of a TabularPolicy.

    Localization samples a statement index from the line softmax; repair
    samples a candidate index conditioned on the statement named in the
    prompt. A hint block naming a statement restricts the localization
    action space to that statement, which is the desk-scale mechanization
    of "the model may follow the hint".

    The copy is taken at construction, so a policy trained afterwards needs
    a new backend (the loop builds one per phase). Each (task, line or None
    for the line distribution, temperature) softmax is turned once into
    the cumulative distribution numpy's Generator.choice builds, and a draw
    is bisect_right(cdf, rng.random()) on a generator seeded from
    (backend_id, task_id, seed) and built only when a draw is made: the
    same index rng.choice(len(p), p=p) returns, bit for bit, which
    tests/test_backends.py checks against that call. Temperature 0 is the
    argmax of the logits. Each distinct prompt is parsed once. A prompt
    naming a task the policy has no head for raises the policy's
    TrainingError, which no retry can mend.

    Generation is in-process and holds the GIL, so callers run it inline:
    a thread pool around it only adds overhead.
    """

    backend_id = "tabular"
    max_concurrency = 1

    def __init__(self, policy: TabularPolicy):
        self.policy = policy.frozen()
        self._cdfs: dict[tuple[str, int | None, float], list[float]] = {}
        self._parsed: dict[str, tuple[str | None, str, int | None]] = {}

    def generate(self, prompt: str, params: SamplingParams) -> str:
        parsed = self._parsed.get(prompt)
        if parsed is None:
            parsed = self._parsed[prompt] = prompts.parse_prompt(prompt)
        task_id, step, line = parsed
        if task_id is None:
            raise BackendError(f"{self.backend_id}: prompt names no task")
        head = self.policy.head(task_id)
        if step == prompts.LOC_STEP and line is not None:
            if 0 <= line < head.line_logits.size:  # the hinted statement
                return prompts.format_line_completion(line)
        temperature = params.temperature
        # np.random.default_rng(seed) is this generator, built without its argument checks
        rng = None if temperature == 0 else np.random.Generator(
            np.random.PCG64(derive_seed(self.backend_id, task_id, params.seed))
        )

        if step == prompts.LOC_STEP:
            return prompts.format_line_completion(self._draw(task_id, None, temperature, rng))

        if step == prompts.WHOLE_REPAIR_STEP:
            line = self._draw(task_id, None, temperature, rng)
            cand = self._draw(task_id, line, temperature, rng)
            return prompts.format_line_candidate_completion(line, cand)

        if line is None:
            raise BackendError(f"{self.backend_id}: repair prompt names no statement")
        return prompts.format_candidate_completion(self._draw(task_id, line, temperature, rng))

    def _draw(self, task_id: str, line: int | None, temperature: float, rng: np.random.Generator | None) -> int:
        """A statement index (line None) or a candidate index at line; rng is None at temperature 0."""
        head = self.policy.heads[task_id]
        if line is not None and not 0 <= line < head.cand_logits.shape[0]:
            raise TrainingError(f"{task_id}: line {line} outside policy table")
        logits = head.line_logits if line is None else head.cand_logits[line]
        if rng is None:
            return int(np.argmax(logits))
        key = (task_id, line, temperature)
        cdf = self._cdfs.get(key)
        if cdf is None:
            p = softmax(logits, temperature)
            total = p.sum()
            if not abs(total - 1.0) <= _P_SUM_TOLERANCE:  # a NaN sum fails the comparison, so it raises too
                raise ValueError(f"{task_id}: probabilities sum to {total}, not 1")
            c = p.cumsum()
            c /= c[-1]
            cdf = self._cdfs[key] = c.tolist()
        return bisect.bisect_right(cdf, rng.random())


def call_with_retry(fn, *args, max_retries: int = 2):
    """fn(*args), called again on BackendError up to max_retries times; the last error propagates."""
    for _ in range(max_retries):
        with contextlib.suppress(BackendError):
            return fn(*args)
    return fn(*args)


def post_completion(endpoint: str, payload: dict, timeout_s: float, who: str) -> str:
    """POST payload as JSON and return the reply's "completion" field.

    Every failure (no connection, a status other than 200, a body without
    a completion) raises BackendError, its message prefixed with `who`.
    """
    import http.client
    import urllib.error
    import urllib.request  # imported here: most runs never talk to an endpoint

    try:
        request = urllib.request.Request(
            endpoint,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        raise BackendError(f"{who}: HTTP {exc.code}") from exc
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise BackendError(f"{who}: request failed: {exc}") from exc
    if status != 200:
        raise BackendError(f"{who}: HTTP {status}")
    try:
        return str(json.loads(body)["completion"])
    except (ValueError, KeyError, TypeError) as exc:
        raise BackendError(f"{who}: malformed response: {exc}") from exc


class HttpPolicyBackend(PolicyBackend):
    """Client for the remote text-generation wire protocol.

    Request JSON:  {"prompt", "temperature", "seed", "max_tokens"}
    Response JSON: {"completion": str}; other fields are ignored.

    Remote decoders may not honor seeds bit-exactly; the run manifest marks
    a remote backend as non-deterministic.
    """

    backend_id = "remote"

    def __init__(self, endpoint: str, timeout_s: float = 60.0):
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def generate(self, prompt: str, params: SamplingParams) -> str:
        payload = {
            "prompt": prompt,
            "temperature": params.temperature,
            "seed": params.seed,
            "max_tokens": params.max_tokens,
        }
        return post_completion(self.endpoint, payload, self.timeout_s, self.backend_id)
