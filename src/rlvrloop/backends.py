"""Policy backends: anything that turns a prompt into a completion's text.

The engine only relies on the generate() and generate_batch() contract plus
a concurrency limit, so a desk-scale tabular policy and a remote
text-generation endpoint are interchangeable. The tabular backend is
deterministic for a fixed (prompt, params); a remote one need not be.
"""
from __future__ import annotations

import bisect
import contextlib
import json
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import prompts
from .errors import BackendError, TrainingError
from .jsonl import record, splitmix64
from .policy import TabularPolicy, softmax

# The tolerance a CDF allows on sum(p) before _draw raises: a softmax further from 1 is not a distribution.
_P_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

_U11 = np.uint64(11)


@record
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
    """Base contract. Subclasses override generate(), and generate_batch() when a batch is cheaper."""

    backend_id: str = "base"
    max_concurrency: int | None = None  # None means no declared limit

    def generate(self, prompt: str, params: SamplingParams) -> str:
        raise NotImplementedError

    def generate_batch(self, requests: list[tuple[str, SamplingParams]], workers: int = 1) -> list:
        """For each (prompt, params) request, in order, its completion text or the BackendError
        its last retry raised; other errors propagate. Runs on min(workers, max_concurrency) threads."""
        return call_batch(partial(call_with_retry, self.generate), requests, workers, self.max_concurrency)


class TabularPolicyBackend(PolicyBackend):
    """Reads scaffold prompts and answers from a frozen copy of a TabularPolicy.

    Localization samples a statement index from the line softmax; repair
    samples a candidate index conditioned on the statement named in the
    prompt. A hint block naming a statement restricts the localization
    action space to that statement, which is the desk-scale mechanization
    of "the model may follow the hint".

    The copy is taken at construction, so a policy trained afterwards needs
    a new backend (the loop builds one per phase). Each distinct (logits,
    temperature) softmax is turned once into its cumulative distribution,
    normalised so its last entry is 1, which every (task, line or None for
    the line distribution, temperature) with those logits shares. A sampled
    request draws bisect_right(cdf, u_i), where u_i = (z_i >> 11) * 2**-53
    and z_i is splitmix64's output at counter i from the request's own seed
    (mod 2**64), which both steps of an attempt share: a localization draws
    at counter 1, a repair at 2, and a whole-program repair its statement at
    2 and its candidate at 3. generate_batch takes every sampled request's
    draws from one splitmix64 call; generate() is a batch of one.
    Temperature 0 is the argmax of the logits. Each distinct prompt is
    parsed once. A prompt naming a task the policy has no head for raises
    the policy's TrainingError, which no retry can mend.

    Generation is in-process and holds the GIL, so its max_concurrency of 1
    keeps it off thread pools, which would only add overhead.
    """

    backend_id = "tabular"
    max_concurrency = 1

    def __init__(self, policy: TabularPolicy):
        self.policy = policy.frozen()
        self._cdfs: dict[tuple[str, int | None, float], list[float]] = {}
        self._cdfs_by_content: dict[tuple[bytes, float], list[float]] = {}
        self._parsed: dict[str, tuple[str | None, str, int | None]] = {}

    def generate(self, prompt: str, params: SamplingParams) -> str:
        [completion] = self.generate_batch([(prompt, params)])
        if isinstance(completion, BackendError):
            raise completion
        return completion

    def generate_batch(self, requests: list[tuple[str, SamplingParams]], workers: int = 1) -> list:
        out: list = []
        pending = []  # (index in out, task_id, step, line, temperature) of each request still to answer
        seeds, firsts = [], []  # the seed (mod 2**64) and first counter of each pending request that samples
        for prompt, params in requests:
            parsed = self._parsed.get(prompt)
            if parsed is None:
                parsed = self._parsed[prompt] = prompts.parse_prompt(prompt)
            task_id, step, line = parsed
            if task_id is None:
                out.append(BackendError(f"{self.backend_id}: prompt names no task"))
                continue
            head = self.policy.head(task_id)
            if step == prompts.LOC_STEP and line is not None and 0 <= line < head.line_logits.size:
                out.append(prompts.format_line_completion(line))  # the hinted statement
            elif step == prompts.REPAIR_STEP and line is None:
                out.append(BackendError(f"{self.backend_id}: repair prompt names no statement"))
            else:
                pending.append((len(out), task_id, step, line, params.temperature))
                if params.temperature:
                    seeds.append(params.seed % 2**64)
                    firsts.append(1 if step == prompts.LOC_STEP else 2)
                out.append(None)
        whole = any(step == prompts.WHOLE_REPAIR_STEP for _, _, step, _, temperature in pending if temperature)
        offsets = np.arange(2 if whole else 1, dtype=np.uint64)  # a whole-program repair draws twice
        z = splitmix64(np.array(seeds, dtype=np.uint64)[:, None], np.array(firsts, dtype=np.uint64)[:, None] + offsets)
        draws = iter(((z >> _U11) * 2.0**-53).tolist())
        for i, task_id, step, line, temperature in pending:
            uniforms = iter(next(draws)) if temperature else None
            if step == prompts.LOC_STEP:
                out[i] = prompts.format_line_completion(self._draw(task_id, None, temperature, uniforms))
            elif step == prompts.WHOLE_REPAIR_STEP:
                line = self._draw(task_id, None, temperature, uniforms)
                cand = self._draw(task_id, line, temperature, uniforms)
                out[i] = prompts.format_line_candidate_completion(line, cand)
            else:
                out[i] = prompts.format_candidate_completion(self._draw(task_id, line, temperature, uniforms))
        return out

    def _draw(self, task_id: str, line: int | None, temperature: float, uniforms) -> int:
        """A statement index (line None) or a candidate index at line: the argmax when uniforms is None."""
        head = self.policy.heads[task_id]
        if line is not None and not 0 <= line < head.cand_logits.shape[0]:
            raise TrainingError(f"{task_id}: line {line} outside policy table")
        logits = head.line_logits if line is None else head.cand_logits[line]
        if uniforms is None:
            return int(np.argmax(logits))
        key = (task_id, line, temperature)
        cdf = self._cdfs.get(key)
        if cdf is None:
            # Equal heads, a uniform policy's say, share one list; softmax reads the logits as float64.
            content = (np.asarray(logits, dtype=np.float64).tobytes(), temperature)
            cdf = self._cdfs_by_content.get(content)
            if cdf is None:
                p = softmax(logits, temperature)
                total = p.sum()
                if not abs(total - 1.0) <= _P_SUM_TOLERANCE:  # a NaN sum fails the comparison, so it raises too
                    raise ValueError(f"{task_id}: probabilities sum to {total}, not 1")
                c = p.cumsum()
                c /= c[-1]
                cdf = self._cdfs_by_content[content] = c.tolist()
            self._cdfs[key] = cdf
        return bisect.bisect_right(cdf, next(uniforms))


def call_batch(fn, items: list, workers: int, limit: int | None = None, errors=(BackendError,)) -> list:
    """For each argument tuple in items, in order, fn(*item) or the `errors` exception it raised.
    Any other exception propagates and stops the batch: the calls not yet started are never made.
    The calls run inline on one thread or for one item, else on one pool of min(workers, limit or workers) threads."""
    def one(item):
        try:
            return fn(*item)
        except errors as exc:
            return exc

    size = min(workers, limit or workers)
    if size <= 1 or len(items) <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=size) as pool:
        return list(pool.map(one, items))  # map cancels the calls not yet started when one raises


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
        exc.close()  # it holds the response, whose reader keeps the socket open until a cyclic collection
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

    Remote decoders may not honor seeds bit-exactly, so the trajectories a
    remote backend answers need not reproduce byte for byte. Only the
    stepwise rollout and reattempt commands call one: run-loop and
    final-eval refuse a set backend_endpoint before any call.
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
