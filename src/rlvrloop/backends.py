"""Policy backends: anything that turns a prompt into a completion's text.

The engine only relies on the generate() and generate_batch() contract plus
a concurrency limit, so a desk-scale tabular policy and a remote
text-generation endpoint are interchangeable. Local backends must be deterministic for a
fixed (prompt, params); remote ones are exempt, and the run manifest
records `backend_deterministic` as false when a backend endpoint is set.
"""
from __future__ import annotations

import bisect
import contextlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import prompts
from .errors import BackendError, TrainingError
from .jsonl import derive_seed
from .policy import TabularPolicy, softmax

# The tolerance numpy's Generator.choice allows on sum(p) before it raises.
_P_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

# From this many seeds on, one vectorised pass (about 300 us + 0.2 us a seed on a 2-vCPU
# x86_64 host, numpy 2.4) beats a numpy Generator per seed (13-18 us a seed).
PCG64_BATCH_MIN = 18


# numpy's SeedSequence and PCG64 (XSL-RR 128/64) constants (numpy/random/bit_generator.pyx, _pcg64.pyx).
# Hash step k multiplies by INIT * MULT**k, which depends only on k: both sequences are fixed.
_HASH_A = tuple(0x43B0D7E5 * pow(0x931E8875, k, 2**32) & 0xFFFFFFFF for k in range(17))  # mix_entropy
_HASH_B = tuple(0x8B51F9DD * pow(0x58F38DED, k, 2**32) & 0xFFFFFFFF for k in range(9))  # generate_state
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_M32, _U1, _U11, _U16, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (0xFFFFFFFF, 1, 11, 16, 32, 58, 63, 64))


def _seed_hash(value: np.ndarray, consts: tuple[int, ...], k: int) -> np.ndarray:
    """Hash step k of a SeedSequence, on uint32 values held in uint64."""
    value = (value ^ np.uint64(consts[k])) * np.uint64(consts[k + 1]) & _M32
    return value ^ value >> _U16


def pcg64_uniforms(seeds: list[int], k: int) -> list[list[float]]:
    """The first k Generator(PCG64(seed)).random() values of each seed below 2**64, bit for bit.

    Below PCG64_BATCH_MIN seeds numpy computes them; from there on numpy's
    per-seed steps (SeedSequence mixing, generate_state, PCG64 seeding and
    output) run once on arrays of all the seeds."""
    if len(seeds) < PCG64_BATCH_MIN:
        return [np.random.Generator(np.random.PCG64(s)).random(k).tolist() for s in seeds]
    s = np.array(seeds, dtype=np.uint64)
    zero = np.zeros_like(s)
    # A seed is its little-endian uint32 words; one below 2**32 mixes as [lo, 0].
    pool = [_seed_hash(w, _HASH_A, i) for i, w in enumerate((s & _M32, s >> _U32, zero, zero))]
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for h, (src, dst) in enumerate(pairs, start=4):
        x = _MIX_L * pool[dst] - _MIX_R * _seed_hash(pool[src], _HASH_A, h) & _M32
        pool[dst] = x ^ x >> _U16
    words = [_seed_hash(pool[i % 4], _HASH_B, i) for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = (words[2 * i] | words[2 * i + 1] << _U32 for i in range(4))
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    # PCG64 seeding: state 0 stepped once is inc; add the initial state; step again (j = 0 below)
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < inc_lo)
    out = np.empty((len(seeds), k))
    m0, m1 = _PCG_LO & _M32, _PCG_LO >> _U32
    for j in range(k + 1):
        # (hi, lo) * multiplier mod 2**128, with lo * _PCG_LO's high word from 32-bit halves
        l0, l1 = lo & _M32, lo >> _U32
        p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
        carry = (p00 >> _U32) + (p01 & _M32) + (p10 & _M32)
        hi = l1 * m1 + (p01 >> _U32) + (p10 >> _U32) + (carry >> _U32) + lo * _PCG_HI + hi * _PCG_LO
        product = lo * _PCG_LO
        lo = product + inc_lo
        hi = hi + inc_hi + (lo < product)
        if j:
            x, rot = hi ^ lo, hi >> _U58
            x = x >> rot | x << (_U64 - rot & _U63)
            out[:, j - 1] = (x >> _U11) * (1.0 / 9007199254740992.0)
    return out.tolist()


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
    """Base contract. Subclasses override generate(), and generate_batch() when a batch is cheaper."""

    backend_id: str = "base"
    max_concurrency: int | None = None  # None means no declared limit

    def generate(self, prompt: str, params: SamplingParams) -> str:
        raise NotImplementedError

    def generate_batch(self, requests: list[tuple[str, SamplingParams]], workers: int = 1) -> list:
        """For each (prompt, params) request, in order, its completion text or the BackendError
        its last retry raised; other errors propagate. Runs on min(workers, max_concurrency) threads."""
        def one(request):
            try:
                return call_with_retry(self.generate, *request)
            except BackendError as exc:
                return exc

        size = min(workers, self.max_concurrency or workers)
        if size <= 1 or len(requests) <= 1:
            return [one(request) for request in requests]
        with ThreadPoolExecutor(max_workers=size) as pool:
            return list(pool.map(one, requests))


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
    (backend_id, task_id, seed): the same index rng.choice(len(p), p=p)
    returns, bit for bit, which tests/test_backends.py checks against that
    call. generate_batch takes every sampled request's uniforms from one
    pcg64_uniforms call; generate() is a batch of one. Temperature 0 is the
    argmax of the logits. Each distinct prompt is parsed once. A prompt
    naming a task the policy has no head for raises the policy's
    TrainingError, which no retry can mend.

    Generation is in-process and holds the GIL, so its max_concurrency of 1
    keeps it off thread pools, which would only add overhead.
    """

    backend_id = "tabular"
    max_concurrency = 1

    def __init__(self, policy: TabularPolicy):
        self.policy = policy.frozen()
        self._cdfs: dict[tuple[str, int | None, float], list[float]] = {}
        self._parsed: dict[str, tuple[str | None, str, int | None]] = {}

    def generate(self, prompt: str, params: SamplingParams) -> str:
        [completion] = self.generate_batch([(prompt, params)])
        if isinstance(completion, BackendError):
            raise completion
        return completion

    def generate_batch(self, requests: list[tuple[str, SamplingParams]], workers: int = 1) -> list:
        out: list = []
        pending = []  # (index in out, task_id, step, line, temperature) of each request still to answer
        seeds = []  # the generator seed of each pending request that samples
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
                    seeds.append(derive_seed(self.backend_id, task_id, params.seed))
                out.append(None)
        whole = any(step == prompts.WHOLE_REPAIR_STEP for _, _, step, _, temperature in pending if temperature)
        draws = iter(pcg64_uniforms(seeds, 2 if whole else 1))
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
            p = softmax(logits, temperature)
            total = p.sum()
            if not abs(total - 1.0) <= _P_SUM_TOLERANCE:  # a NaN sum fails the comparison, so it raises too
                raise ValueError(f"{task_id}: probabilities sum to {total}, not 1")
            c = p.cumsum()
            c /= c[-1]
            cdf = self._cdfs[key] = c.tolist()
        return bisect.bisect_right(cdf, next(uniforms))


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
