"""TabularPolicyBackend against the draw it replaced.

The oracle is the backend's former sampling path, kept here as the
definition of a tabular draw: a generator seeded from (backend_id, task_id,
seed), the temperature softmax, and numpy's rng.choice, with temperature 0
as the argmax and no draw for a localization whose hint names a statement.
The backend must return the same completion for every prompt kind.
"""
import numpy as np
import pytest

from rlvrloop import prompts
from rlvrloop.backends import (
    PCG64_BATCH_MIN,
    PCG64_JUMP_CHUNK,
    SamplingParams,
    TabularPolicyBackend,
    pcg64_integers,
    pcg64_uniforms,
)
from rlvrloop.errors import BackendError
from rlvrloop.guidance import Guidance, render_reattempt_prompt
from rlvrloop.jsonl import derive_seed
from rlvrloop.policy import TabularPolicy, softmax

TEMPERATURES = (0.0, 0.6, 1.0)


def oracle_generate(policy: TabularPolicy, prompt: str, params: SamplingParams) -> str:
    task_id, step, line = prompts.parse_prompt(prompt)
    head = policy.head(task_id)
    rng = np.random.default_rng(derive_seed("tabular", task_id, params.seed))

    def draw(logits) -> int:
        p = softmax(logits, params.temperature)
        if params.temperature == 0:
            return int(np.argmax(p))
        return int(rng.choice(len(p), p=p))

    if step == prompts.LOC_STEP:
        if line is not None and 0 <= line < head.line_logits.size:
            return prompts.format_line_completion(line)
        return prompts.format_line_completion(draw(head.line_logits))
    if step == prompts.WHOLE_REPAIR_STEP:
        line = draw(head.line_logits)
        return prompts.format_line_candidate_completion(line, draw(head.cand_logits[line]))
    return prompts.format_candidate_completion(draw(head.cand_logits[line]))


def hinted_prompt(task, line: int) -> str:
    guidance = Guidance(
        guidance_id="g-test",
        task_id=task.id,
        source_trajectory_ref="src-ref",
        plan="replace the defective statement",
        env_feedback="output_matches failed",
        env_interaction=f"line {line}",
        teacher_id="test",
    )
    return render_reattempt_prompt(prompts.render_localization_prompt(task), guidance)


def every_prompt(task) -> dict[str, str]:
    out = {
        "localization": prompts.render_localization_prompt(task),
        # a hint naming a statement is followed; one naming none is sampled past
        "hinted localization": hinted_prompt(task, task.buggy_line),
        "hint outside the program": hinted_prompt(task, task.n_lines + 3),
        "whole-workspace repair": prompts.render_repair_prompt(task, None),
    }
    for line in range(task.n_lines):
        out[f"repair of line {line}"] = prompts.render_repair_prompt(task, line)
    return out


def trained_like(suite, seed: int) -> TabularPolicy:
    policy = TabularPolicy.uniform(suite)
    rng = np.random.default_rng(seed)
    policy.set_theta(rng.normal(scale=3.0, size=policy.theta().size))
    return policy


@pytest.mark.parametrize("logits", ["uniform", "random"])
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_backend_draws_what_rng_choice_draws(small_suite, logits, temperature):
    policy = TabularPolicy.uniform(small_suite) if logits == "uniform" else trained_like(small_suite, 3)
    backend = TabularPolicyBackend(policy)
    compared = 0
    for task in small_suite.tasks[:3]:
        for kind, prompt in every_prompt(task).items():
            for seed in range(40):
                params = SamplingParams(temperature=temperature, seed=derive_seed("oracle", seed))
                expected = oracle_generate(policy, prompt, params)
                assert backend.generate(prompt, params) == expected, (task.id, kind, seed)
                compared += 1
    assert compared == 3 * (4 + 4) * 40


def test_backend_matches_rng_choice_over_many_random_distributions(small_suite):
    """Sharp, flat and lopsided heads at random temperatures, one fresh backend per policy."""
    task = small_suite.tasks[0]
    prompt_kinds = every_prompt(task)
    gen = np.random.default_rng(derive_seed("oracle", "sweep"))
    for trial in range(60):
        policy = TabularPolicy.uniform(small_suite)
        policy.set_theta(gen.normal(scale=gen.choice([0.1, 1.0, 10.0, 40.0]), size=policy.theta().size))
        backend = TabularPolicyBackend(policy)
        temperature = float(gen.uniform(0.05, 2.0))
        for kind, prompt in prompt_kinds.items():
            params = SamplingParams(temperature=temperature, seed=int(gen.integers(2**62)))
            assert backend.generate(prompt, params) == oracle_generate(policy, prompt, params), (trial, kind)


def test_equal_heads_share_one_cdf_and_draw_as_fresh_backends_do(small_suite):
    """Tasks 0-2 keep uniform heads, 3 and 4 get one trained head, 5 its own: equal heads share
    each CDF list, and the mixed batch draws what one fresh backend per task draws."""
    policy = trained_like(small_suite, 5)
    t = small_suite.tasks
    for task in t[:3]:
        policy.head(task.id).line_logits[:] = 0.0
        policy.head(task.id).cand_logits[:] = 0.0
    policy.head(t[4].id).line_logits[:] = policy.head(t[3].id).line_logits
    policy.head(t[4].id).cand_logits[:] = policy.head(t[3].id).cand_logits
    requests = [
        (prompt, SamplingParams(temperature=temperature, seed=derive_seed("mixed", seed)))
        for task in t for prompt in every_prompt(task).values() for temperature in TEMPERATURES for seed in range(3)
    ]
    backend = TabularPolicyBackend(policy)
    answers = backend.generate_batch(requests)
    per_task = [
        answer
        for task in t
        for answer in TabularPolicyBackend(policy).generate_batch(
            [(prompt, params) for prompt, params in requests if prompts.parse_prompt(prompt)[0] == task.id]
        )
    ]
    assert answers == per_task
    cdfs = backend._cdfs
    for temperature in (0.6, 1.0):
        uniform_lines = {id(cdfs[task.id, None, temperature]) for task in t[:3]}
        uniform_rows = {id(cdfs[task.id, line, temperature]) for task in t[:3] for line in range(task.n_lines)}
        assert len(uniform_lines) == len(uniform_rows) == 1  # a uniform line head and row are the same four zeros
        assert cdfs[t[3].id, None, temperature] is cdfs[t[4].id, None, temperature]
        assert cdfs[t[3].id, 2, temperature] is cdfs[t[4].id, 2, temperature]
        assert cdfs[t[3].id, None, temperature] is not cdfs[t[5].id, None, temperature]
        assert cdfs[t[3].id, None, temperature] != cdfs[t[5].id, None, temperature]
    assert cdfs[t[3].id, None, 0.6] != cdfs[t[3].id, None, 1.0]  # the temperature is part of the content


def test_nan_logits_still_raise_value_error(small_suite):
    task = small_suite.tasks[0]
    policy = TabularPolicy.uniform(small_suite)
    policy.head(task.id).line_logits[1] = np.nan
    policy.head(task.id).cand_logits[2, 0] = np.nan
    backend = TabularPolicyBackend(policy)
    params = SamplingParams(temperature=0.6, seed=1)
    for prompt in (prompts.render_localization_prompt(task), prompts.render_repair_prompt(task, 2)):
        with pytest.raises(ValueError):
            backend.generate(prompt, params)
        with pytest.raises(ValueError):  # a failed distribution is not cached
            backend.generate(prompt, params)
    # an untouched line still samples
    assert backend.generate(prompts.render_repair_prompt(task, 0), params).startswith("```")


def test_policy_changes_after_construction_do_not_reach_the_backend(small_suite):
    task = small_suite.tasks[0]
    policy = trained_like(small_suite, 5)
    before = policy.clone()
    backend = TabularPolicyBackend(policy)
    prompt_kinds = every_prompt(task)
    params = [SamplingParams(temperature=t, seed=s) for t in TEMPERATURES for s in range(20)]
    first = {(kind, p): backend.generate(prompt, p) for kind, prompt in prompt_kinds.items() for p in params}

    policy.head(task.id).line_logits[:] = [50.0, -50.0, -50.0, -50.0]
    policy.head(task.id).cand_logits[:] = -50.0
    policy.set_theta(policy.theta() + 7.0)
    for (kind, p), text in first.items():
        assert backend.generate(prompt_kinds[kind], p) == text, kind
        assert text == oracle_generate(before, prompt_kinds[kind], p), kind
    with pytest.raises(ValueError):  # the backend's copy is read-only
        backend.policy.head(task.id).line_logits[0] = 1.0


def test_sampling_respects_distribution(small_suite):
    policy = TabularPolicy.uniform(small_suite)
    task = small_suite.tasks[0]
    policy.head(task.id).line_logits[:] = np.array([10.0, 0.0, 0.0, 0.0])
    backend = TabularPolicyBackend(policy)
    prompt = prompts.render_localization_prompt(task)

    def line(temperature, seed):
        text = backend.generate(prompt, SamplingParams(temperature=temperature, seed=seed))
        return prompts.parse_line_completion(text)

    draws = [line(1.0, derive_seed("test", i)) for i in range(200)]
    assert draws.count(0) > 190
    assert line(0.0, 0) == 0


@pytest.mark.filterwarnings("error")
def test_pcg64_uniforms_are_numpys_draws_on_both_arms():
    """k successive Generator(PCG64(seed)).random() values, for k in 1..3, from the
    vectorised pass (one long batch) and from numpy (batches one short of the crossover)."""
    gen = np.random.default_rng(derive_seed("oracle", "pcg64"))
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1] + [int(s) for s in gen.integers(2**63, size=10_000, dtype=np.uint64)]
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    oracle = [[rng.random() for _ in range(3)] for rng in rngs]
    short = PCG64_BATCH_MIN - 1
    with np.errstate(all="raise"):
        for k in (1, 2, 3):
            expected = [row[:k] for row in oracle]
            assert pcg64_uniforms(seeds, k) == expected
            chunks = [pcg64_uniforms(seeds[i:i + short], k) for i in range(0, len(seeds), short)]
            assert [row for chunk in chunks for row in chunk] == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3, 64, 128, 1000, 2**31 - 1])
def test_pcg64_integers_are_numpys_int32_draws(n):
    """default_rng(seed).integers(0, n, size, dtype=np.int32) for seeds at both ends of derive_seed's
    range; a step yields 2 * PCG64_JUMP_CHUNK uint32 draws, so the last shape needs one draw past it."""
    seeds = (0, 1, 2**32, derive_seed("oracle", "integers", n), 2**63 - 1)
    with np.errstate(all="raise"):
        for seed in seeds:
            for size in ((1000, 128), (3, 5), (1,), (2 * PCG64_JUMP_CHUNK + 1,)):
                expected = np.random.default_rng(seed).integers(0, n, size, dtype=np.int32)
                got = pcg64_integers(seed, n, size)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert np.array_equal(got, expected), (seed, size)


def test_batch_answers_each_request_as_the_oracle_does(small_suite):
    """One long batch of every prompt kind at every temperature, with one request naming
    no task in the middle: that request alone gets a BackendError."""
    policy = trained_like(small_suite, 7)
    prompt_list = [prompt for task in small_suite.tasks[:3] for prompt in every_prompt(task).values()]
    kinds = [(t, prompt) for prompt in prompt_list for t in TEMPERATURES]
    requests = [
        (prompt, SamplingParams(temperature=t, seed=derive_seed("batch", i))) for i, (t, prompt) in enumerate(kinds)
    ]
    nameless = len(requests) // 2
    requests.insert(nameless, ("no task here", SamplingParams(temperature=0.6, seed=1)))
    assert sum(params.temperature > 0 for _, params in requests) >= PCG64_BATCH_MIN
    answers = TabularPolicyBackend(policy).generate_batch(requests)
    assert len(answers) == len(requests)
    assert isinstance(answers[nameless], BackendError)
    for i, ((prompt, params), answer) in enumerate(zip(requests, answers)):
        if i != nameless:
            assert answer == oracle_generate(policy, prompt, params), i
