"""TabularPolicyBackend against the definition of a tabular draw.

The oracle is that definition, one request at a time in Python integers:
a request draws SplitMix64's outputs from its own seed, at counter 1 for a
localization and from counter 2 for a repair (a whole-program repair draws
at 2, then 3), each as a uniform in [0, 1) bisected into the temperature
softmax's cumulative distribution; temperature 0 is the argmax, and a
localization whose hint names a statement draws nothing.
The backend must return the same completion for every prompt kind.
"""
import bisect

import numpy as np
import pytest

from rlvrloop import prompts
from rlvrloop.backends import SamplingParams, TabularPolicyBackend
from rlvrloop.errors import BackendError, TrainingError
from rlvrloop.guidance import Guidance, render_reattempt_prompt
from rlvrloop.jsonl import derive_seed, splitmix64
from rlvrloop.policy import TabularPolicy, softmax

TEMPERATURES = (0.0, 0.6, 1.0)


def splitmix64_output(seed: int, i: int) -> int:
    """SplitMix64's output at counter i from seed, in Python integers (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (seed + i * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def oracle_generate(policy: TabularPolicy, prompt: str, params: SamplingParams) -> str:
    task_id, step, line = prompts.parse_prompt(prompt)
    head = policy.head(task_id)
    seed = params.seed
    counters = iter(range(1, 2) if step == prompts.LOC_STEP else range(2, 4))

    def draw(logits) -> int:
        p = softmax(logits, params.temperature)
        if params.temperature == 0:
            return int(np.argmax(p))
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return bisect.bisect_right(cdf.tolist(), (splitmix64_output(seed, next(counters)) >> 11) * 2.0**-53)

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


def test_a_seed_is_read_modulo_2_to_the_64(small_suite):
    """The oracle reads a seed mod 2**64, and so does the backend: a seed past 64 bits or below 0 samples too."""
    policy = trained_like(small_suite, 3)
    backend = TabularPolicyBackend(policy)
    for kind, prompt in every_prompt(small_suite.tasks[0]).items():
        expected = backend.generate(prompt, SamplingParams(temperature=0.6, seed=5))
        for seed in (5 + 2**64, 5 - 2**64):
            params = SamplingParams(temperature=0.6, seed=seed)
            assert backend.generate(prompt, params) == oracle_generate(policy, prompt, params) == expected, kind


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


# splitmix64's first two outputs at seeds 0, 1, 2**32 and 2**63 - 1, as literals: every numpy checks the same bits
PINNED_OUTPUTS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67],
    2**32: [0xC42C5A1AA3820138, 0x37AD5FDD5756BD3D],
    2**63 - 1: [0x2A67D7552E039EA7, 0xF20C01408082F947],
}


@pytest.mark.filterwarnings("error")
def test_splitmix64_outputs_are_pinned_and_match_python_integers():
    """The first two outputs at four pinned seeds, then the first three at 10,000 drawn seeds, as Python integers."""
    counters = np.arange(1, 4, dtype=np.uint64)
    with np.errstate(all="raise"):
        for seed, pinned in PINNED_OUTPUTS.items():
            assert splitmix64(np.uint64(seed), counters[:2]).tolist() == pinned
            assert [splitmix64_output(seed, i) for i in (1, 2)] == pinned
        gen = np.random.default_rng(derive_seed("oracle", "splitmix64"))
        seeds = [int(s) for s in gen.integers(2**63, size=10_000, dtype=np.uint64)]
        z = splitmix64(np.array(seeds, dtype=np.uint64)[:, None], counters)
    assert z.tolist() == [[splitmix64_output(s, i) for i in (1, 2, 3)] for s in seeds]


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
    answers = TabularPolicyBackend(policy).generate_batch(requests)
    assert len(answers) == len(requests)
    assert isinstance(answers[nameless], BackendError)
    for i, ((prompt, params), answer) in enumerate(zip(requests, answers)):
        if i != nameless:
            assert answer == oracle_generate(policy, prompt, params), i


@pytest.mark.parametrize("field, value, message", [
    ("temperature", -0.1, "temperature must be >= 0, got -0.1"), ("max_tokens", 0, "max_tokens must be > 0, got 0"),
])
def test_sampling_params_refuse_values_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        SamplingParams(**{"temperature": 0.6, "seed": 1, field: value})


def test_generate_raises_each_fault_its_batch_would_return_or_raise(small_suite):
    """generate() is a batch of one: a BackendError its batch returns is raised; the policy's TrainingError propagates."""
    task = small_suite.tasks[0]
    backend = TabularPolicyBackend(TabularPolicy.uniform(small_suite))
    params = SamplingParams(temperature=0.6, seed=1)
    with pytest.raises(BackendError, match="tabular: prompt names no task"):
        backend.generate("no task here", params)
    # a repair prompt that asks for a candidate but names no statement and no whole-program repair
    nameless = f"Task: {task.id}\n\nRespond with exactly one fenced block:\n```\nCANDIDATE: <index>\n```"
    assert prompts.parse_prompt(nameless) == (task.id, prompts.REPAIR_STEP, None)
    with pytest.raises(BackendError, match="tabular: repair prompt names no statement"):
        backend.generate(nameless, params)
    # a statement past the task's table: no retry can mend it, at any temperature
    outside = prompts.render_repair_prompt(task, 0).replace(
        "You will repair statement 0:", f"You will repair statement {task.n_lines}:"
    )
    for temperature in TEMPERATURES:
        with pytest.raises(TrainingError, match=f"{task.id}: line {task.n_lines} outside policy table"):
            backend.generate(outside, SamplingParams(temperature=temperature, seed=1))
