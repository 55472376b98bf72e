"""Training loop for repair agents with verifiable rewards.

Rollouts against verifiable environments, teacher-guided reattempts on
failures, preference-pair assembly, SFT + DPO on a tabular policy, and a
pairwise reward model for best-of-k patch selection. A synthetic task suite
makes the whole loop runnable and checkable on one machine.
"""

from .backends import (
    HttpPolicyBackend,
    PolicyBackend,
    SamplingParams,
    TabularPolicyBackend,
)
from .errors import (
    AssemblyError,
    BackendError,
    CheckpointError,
    GuidanceError,
    GuidanceLeakError,
    PhaseError,
    RlvrLoopError,
    RolloutError,
    SandboxProvisionError,
    TaskFormatError,
    TrainingDivergedError,
    TrainingError,
    UsageError,
)
from .evaluator import (
    EvaluationFailure,
    RewardRecord,
    evaluate,
    evaluate_batch,
    read_rewards,
    write_rewards,
)
from .guidance import (
    Guidance,
    HttpTeacherBackend,
    TeacherBackend,
    oracle_teacher,
    parse_guidance,
    render_guidance_request,
    render_reattempt_prompt,
    request_guidance,
    strip_hint_block,
)
from .jsonl import canonical_file_hash, derive_seed
from .loop import RunConfig, evaluate_trajectories, load_config, run_loop
from .metrics import EvalReport, aggregate, guidance_uplift_report, pass_at_k
from .pairs import (
    PreferencePair,
    RlvrDataset,
    SFTExample,
    build_rlvr_dataset,
    emit_dataset,
    load_dataset,
    sample_sft_subset,
)
from .policy import ReferencePolicy, TabularPolicy
from .reward_model import (
    PairwiseRM,
    RMConfig,
    build_rm_training_pairs,
    featurize,
    rank_best_of_k,
    rm_train,
)
from .rollout import (
    Patch,
    Step,
    Trajectory,
    read_trajectories,
    rollout_all_tasks,
    write_trajectories,
)
from .tasks import (
    SynthTask,
    Task,
    TaskDataset,
    enumerate_passing_patches,
    generate_synth_suite,
    load_tasks,
    save_tasks,
)
from .training import DPOConfig, dpo_loss, dpo_train, sft_train

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BackendError",
    "CheckpointError",
    "DPOConfig",
    "EvalReport",
    "EvaluationFailure",
    "Guidance",
    "GuidanceError",
    "GuidanceLeakError",
    "HttpPolicyBackend",
    "HttpTeacherBackend",
    "PairwiseRM",
    "Patch",
    "PhaseError",
    "PolicyBackend",
    "PreferencePair",
    "ReferencePolicy",
    "RewardRecord",
    "RlvrDataset",
    "RlvrLoopError",
    "RMConfig",
    "RolloutError",
    "RunConfig",
    "SFTExample",
    "SamplingParams",
    "SandboxProvisionError",
    "Step",
    "SynthTask",
    "TabularPolicy",
    "TabularPolicyBackend",
    "Task",
    "TaskDataset",
    "TaskFormatError",
    "TeacherBackend",
    "Trajectory",
    "TrainingDivergedError",
    "TrainingError",
    "UsageError",
    "aggregate",
    "build_rlvr_dataset",
    "build_rm_training_pairs",
    "canonical_file_hash",
    "derive_seed",
    "dpo_loss",
    "dpo_train",
    "emit_dataset",
    "enumerate_passing_patches",
    "evaluate",
    "evaluate_batch",
    "evaluate_trajectories",
    "featurize",
    "generate_synth_suite",
    "guidance_uplift_report",
    "load_config",
    "load_dataset",
    "load_tasks",
    "oracle_teacher",
    "parse_guidance",
    "pass_at_k",
    "rank_best_of_k",
    "read_rewards",
    "read_trajectories",
    "render_guidance_request",
    "render_reattempt_prompt",
    "request_guidance",
    "rollout_all_tasks",
    "rm_train",
    "run_loop",
    "sample_sft_subset",
    "save_tasks",
    "sft_train",
    "strip_hint_block",
    "write_rewards",
    "write_trajectories",
]
