"""Training loop for repair agents with verifiable rewards.

Rollouts against verifiable environments, teacher-guided reattempts on
failures, preference-pair assembly, SFT + DPO on a tabular policy, and a
pairwise reward model for best-of-k patch selection. A synthetic task suite
makes the whole loop runnable and checkable on one machine.

The package root exports the names README's "Library use" uses; every
other name is imported from its module.
"""

from .backends import TabularPolicyBackend
from .loop import RunConfig, evaluate_trajectories, run_loop
from .pairs import build_rlvr_dataset
from .policy import TabularPolicy
from .rollout import rollout_all_tasks
from .tasks import generate_synth_suite
from .training import DPOConfig, dpo_train

__version__ = "0.1.0"

__all__ = [
    "DPOConfig", "RunConfig", "TabularPolicy", "TabularPolicyBackend", "build_rlvr_dataset",
    "dpo_train", "evaluate_trajectories", "generate_synth_suite", "rollout_all_tasks", "run_loop",
]
