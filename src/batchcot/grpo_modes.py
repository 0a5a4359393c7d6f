"""GRPO advantage and objective mode names and the training config.

Importable without numpy, so the CLI can take its flag defaults from
GrpoConfig without loading the numeric code.
"""

import math
from dataclasses import dataclass

MEAN_STD = "mean_std"
MEAN_ONLY = "mean_only"
ADVANTAGE_MODES = (MEAN_STD, MEAN_ONLY)

SAMPLED = "sampled"
PAPER_LITERAL = "paper_literal"
OBJECTIVE_MODES = (SAMPLED, PAPER_LITERAL)


@dataclass(frozen=True)
class GrpoConfig:
    # beta default is a declared convention; the source method never reports it
    beta: float = 0.01
    group_size: int = 16
    learning_rate: float = 0.5
    steps: int = 500
    advantage_mode: str = MEAN_STD
    objective_mode: str = SAMPLED

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.group_size < 2:
            raise ValueError("group size must be >= 2")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.advantage_mode not in ADVANTAGE_MODES:
            raise ValueError(f"unknown advantage mode: {self.advantage_mode!r}")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode: {self.objective_mode!r}")
