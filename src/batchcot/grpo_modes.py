"""GRPO advantage and objective mode names, importable without numpy."""

MEAN_STD = "mean_std"
MEAN_ONLY = "mean_only"
ADVANTAGE_MODES = (MEAN_STD, MEAN_ONLY)

SAMPLED = "sampled"
PAPER_LITERAL = "paper_literal"
OBJECTIVE_MODES = (SAMPLED, PAPER_LITERAL)
