"""Group-relative policy optimization on a toy 3-way label policy.

The policy is a linear softmax over a fixed feature map of preference
samples. Losses carry analytic gradients that are verified against central
finite differences by the self-check suite.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from batchcot import verify
from batchcot.grpo_modes import (
    MEAN_ONLY,
    MEAN_STD,
    OBJECTIVE_MODES,
    PAPER_LITERAL,
    SAMPLED,
    GrpoConfig,
)
from batchcot.parsing import count_tokens
from batchcot.preference import LABELS, PreferenceSample, label_sample
from batchcot.prompts import BATCH, VANILLA

FEATURE_DIM = 4

_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class PolicyState:
    theta: np.ndarray  # (feature_dim, 3) logit weights

    def distribution(self, features: np.ndarray) -> np.ndarray:
        """Strictly positive softmax over the three labels, one per feature row."""
        logits = features @ self.theta
        logits = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=-1, keepdims=True)


def initial_policy(feature_dim: int = FEATURE_DIM) -> PolicyState:
    """Zero weights, i.e. the uniform policy."""
    return PolicyState(theta=np.zeros((feature_dim, len(LABELS))))


@dataclass(frozen=True)
class RolloutGroup:
    features: np.ndarray
    actions: tuple  # G sampled labels
    advantages: tuple
    gold: str

    def __post_init__(self):
        if len(self.actions) != len(self.advantages):
            raise ValueError("actions and advantages must have equal length")


def reward(action: str, gold: str) -> int:
    return 1 if action == gold else 0


def group_advantages(rewards, mode: str = MEAN_STD) -> list:
    """Group-relative advantages with a mean (optionally std-normalized) baseline.

    MEAN_ONLY is computed in exact rational arithmetic so the advantages sum
    to zero exactly; MEAN_STD uses the population standard deviation and
    returns all zeros for degenerate (constant-reward) groups.
    """
    rewards = list(rewards)
    if len(rewards) < 2:
        raise ValueError("advantage baseline needs a group of size >= 2")
    if mode == MEAN_ONLY:
        exact = [Fraction(r) for r in rewards]
        mean = sum(exact) / len(exact)
        return [r - mean for r in exact]
    if mode == MEAN_STD:
        if min(rewards) == max(rewards):
            return [0.0] * len(rewards)
        arr = np.asarray(rewards, dtype=float)
        return list((arr - arr.mean()) / arr.std())
    raise ValueError(f"unknown advantage mode: {mode!r}")


def _kl_and_logit_grad(p: np.ndarray, q: np.ndarray):
    """KL(p||q) and its gradient w.r.t. the logits producing p, row by row.

    p and q broadcast over leading axes; the last axis is the distribution.
    """
    logratio = np.log(p) - np.log(q)
    kl = np.vecdot(p, logratio)  # row-wise, bit for bit np.dot's sum
    return kl, p * logratio - p * kl[..., None]


def grpo_loss(policy: PolicyState, ref_policy: PolicyState, group: RolloutGroup,
              cfg: GrpoConfig):
    """Negated group objective with its analytic gradient w.r.t. theta.

    Both objective modes are one weighted log-likelihood over the labels,
    -sum_a w_a log pi_a, whose logit gradient is (sum_a w_a) pi - w. SAMPLED
    weighs each label by its sampled actions' advantages over G; PAPER_LITERAL
    weighs the gold label +1 and the others -1/2. Both add
    beta * KL(pi || pi_ref) against the frozen reference policy.

    A policy whose theta is a stack of shape (..., F, 3) gives one loss per
    theta, as an array of shape (...), and gradients of theta's shape; each
    row is bit for bit what that theta alone gives. One theta gives a float.
    """
    phi = np.asarray(group.features, dtype=float)
    pi = policy.distribution(phi)
    pi_ref = ref_policy.distribution(phi)
    if cfg.objective_mode == SAMPLED:
        action_idx = list(map(_LABEL_INDEX.__getitem__, group.actions))
        w = np.bincount(action_idx, group.advantages, len(LABELS)) / len(action_idx)
    else:
        w = np.full(len(LABELS), -0.5)
        w[_LABEL_INDEX[group.gold]] = 1.0
    kl, kl_grad_logits = _kl_and_logit_grad(pi, pi_ref)
    loss = -np.vecdot(w, np.log(pi)) + cfg.beta * kl
    grad = phi[:, None] * (w.sum() * pi - w + cfg.beta * kl_grad_logits)[..., None, :]
    return (float(loss) if loss.ndim == 0 else loss), grad


def _rollout_group(features: np.ndarray, action_idx, gold: str,
                   cfg: GrpoConfig) -> RolloutGroup:
    actions = tuple(LABELS[i] for i in action_idx)
    advantages = tuple(group_advantages([reward(a, gold) for a in actions],
                                        cfg.advantage_mode))
    return RolloutGroup(features=features, actions=actions, advantages=advantages,
                        gold=gold)


def sample_group(policy: PolicyState, features: np.ndarray, gold: str,
                 cfg: GrpoConfig, rng: np.random.Generator) -> RolloutGroup:
    pi = policy.distribution(features)
    return _rollout_group(
        features, rng.choice(len(LABELS), size=cfg.group_size, p=pi), gold, cfg,
    )


# --- feature map and toy fixtures --------------------------------------------

def _hash_noise(sample: PreferenceSample) -> float:
    """Deterministic pseudo-noise in [-1, 1) derived from the sample content."""
    digest = hashlib.sha256(
        (sample.question + "\x00" + sample.cot).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 63 - 1.0


def feature_matrix(samples) -> np.ndarray:
    """One row per sample: bias, chain length over the mean, origin indicator,
    correctness-correlated channel."""
    samples = list(samples)
    if not samples:
        raise ValueError("feature matrix needs a nonempty dataset")
    counts = [count_tokens(s.cot) for s in samples]
    mean_tokens = sum(counts) / len(counts)
    return np.array([
        [
            1.0,
            tokens / mean_tokens if mean_tokens > 0 else 0.0,
            1.0 if s.provenance.get("origin_kind") == VANILLA else 0.0,
            (1.0 if s.gold_label != "C" else -1.0) + 0.3 * _hash_noise(s),
        ]
        for s, tokens in zip(samples, counts)
    ])


def make_toy_dataset(n: int = 1000, seed: int = 0) -> list:
    """Synthetic preference samples whose labels are linearly separable."""
    rng = random.Random(seed)
    words_list = [f"step{j}" for j in range(140)]  # the longest chain's words
    samples = []
    for i in range(n):
        origin_kind = VANILLA if rng.random() < 0.5 else BATCH
        correct = rng.random() < 0.65
        if origin_kind == VANILLA:
            words = rng.randint(80, 140)
        else:
            words = rng.randint(30, 70)
        verdict = verify.CORRECT if correct else verify.INCORRECT
        samples.append(
            PreferenceSample(
                question=f"toy question {i}",
                cot=" ".join(words_list[:words]),
                gold_label=label_sample(origin_kind, verdict),
                provenance={
                    "origin_kind": origin_kind,
                    "batch_size": 1 if origin_kind == VANILLA else 2,
                    "position": 1,
                    "question_id": f"toy-{i}",
                },
            )
        )
    return samples


class CurvePoint(NamedTuple):
    step: int
    loss: float
    mean_gold_prob: float


def _mean_gold_prob(policy: PolicyState, features: np.ndarray,
                    gold_flat: np.ndarray) -> float:
    """Mean gold-label probability over the rows of features.

    gold_flat holds each row's gold entry as an index into the flattened
    (n, 3) probabilities. The result is bit for bit the mean of the gold
    entries of policy.distribution(features): the same row max and exp,
    and the denominator summed as (e0 + e1) + e2, the order of numpy's sum
    over a 3-long axis (e0 + (e1 + e2) differs in the last bit), but only
    the gold entries are divided.
    """
    logits = features @ policy.theta
    c0, c1, c2 = logits.T
    exp = np.exp(logits - np.maximum(np.maximum(c0, c1), c2)[:, None])
    e0, e1, e2 = exp.T
    return float((exp.take(gold_flat) / ((e0 + e1) + e2)).mean())


def train_toy(dataset, cfg: GrpoConfig, seed: int = 0):
    """Sample-group-update loop on the toy policy; deterministic given seed.

    Returns (final PolicyState, learning curve of CurvePoint).
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset must be nonempty")
    features = feature_matrix(dataset)
    gold_flat = (np.arange(len(dataset)) * len(LABELS)
                 + [_LABEL_INDEX[s.gold_label] for s in dataset])
    rng = np.random.default_rng(seed)
    ref = policy = initial_policy(features.shape[1])  # ref stays frozen
    curve = []
    for step in range(cfg.steps):
        idx = int(rng.integers(len(dataset)))
        phi = features[idx]
        group = sample_group(policy, phi, dataset[idx].gold_label, cfg, rng)
        loss, grad = grpo_loss(policy, ref, group, cfg)
        if not math.isfinite(loss):
            raise ValueError(f"training diverged at step {step}: loss is {loss} "
                             f"(objective {cfg.objective_mode})")
        policy = PolicyState(theta=policy.theta - cfg.learning_rate * grad)
        curve.append(
            CurvePoint(step, loss, _mean_gold_prob(policy, features, gold_flat))
        )
    return policy, curve


def write_curve_csv(path, curve):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,mean_gold_prob\n")
        for point in curve:
            fh.write(f"{point.step},{point.loss!r},{point.mean_gold_prob!r}\n")


def save_policy(path, policy: PolicyState, seed: int, cfg: GrpoConfig):
    """Flat numeric text checkpoint with a config header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# feature_dim={policy.theta.shape[0]} labels={policy.theta.shape[1]} seed={seed}\n")
        fh.write("# config " + " ".join(f"{k}={v}" for k, v in vars(cfg).items()) + "\n")
        for row in policy.theta:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


# --- self-verification suite --------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def finite_difference_grad(loss_fn: Callable[[np.ndarray], np.ndarray],
                           theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central differences of loss_fn at theta, every coordinate from one call.

    loss_fn takes all 2n perturbed copies of theta at once, stacked along a
    new first axis (theta + step e_i, then theta - step e_i, for i < n =
    theta.size), and returns their 2n losses.
    """
    steps = step * np.eye(theta.size).reshape(theta.size, *theta.shape)
    up, down = np.split(loss_fn(np.concatenate([theta + steps, theta - steps])), 2)
    return ((up - down) / (2 * step)).reshape(theta.shape)


def _mixed_group(policy: PolicyState, features: np.ndarray, gold: str,
                 cfg: GrpoConfig, rng: np.random.Generator) -> RolloutGroup:
    """A group with both rewards, so its gradient is nontrivial, in one draw.

    G-2 actions come from pi, plus the gold action and one non-gold action
    drawn from pi restricted to the two non-gold labels, at random positions.
    """
    pi = policy.distribution(features)
    gold_idx = _LABEL_INDEX[gold]
    wrong = np.delete(np.arange(len(LABELS)), gold_idx)
    wrong_pi = pi[wrong] / pi[wrong].sum()
    action_idx = np.concatenate([
        rng.choice(len(LABELS), size=cfg.group_size - 2, p=pi),
        [gold_idx, rng.choice(wrong, p=wrong_pi)],
    ])
    return _rollout_group(features, rng.permutation(action_idx), gold, cfg)


def gradient_check(n_configs: int = 100, seed: int = 0, step: float = 1e-5,
                   tolerance: float = 1e-6):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        theta = rng.normal(scale=0.8, size=(FEATURE_DIM, len(LABELS)))
        ref = PolicyState(theta=theta + rng.normal(scale=0.3, size=theta.shape))
        features = rng.normal(scale=1.0, size=FEATURE_DIM)
        beta = float(rng.choice([0.0, 0.01, 0.1]))
        policy = PolicyState(theta=theta)
        for mode in OBJECTIVE_MODES:
            cfg = GrpoConfig(beta=beta, group_size=8, objective_mode=mode)
            gold = LABELS[int(rng.integers(len(LABELS)))]
            group = _mixed_group(policy, features, gold, cfg, rng)
            _, grad = grpo_loss(policy, ref, group, cfg)

            def loss_at(t, _ref=ref, _group=group, _cfg=cfg):
                return grpo_loss(PolicyState(theta=t), _ref, _group, _cfg)[0]

            fd = finite_difference_grad(loss_at, theta, step)
            denom = max(np.linalg.norm(grad), np.linalg.norm(fd))
            err = 0.0 if denom < 1e-12 else np.linalg.norm(grad - fd) / denom
            worst = max(worst, err)
    return worst, worst < tolerance


def _binary_vectors(length: int):
    for bits in range(2 ** length):
        yield [(bits >> i) & 1 for i in range(length)]


def advantage_checks(max_length: int = 6):
    """Exhaustive zero-sum and sign checks over binary reward vectors."""
    for length in range(2, max_length + 1):
        for rewards in _binary_vectors(length):
            by_mode = {mode: group_advantages(rewards, mode)
                       for mode in (MEAN_ONLY, MEAN_STD)}
            if sum(by_mode[MEAN_ONLY]) != 0:
                return False, f"MEAN_ONLY sum nonzero for {rewards}"
            mixed = 0 < sum(rewards) < length
            for mode, adv in by_mode.items():
                if mixed:
                    for r, a in zip(rewards, adv):
                        if (a > 0) != (r == 1):
                            return False, f"sign property failed for {rewards} ({mode})"
                else:
                    if any(a != 0 for a in adv):
                        return False, f"degenerate group not all-zero for {rewards} ({mode})"
            if abs(sum(by_mode[MEAN_STD])) >= 1e-9:
                return False, f"MEAN_STD sum too large for {rewards}"
    return True, f"all binary reward vectors of length 2..{max_length}"


def _random_distributions(rng: np.random.Generator, count: int,
                          size: int = 3) -> np.ndarray:
    """count strictly positive distributions, one per row.

    The rows are the draws that count one-row calls would make in turn.
    """
    x = rng.dirichlet(np.ones(size), size=count)
    x = np.clip(x, 1e-9, None)
    return x / x.sum(axis=-1, keepdims=True)


def kl_checks(n_pairs: int = 1000, seed: int = 0):
    """Properties of _kl_and_logit_grad, the KL that grpo_loss adds."""
    # closed form fixes the direction: KL(q || p) here is about 0.0566
    kl, _ = _kl_and_logit_grad(np.array([0.5, 0.25, 0.25]), np.full(3, 1 / 3))
    if abs(kl - (math.log(3) - 1.5 * math.log(2))) > 1e-12:
        return False, f"KL((1/2,1/4,1/4) || uniform) = {float(kl)!r}, not log 3 - 3/2 log 2"
    rows = _random_distributions(np.random.default_rng(seed), 2 * n_pairs)
    p, q = rows[0::2], rows[1::2]
    if (_kl_and_logit_grad(p, q)[0] < 0).any():
        return False, "KL negative"
    kl, grad = _kl_and_logit_grad(p, p)
    if (np.abs(kl) > 1e-12).any():
        return False, "KL(p, p) != 0"
    if (np.abs(grad) > 1e-10).any():
        return False, "KL gradient nonzero at pi == pi_ref"
    return True, f"closed form and {n_pairs} generated pairs"


def run_verification_suite(seed: int = 0) -> list:
    """Gradient, advantage and KL property checks with pass/fail results."""
    results = []
    start = time.monotonic()
    err, ok = gradient_check(n_configs=100, seed=seed)
    elapsed = time.monotonic() - start
    results.append(CheckResult(
        "gradient_finite_difference", ok,
        f"max relative error {err:.2e} over 100 configs x 2 modes in {elapsed:.1f}s",
    ))
    ok, detail = advantage_checks()
    results.append(CheckResult("advantage_properties", ok, detail))
    ok, detail = kl_checks(seed=seed)
    results.append(CheckResult("kl_properties", ok, detail))
    return results
