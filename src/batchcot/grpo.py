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

from batchcot import parsing, verify
from batchcot.grpo_modes import (
    MEAN_ONLY,
    MEAN_STD,
    OBJECTIVE_MODES,
    PAPER_LITERAL,
    SAMPLED,
    GrpoConfig,
)
from batchcot.preference import LABELS, PreferenceSample, Provenance, label_sample
from batchcot.prompts import BATCH, VANILLA

FEATURE_DIM = 4

_LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class PolicyState:
    theta: np.ndarray  # (feature_dim, 3) logit weights

    def distribution(self, features: np.ndarray) -> np.ndarray:
        """Strictly positive softmax over the three labels, one per feature row.

        The row max and sum are the ufunc reductions that .max and .sum call,
        without their wrappers: the same bits.
        """
        logits = features @ self.theta
        logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
        exp = np.exp(logits, out=logits)
        return exp / np.add.reduce(exp, axis=-1, keepdims=True)


def initial_policy(feature_dim: int = FEATURE_DIM) -> PolicyState:
    """Zero weights, i.e. the uniform policy."""
    return PolicyState(theta=np.zeros((feature_dim, len(LABELS))))


def group_advantages(rewards, mode: str = MEAN_STD) -> list:
    """Group-relative advantages with a mean (optionally std-normalized) baseline.

    MEAN_ONLY is computed in exact rational arithmetic, in integers over
    one common denominator, so the advantages sum to zero exactly; a reward
    is the exact value Fraction(r) takes, and one it does not take raises
    what it raises. MEAN_STD is _mean_std of the rewards as one float
    vector, a list of np.float64: a reward that is not finite raises
    ValueError, as MEAN_ONLY raises for it.
    """
    rewards = list(rewards)
    if len(rewards) < 2:
        raise ValueError("advantage baseline needs a group of size >= 2")
    if mode == MEAN_ONLY:
        return _mean_only(rewards)
    if mode == MEAN_STD:
        arr = np.asarray(rewards, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"MEAN_STD rewards must be finite, got {rewards}")
        return list(_mean_std(arr))
    raise ValueError(f"unknown advantage mode: {mode!r}")


# reward types whose as_integer_ratio is the exact value Fraction(r) takes,
# NaN and infinities raising as Fraction(r) raises
_RATIO_TYPES = frozenset({int, bool, float, np.float64, Fraction})


def _integer_ratio(reward) -> tuple:
    """Ints (x, d) with x / d the exact value Fraction(reward) takes.

    A reward of _RATIO_TYPES gives its as_integer_ratio; any other goes
    through Fraction(reward), and raises what that raises.
    """
    if type(reward) in _RATIO_TYPES:
        return reward.as_integer_ratio()
    exact = Fraction(reward)
    return int(exact.numerator), int(exact.denominator)


def _mean_only(rewards: list) -> list:
    """MEAN_ONLY advantages, in integers.

    Over the common denominator den, the rewards are integers x with total
    t; reward x's advantage x/den - t/(den k) is one Fraction(x k - t, den k).
    """
    ratios = [_integer_ratio(r) for r in rewards]
    den = math.lcm(*(d for _, d in ratios))
    scaled = [x * (den // d) for x, d in ratios]
    total, k = sum(scaled), len(scaled)
    return [Fraction(x * k - total, den * k) for x in scaled]


def _mean_std(rewards: np.ndarray) -> np.ndarray:
    """MEAN_STD advantages of one group of float rewards (G,) or of a stack
    of groups (..., G), each group along the last axis.

    A group of equal rewards gets zeros: numpy's mean of [0.1] * 3 is not
    0.1, so a std-based test would normalize rounding error to advantages of
    -1. Any other group's are bit for bit (arr - arr.mean()) / arr.std(),
    from the ufunc calls np.mean and np.std make, along the group's own row,
    so a group in a stack gets the bits it gets alone.
    """
    n = rewards.shape[-1]
    dev = rewards - np.add.reduce(rewards, axis=-1, keepdims=True) / n
    std = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / n)
    mixed = (np.minimum.reduce(rewards, axis=-1, keepdims=True)
             < np.maximum.reduce(rewards, axis=-1, keepdims=True))
    return np.divide(dev, std, out=np.zeros(dev.shape), where=mixed)


def _kl_and_logit_grad(p: np.ndarray, log_q: np.ndarray, loss_only: bool = False,
                       log_p: np.ndarray = None):
    """KL(p||q) and its gradient w.r.t. the logits producing p, row by row.

    log_q is np.log(q), taken by the caller, which may hold it for many
    calls. p and log_q broadcast over leading axes; the last axis is the
    distribution. With loss_only the gradient is None and is not computed.
    log_p is np.log(p) when the caller has it already.
    """
    logratio = (np.log(p) if log_p is None else log_p) - log_q
    kl = np.vecdot(p, logratio)  # row-wise, bit for bit np.dot's sum
    return kl, None if loss_only else p * logratio - p * kl[..., None]


def _weights(action_idx: np.ndarray, gold_idx, advantage_mode: str,
             objective_mode: str) -> np.ndarray:
    """Each label's weight w_a in the objective's -sum_a w_a log pi_a: (3,)
    for one group of drawn label indices (G,) and its gold index, (..., 3)
    for a stack of groups (..., G) and their gold indices (...).

    SAMPLED rewards a drawn index 1 if it is gold, else 0, and weighs each
    label by its drawn indices' advantages (MEAN_ONLY's Fractions as floats)
    over G, summed in group order by one bincount with three bins per group.
    PAPER_LITERAL weighs the gold label +1 and the others -1/2.
    """
    gold_idx = np.asarray(gold_idx)
    if objective_mode != SAMPLED:
        return np.where(np.arange(len(LABELS)) == gold_idx[..., None], 1.0, -0.5)
    labels, groups, size = len(LABELS), gold_idx.size, action_idx.shape[-1]
    rewards = (action_idx == gold_idx[..., None]).astype(float)
    if advantage_mode == MEAN_STD:
        advantages = _mean_std(rewards)
    else:
        rows = rewards.reshape(groups, size).tolist()
        advantages = np.array([group_advantages(r, advantage_mode) for r in rows], dtype=float)
    # group g's labels in bins 3g, 3g + 1 and 3g + 2
    bins = action_idx + np.arange(0, labels * groups, labels).reshape(*gold_idx.shape, 1)
    w = np.bincount(bins.ravel(), advantages.ravel(), labels * groups)
    return w.reshape(*gold_idx.shape, labels) / size


def grpo_loss(pi: np.ndarray, log_ref: np.ndarray, w: np.ndarray, w_sum: np.ndarray,
              beta, loss_only: bool = False):
    """The negated GRPO objective of a group and its gradient w.r.t. the logits.

    The loss is -sum_a w_a log pi_a + beta * KL(pi || pi_ref): both objective
    modes are this one weighted log-likelihood over the labels, with w from
    _weights of the drawn label indices of one group or a stack. pi is the
    policy's distribution and log_ref np.log(pi_ref), the log of the frozen
    reference's at the same features; w_sum is np.add.reduce(w, axis=-1,
    keepdims=True). The caller takes both once, since they stay fixed while
    pi moves: train_toy once per run and once per distinct group,
    gradient_check once for its stack. The logit gradient of the first term
    is w_sum pi - w. Stacks broadcast: w and w_sum against the distributions
    (..., 3) and beta against the losses (...); a float beta multiplies
    directly. Each row is bit for bit what its operands alone give. With
    loss_only the gradient is None and is not computed. _theta_grad turns
    the logit gradient into theta's.
    """
    log_pi = np.log(pi)  # taken once, for both terms
    kl, kl_grad_logits = _kl_and_logit_grad(pi, log_ref, loss_only, log_pi)
    loss = -np.vecdot(w, log_pi) + beta * kl
    if loss_only:
        return loss, None
    beta_rows = beta if isinstance(beta, float) else np.asarray(beta)[..., None]
    grad_logits = w_sum * pi - w + beta_rows * kl_grad_logits
    return loss, grad_logits


def _theta_grad(phi: np.ndarray, grad_logits: np.ndarray) -> np.ndarray:
    """phi ⊗ grad_logits: the gradient w.r.t. theta of logits phi @ theta.

    Features (..., F) and logit gradients (..., 3) broadcast into theta's
    shape (..., F, 3).
    """
    return phi[..., :, None] * grad_logits[..., None, :]


def _draw(p: np.ndarray, rng: np.random.Generator, size=None):
    """Indices drawn from the distribution p by inverse CDF.

    These are the draws rng.choice(len(p), size, p=p) makes, from the same
    stream position and with one rng.random(size) call, as choice does. A
    distribution that is not finite, or sums to zero, raises ValueError before
    any draw; choice rejected it too.
    """
    cdf = np.add.accumulate(p)  # the ufunc p.cumsum() calls
    total = cdf[-1]
    if not 0.0 < total < math.inf:  # also false for NaN
        raise ValueError(f"cannot draw from the distribution {p}: "
                         "its entries must be finite with a positive sum")
    cdf /= total
    return cdf.searchsorted(rng.random(size), side="right")


# --- feature map and toy fixtures --------------------------------------------

def _hash_noise(sample: PreferenceSample) -> float:
    """Deterministic pseudo-noise in [-1, 1) derived from the sample content."""
    digest = hashlib.sha256(
        (sample.question + "\x00" + sample.cot).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 63 - 1.0


def feature_matrix(samples) -> np.ndarray:
    """One row per sample: bias, chain length over the mean, origin indicator,
    correctness-correlated channel.

    Each distinct chain text is counted once: make_toy_dataset's chains
    repeat, at most 102 distinct ones at any size.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("feature matrix needs a nonempty dataset")
    token_counts = {cot: parsing.count_tokens(cot) for cot in {s.cot for s in samples}}
    counts = [token_counts[s.cot] for s in samples]
    mean_tokens = sum(counts) / len(counts)
    return np.array([
        [
            1.0,
            tokens / mean_tokens if mean_tokens > 0 else 0.0,
            1.0 if s.provenance.origin_kind == VANILLA else 0.0,
            (1.0 if s.gold_label != "C" else -1.0) + 0.3 * _hash_noise(s),
        ]
        for s, tokens in zip(samples, counts)
    ])


def make_toy_dataset(n: int = 1000, seed: int = 0) -> list:
    """Synthetic preference samples whose labels are linearly separable."""
    rng = random.Random(seed)
    words_list = [f"step{j}" for j in range(140)]  # the longest chain's words
    chains = {}  # word count -> its chain, built at the count's first draw
    samples = []
    for i in range(n):
        origin_kind = VANILLA if rng.random() < 0.5 else BATCH
        correct = rng.random() < 0.65
        if origin_kind == VANILLA:
            words = rng.randint(80, 140)
        else:
            words = rng.randint(30, 70)
        cot = chains.get(words)
        if cot is None:
            cot = chains[words] = " ".join(words_list[:words])
        verdict = verify.CORRECT if correct else verify.INCORRECT
        samples.append(
            PreferenceSample(
                question=f"toy question {i}",
                cot=cot,
                gold_label=label_sample(origin_kind, verdict),
                provenance=Provenance(origin_kind, 1 if origin_kind == VANILLA else 2,
                                      1, f"toy-{i}"),
            )
        )
    return samples


class CurvePoint(NamedTuple):
    step: int
    loss: float
    mean_gold_prob: float


# steps x rows per block of _mean_gold_probs: about 16 steps of 1000 rows, so
# its buffers stay near 640 KB, reused for every block
_CURVE_BLOCK_ENTRIES = 16_000


def _mean_gold_probs(thetas: np.ndarray, features: np.ndarray,
                     gold_flat: np.ndarray) -> np.ndarray:
    """Mean gold-label probability over the n rows of features, one per theta.

    thetas is a (steps, F, 3) stack, of any strides; gold_flat holds each
    row's gold entry as an index into the flattened (3, n) label-major
    probabilities, gold label * n + row. Each entry is bit for bit the mean
    of the gold entries of PolicyState(theta).distribution(features): the
    same row max and exp, and the denominator summed as (e0 + e1) + e2, the
    order of numpy's sum over a 3-long axis (e0 + (e1 + e2) differs in the
    last bit), but only the gold entries are divided. Label-major rows keep
    every elementwise step contiguous; exp runs on one contiguous array in
    either layout. Both reductions run over the label axis, which is not the
    contiguous one, so numpy takes the labels in turn, elementwise: that
    order for the sum, and one call each instead of two.

    The steps go in blocks of _CURVE_BLOCK_ENTRIES // n (at least one),
    through buffers allocated once per call: fresh block-sized temporaries
    each come from a new mapping and page-fault, which costs what the
    blocking saves. Each step's mean is computed apart from the others', so
    where the blocks split the stack does not change its bits.
    """
    steps, n = len(thetas), len(features)
    block = max(1, _CURVE_BLOCK_ENTRIES // n)
    logits = np.empty((min(block, steps), len(LABELS), n))
    row_max = np.empty((len(logits), n))  # then each row's denominator
    gold_probs = np.empty((len(logits), n))
    means = np.empty(steps)
    labels_major = thetas.transpose(0, 2, 1)
    for start in range(0, steps, block):
        b = min(block, steps - start)
        exp, den, gold = logits[:b], row_max[:b], gold_probs[:b]
        np.matmul(labels_major[start:start + b], features.T, out=exp)
        np.maximum.reduce(exp, axis=1, out=den)
        np.subtract(exp, den[:, None], out=exp)
        np.exp(exp, out=exp)
        np.add.reduce(exp, axis=1, out=den)
        exp.reshape(b, -1).take(gold_flat, axis=1, out=gold, mode="clip")
        np.divide(gold, den, out=gold)
        np.add.reduce(gold, axis=1, out=means[start:start + b])  # .mean()'s
    return np.divide(means, n, out=means)                          # ufunc calls


def train_toy(dataset, cfg: GrpoConfig, seed: int = 0):
    """Sample-group-update loop on the toy policy; deterministic given seed.

    Each step computes the policy's distribution at its row once, draws the
    group's label indices from it and gives that same distribution to one
    grpo_loss call. Rewards, advantages, label weights and the weights' sum
    come from the drawn indices and the row's gold label alone, so they are
    computed once per distinct (gold, drawn indices) group of the run and
    kept, read-only, for every later step that draws the same group; most
    steps of a trained policy draw the same all-gold group. The frozen
    reference is the initial policy, whose weights are all zero: it is
    uniform at every row, so its log-probabilities are computed once per run,
    and one 1-D call gives each row's bits. The loop keeps every step's theta;
    the curve's mean gold probabilities are computed from them once, after
    the last step, by _mean_gold_probs.

    Returns (final PolicyState, learning curve of CurvePoint).
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset must be nonempty")
    features = feature_matrix(dataset)
    n = len(dataset)
    gold_idx = [_LABEL_INDEX[s.gold_label] for s in dataset]
    gold_flat = np.array(gold_idx) * n + np.arange(n)
    rng = np.random.default_rng(seed)
    policy = initial_policy(features.shape[1])
    # (gold, drawn indices' bytes) -> the group's label weights and their
    # sum, both read-only
    group_weights = {}
    thetas = np.empty((cfg.steps, *policy.theta.shape))
    losses = []
    # a diverging run's log(0) and 0 * inf are named by the finiteness check
    # below, not warned about; entered once, not once per step
    with np.errstate(divide="ignore", invalid="ignore"):
        # the frozen reference: zero weights tie a finite row's three logits,
        # so it has one distribution at every row
        log_ref = np.log(policy.distribution(features[0]))
        for step in range(cfg.steps):
            idx = int(rng.integers(n))
            phi = features[idx]
            pi = policy.distribution(phi)
            action_idx = _draw(pi, rng, cfg.group_size)
            gold = gold_idx[idx]
            key = gold, action_idx.tobytes()
            weights = group_weights.get(key)
            if weights is None:
                w = _weights(action_idx, gold, cfg.advantage_mode, cfg.objective_mode)
                w_sum = np.add.reduce(w, axis=-1, keepdims=True)
                w.flags.writeable = w_sum.flags.writeable = False
                weights = group_weights[key] = w, w_sum
            loss, grad_logits = grpo_loss(pi, log_ref, *weights, cfg.beta)
            loss = float(loss)
            if not math.isfinite(loss):
                raise ValueError(f"training diverged at step {step}: loss is {loss} "
                                 f"(objective {cfg.objective_mode})")
            losses.append(loss)
            policy = PolicyState(theta=np.subtract(
                policy.theta, cfg.learning_rate * _theta_grad(phi, grad_logits),
                out=thetas[step]))
        means = _mean_gold_probs(thetas, features, gold_flat).tolist()
    return policy, [CurvePoint(step, loss, mean)
                    for step, (loss, mean) in enumerate(zip(losses, means))]


def write_curve_csv(path, curve):
    rows = "".join(f"{point.step},{point.loss!r},{point.mean_gold_prob!r}\n"
                   for point in curve)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss,mean_gold_prob\n" + rows)


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
                           theta: np.ndarray, step: float = 1e-5,
                           stack_ndim: int = 0) -> np.ndarray:
    """Central differences of loss_fn at theta, every coordinate from one call.

    loss_fn takes all 2n perturbed copies of theta at once, stacked along a
    new axis (theta + step e_i, then theta - step e_i, for i < n =
    theta.size), and returns their 2n losses. With stack_ndim leading axes,
    theta is a stack of independent points: each is perturbed only in its
    own n coordinates, the new axis follows the stack axes, and loss_fn
    returns losses of shape (*stack, 2n).
    """
    shape = theta.shape[stack_ndim:]
    n = math.prod(shape)
    steps = step * np.eye(n).reshape(n, *shape)
    center = np.expand_dims(theta, stack_ndim)
    up, down = np.split(
        loss_fn(np.concatenate([center + steps, center - steps], axis=stack_ndim)),
        2, axis=-1)
    return ((up - down) / (2 * step)).reshape(theta.shape)


# the labels other than each gold label, in order: row g is gold g's
_NON_GOLD = np.array([[i for i in range(len(LABELS)) if i != gold]
                      for gold in range(len(LABELS))])

# gradient_check's _CHECK_CONFIGS configurations: theta, theta_ref - theta
# and the features are normal draws at these scales, then beta is drawn from
# _CHECK_BETAS; each objective mode then gets one mixed group of
# _CHECK_GROUP_SIZE. Central differences of _CHECK_STEP must agree within a
# relative error of _CHECK_TOLERANCE. advantage_checks takes every binary
# reward vector of length 2 to _CHECK_MAX_LENGTH, kl_checks _CHECK_PAIRS
# generated (p, q) pairs. These are the sizes grpo-check runs
_THETA_SIZE = FEATURE_DIM * len(LABELS)
_CHECK_SCALES = np.repeat([0.8, 0.3, 1.0], [_THETA_SIZE, _THETA_SIZE, FEATURE_DIM])
_CHECK_BETAS = (0.0, 0.01, 0.1)
_CHECK_GROUP_SIZE = 8
_CHECK_CONFIGS = 100
_CHECK_STEP = 1e-5
_CHECK_TOLERANCE = 1e-6
_CHECK_MAX_LENGTH = 6
_CHECK_PAIRS = 1000


def _stacked_cdf(p: np.ndarray) -> np.ndarray:
    """_draw's CDF of each distribution along the last axis, checked as it
    checks it."""
    cdf = p.cumsum(axis=-1)
    total = cdf[..., -1:]
    bad = ~((0.0 < total) & (total < math.inf))[..., 0]  # also true for NaN
    if bad.any():
        raise ValueError(f"cannot draw from the distribution {p[bad][0]}: "
                         "its entries must be finite with a positive sum")
    return cdf / total


def _inverse_cdf(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The count of cdf entries at most each uniform, searchsorted's
    side="right", for a stack of CDFs and a stack of uniforms per CDF."""
    return np.count_nonzero(cdf[..., None, :] <= uniforms[..., None], axis=-1)


def _mixed_groups(pi: np.ndarray, gold_idx: np.ndarray, uniforms: np.ndarray,
                  perms: np.ndarray) -> np.ndarray:
    """The label indices of groups with both rewards, one group of G per row,
    so each group's gradient is nontrivial.

    Before it is permuted, a row is G - 2 labels drawn from the row's pi, the
    gold label, and one non-gold label drawn from pi restricted to the two
    non-gold labels; the row then is group[perms]. The draws are _draw's, by
    inverse CDF, of the randoms in uniforms (..., G - 1): the first G - 2
    for the labels from pi, the last for the non-gold one. Drawing those
    randoms with rng.random(G - 1) and perms with rng.permutation(G) reads
    the stream as rng.choice(3, G - 2, p=pi), rng.choice of the non-gold
    label and rng.permutation of the group do, and gives their indices:
    permutation's swaps do not depend on what the array holds. A
    distribution that is not finite, or sums to zero, raises ValueError.
    """
    wrong = _NON_GOLD[gold_idx]
    wrong_pi = np.take_along_axis(pi, wrong, axis=-1)
    wrong_pi = wrong_pi / np.add.reduce(wrong_pi, axis=-1, keepdims=True)
    pi_cdf, wrong_cdf = _stacked_cdf(pi), _stacked_cdf(wrong_pi)
    group = np.concatenate([
        _inverse_cdf(pi_cdf, uniforms[..., :-1]),
        gold_idx[..., None],
        np.take_along_axis(wrong, _inverse_cdf(wrong_cdf, uniforms[..., -1:]), axis=-1),
    ], axis=-1)
    return np.take_along_axis(group, perms, axis=-1)


def gradient_check(seed: int = 0):
    """Max relative error between analytic and central-difference gradients,
    and whether it is under _CHECK_TOLERANCE.

    Each of _CHECK_CONFIGS random configurations (theta, theta_ref,
    features, beta) gets one mixed group of 8 per objective mode, with
    MEAN_STD advantages. The check runs in two phases. First one loop over
    the configurations draws only raw randoms, in the order a loop drawing
    each configuration and its groups in turn through rng.normal, rng.choice
    and rng.permutation reads the stream. Then everything else is computed
    over the whole stack: the policy distributions, the groups
    (_mixed_groups), their label weights (one _weights call per objective
    mode) and the terms that stay fixed while theta moves (the reference's
    log-probabilities and the weights' sums), one grpo_loss call for every
    analytic gradient and one more, loss only, for every finite-difference
    loss.
    """
    rng = np.random.default_rng(seed)
    modes, size = len(OBJECTIVE_MODES), _CHECK_GROUP_SIZE
    normals = np.empty((_CHECK_CONFIGS, len(_CHECK_SCALES)))
    beta, gold_idx, uniforms, perms = [], [], [], []
    for row in normals:
        rng.standard_normal(out=row)
        beta.append(_CHECK_BETAS[int(rng.integers(len(_CHECK_BETAS)))])  # as choice draws it
        for _ in range(modes):
            gold_idx.append(int(rng.integers(len(LABELS))))
            uniforms.append(rng.random(size - 1))
            perms.append(rng.permutation(size))

    normals = 0.0 + _CHECK_SCALES * normals  # normal's loc + scale * z
    theta = normals[:, :_THETA_SIZE].reshape(_CHECK_CONFIGS, FEATURE_DIM, len(LABELS))
    ref_theta = theta + normals[:, _THETA_SIZE:2 * _THETA_SIZE].reshape(theta.shape)
    features = normals[:, 2 * _THETA_SIZE:]
    # one (1, F) @ (F, 3) product per row, the bits of each 1-D call's
    pi = PolicyState(theta=theta).distribution(features[:, None])[:, 0]
    gold_idx = np.array(gold_idx)
    idx = _mixed_groups(np.repeat(pi, modes, axis=0), gold_idx,
                        np.array(uniforms), np.array(perms))
    w = np.empty((len(idx), len(LABELS)))  # rows: configuration, then mode
    for m, mode in enumerate(OBJECTIVE_MODES):
        w[m::modes] = _weights(idx[m::modes], gold_idx[m::modes], MEAN_STD, mode)

    theta, ref_theta, phi, beta = (np.repeat(a, modes, axis=0)
                                   for a in (theta, ref_theta, features, np.array(beta)))
    # axes: group, the thetas its loss is taken at, phi as a one-row matrix
    phi, beta, w = phi[:, None, None], beta[:, None, None], w[:, None, None]
    log_ref = np.log(PolicyState(theta=ref_theta[:, None]).distribution(phi))
    w_sum = np.add.reduce(w, axis=-1, keepdims=True)

    def objective(thetas, loss_only=False):
        pi = PolicyState(theta=thetas).distribution(phi)
        return grpo_loss(pi, log_ref, w, w_sum, beta, loss_only)

    grad = _theta_grad(phi, objective(theta[:, None])[1]).reshape(len(idx), -1)
    fd = finite_difference_grad(lambda t: objective(t, loss_only=True)[0][..., 0],
                                theta, _CHECK_STEP, stack_ndim=1).reshape(len(idx), -1)
    # sqrt(x . x) per row is np.linalg.norm's formula, bit for bit
    vectors = np.stack([grad, fd, grad - fd])
    grad_norm, fd_norm, diff_norm = np.sqrt(np.vecdot(vectors, vectors))
    denom = np.maximum(grad_norm, fd_norm)
    err = np.divide(diff_norm, denom, out=np.zeros(len(idx)), where=denom >= 1e-12)
    worst = float(err.max())
    return worst, worst < _CHECK_TOLERANCE


def _binary_vectors(length: int):
    for bits in range(2 ** length):
        yield [(bits >> i) & 1 for i in range(length)]


def _sums_to_zero(fractions: list) -> bool:
    """Whether the Fractions sum to exactly zero, summed as integers over
    their least common denominator."""
    den = math.lcm(*(f.denominator for f in fractions))
    return sum(f.numerator * (den // f.denominator) for f in fractions) == 0


def advantage_checks():
    """Exhaustive zero-sum and sign checks over the binary reward vectors of
    length 2 to _CHECK_MAX_LENGTH, each length's through _mean_std at once."""
    for length in range(2, _CHECK_MAX_LENGTH + 1):
        vectors = list(_binary_vectors(length))
        stack = _mean_std(np.array(vectors, dtype=float)).tolist()
        for rewards, mean_std in zip(vectors, stack):
            mean_only = group_advantages(rewards, MEAN_ONLY)
            if not _sums_to_zero(mean_only):
                return False, f"MEAN_ONLY sum nonzero for {rewards}"
            mixed = 0 < sum(rewards) < length
            # a Fraction's denominator is positive: its numerator has its sign
            for mode, adv in ((MEAN_ONLY, [a.numerator for a in mean_only]),
                              (MEAN_STD, mean_std)):
                if mixed:
                    for r, a in zip(rewards, adv):
                        if (a > 0) != (r == 1):
                            return False, f"sign property failed for {rewards} ({mode})"
                else:
                    if any(a != 0 for a in adv):
                        return False, f"degenerate group not all-zero for {rewards} ({mode})"
            if abs(sum(mean_std)) >= 1e-9:
                return False, f"MEAN_STD sum too large for {rewards}"
    return True, f"all binary reward vectors of length 2..{_CHECK_MAX_LENGTH}"


def _random_distributions(rng: np.random.Generator, count: int,
                          size: int = 3) -> np.ndarray:
    """count strictly positive distributions, one per row.

    The rows are the draws that count one-row calls would make in turn.
    """
    x = rng.dirichlet(np.ones(size), size=count)
    x = np.clip(x, 1e-9, None)
    return x / x.sum(axis=-1, keepdims=True)


def kl_checks(seed: int = 0):
    """Properties of _kl_and_logit_grad, grpo_loss's beta-weighted KL term,
    on a closed form and _CHECK_PAIRS generated pairs."""
    # closed form fixes the direction: KL(q || p) here is about 0.0566
    kl, _ = _kl_and_logit_grad(np.array([0.5, 0.25, 0.25]), np.log(np.full(3, 1 / 3)))
    if abs(kl - (math.log(3) - 1.5 * math.log(2))) > 1e-12:
        return False, f"KL((1/2,1/4,1/4) || uniform) = {float(kl)!r}, not log 3 - 3/2 log 2"
    rows = _random_distributions(np.random.default_rng(seed), 2 * _CHECK_PAIRS)
    p, q = rows[0::2], rows[1::2]
    if (_kl_and_logit_grad(p, np.log(q))[0] < 0).any():
        return False, "KL negative"
    kl, grad = _kl_and_logit_grad(p, np.log(p))
    if (np.abs(kl) > 1e-12).any():
        return False, "KL(p, p) != 0"
    if (np.abs(grad) > 1e-10).any():
        return False, "KL gradient nonzero at pi == pi_ref"
    return True, f"closed form and {_CHECK_PAIRS} generated pairs"


def run_verification_suite(seed: int = 0) -> list:
    """Gradient, advantage and KL property checks with pass/fail results."""
    results = []
    start = time.monotonic()
    err, ok = gradient_check(seed=seed)
    elapsed = time.monotonic() - start
    results.append(CheckResult(
        "gradient_finite_difference", ok,
        f"max relative error {err:.2e} over {_CHECK_CONFIGS} configs x 2 modes "
        f"in {elapsed:.1f}s",
    ))
    ok, detail = advantage_checks()
    results.append(CheckResult("advantage_properties", ok, detail))
    ok, detail = kl_checks(seed=seed)
    results.append(CheckResult("kl_properties", ok, detail))
    return results
