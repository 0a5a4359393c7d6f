import contextlib
import dataclasses
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from batchcot import grpo
from batchcot.grpo import (
    FEATURE_DIM,
    MEAN_ONLY,
    MEAN_STD,
    OBJECTIVE_MODES,
    PAPER_LITERAL,
    SAMPLED,
    GrpoConfig,
    PolicyState,
    feature_matrix,
    finite_difference_grad,
    gradient_check,
    group_advantages,
    grpo_loss,
    initial_policy,
    CurvePoint,
    advantage_checks,
    kl_checks,
    make_toy_dataset,
    run_verification_suite,
    save_policy,
    train_toy,
    write_curve_csv,
)
from batchcot import parsing, verify
from batchcot.cli import main
from batchcot.preference import LABELS, PreferenceSample, Provenance, label_sample
from batchcot.prompts import BATCH, VANILLA


def reward(action: str, gold: str) -> int:
    """1 for the gold label, else 0: the reward train_toy gives drawn indices."""
    return 1 if action == gold else 0


def kl_categorical(p, q) -> float:
    """KL(p || q) for strictly positive categorical distributions, in pure Python.

    The oracle for grpo._kl_and_logit_grad, which the loss calls.
    """
    p = list(p)
    q = list(q)
    if len(p) != len(q):
        raise ValueError("distributions must have equal support size")
    for dist in (p, q):
        if any(x <= 0 for x in dist):
            raise ValueError("distribution entries must be strictly positive")
        if abs(sum(dist) - 1.0) > 1e-12:
            raise ValueError("distribution must sum to 1 within 1e-12")
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))


class Group(NamedTuple):
    """One rollout group in label strings, as the oracles take it."""
    features: np.ndarray
    actions: tuple  # G sampled labels
    advantages: tuple
    gold: str


def label_weights(group: Group, objective_mode: str) -> np.ndarray:
    """Each label's weight in a label-string group's objective, of whatever
    advantages the group holds: SAMPLED's advantages summed per label in
    group order over G, PAPER_LITERAL's +1 on gold and -1/2 elsewhere."""
    if objective_mode == SAMPLED:
        return np.bincount([LABELS.index(a) for a in group.actions], group.advantages,
                           len(LABELS)) / len(group.actions)
    w = np.full(len(LABELS), -0.5)
    w[LABELS.index(group.gold)] = 1.0
    return w


def formula_grpo_loss(pi, pi_ref, w, beta, loss_only: bool = False):
    """grpo_loss with log pi_ref and sum_a w_a taken inside, as it was written
    before its callers took them: the oracle that grpo_loss of those two
    precomputed terms must give bit for bit."""
    log_pi = np.log(pi)
    logratio = log_pi - np.log(pi_ref)
    kl = np.vecdot(pi, logratio)
    loss = -np.vecdot(w, log_pi) + beta * kl
    if loss_only:
        return loss, None
    beta_rows = beta if isinstance(beta, float) else np.asarray(beta)[..., None]
    grad_logits = (np.add.reduce(w, axis=-1, keepdims=True) * pi - w
                   + beta_rows * (pi * logratio - pi * kl[..., None]))
    return loss, grad_logits


def loss_of(pi, pi_ref, w, beta, loss_only: bool = False):
    """grpo_loss of a reference distribution and label weights, with the
    reference's log and the weights' sum taken here."""
    return grpo_loss(pi, np.log(pi_ref), w, np.add.reduce(w, axis=-1, keepdims=True),
                     beta, loss_only)


def group_loss(policy: PolicyState, ref_policy: PolicyState, group: Group,
               cfg: GrpoConfig):
    """grpo_loss of a label-string group at policy's theta, with the gradient
    w.r.t. theta: the checked path that reference_grpo_loss is the oracle for.

    A theta stacked as (..., F, 3) gives losses of shape (...) and gradients
    of theta's shape.
    """
    phi = np.asarray(group.features, dtype=float)
    loss, grad_logits = loss_of(policy.distribution(phi), ref_policy.distribution(phi),
                                label_weights(group, cfg.objective_mode), cfg.beta)
    return loss, grpo._theta_grad(phi, grad_logits)


def reference_grpo_loss(policy: PolicyState, ref_policy: PolicyState,
                        group: Group, cfg: GrpoConfig):
    """grpo_loss derived once per objective mode: the oracle for grpo_loss.

    SAMPLED sums each sampled action's advantage-weighted log-probability and
    one-hot gradient in turn; PAPER_LITERAL is the closed form over the action
    set with the fixed +1 / -1/2 advantages.
    """
    phi = np.asarray(group.features, dtype=float)
    pi = policy.distribution(phi)
    pi_ref = ref_policy.distribution(phi)

    if cfg.objective_mode == SAMPLED:
        g = len(group.actions)
        loss_policy = 0.0
        grad_logits = np.zeros(len(LABELS))
        for action, adv in zip(group.actions, group.advantages):
            adv = float(adv)
            idx = LABELS.index(action)
            loss_policy -= adv * math.log(pi[idx])
            onehot = np.zeros(len(LABELS))
            onehot[idx] = 1.0
            grad_logits += adv * (pi - onehot)
        loss_policy /= g
        grad_logits /= g
    else:
        adv_vec = np.full(len(LABELS), -0.5)
        adv_vec[LABELS.index(group.gold)] = 1.0
        loss_policy = -float(np.dot(adv_vec, np.log(pi)))
        # sum_a adv[a] * (pi - e_a); the pi terms cancel because adv sums to 0
        grad_logits = -adv_vec.copy()

    kl, kl_grad_logits = grpo._kl_and_logit_grad(pi, np.log(pi_ref))
    loss = loss_policy + cfg.beta * kl
    grad = np.outer(phi, grad_logits + cfg.beta * kl_grad_logits)
    return loss, grad


def reference_finite_difference_grad(loss_fn, theta: np.ndarray,
                                     step: float = 1e-5) -> np.ndarray:
    """Central differences with one loss_fn call per perturbed theta: the
    oracle for finite_difference_grad, which makes one call for all of them."""
    grad = np.zeros_like(theta)
    for idx in np.ndindex(theta.shape):
        up = theta.copy()
        up[idx] += step
        down = theta.copy()
        down[idx] -= step
        grad[idx] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return grad


def reference_check_groups(n_configs: int, seed: int):
    """(theta, reference policy, features, config, gold index, label indices)
    of each of gradient_check's groups, drawn configuration by configuration
    through Generator.normal, Generator.choice and reference_mixed_group."""
    rng = np.random.default_rng(seed)
    for _ in range(n_configs):
        theta = rng.normal(scale=0.8, size=(FEATURE_DIM, len(LABELS)))
        ref = PolicyState(theta=theta + rng.normal(scale=0.3, size=theta.shape))
        features = rng.normal(scale=1.0, size=FEATURE_DIM)
        beta = float(rng.choice([0.0, 0.01, 0.1]))
        pi = PolicyState(theta=theta).distribution(features)
        for mode in OBJECTIVE_MODES:
            cfg = GrpoConfig(beta=beta, group_size=8, objective_mode=mode)
            gold_idx = int(rng.integers(len(LABELS)))
            yield (theta, ref, features, cfg, gold_idx,
                   reference_mixed_group(pi, gold_idx, cfg.group_size, rng))


def reference_gradient_check(n_configs: int = 100, seed: int = 0, step: float = 1e-5,
                             tolerance: float = 1e-6):
    """Two grpo_loss calls per group, group by group: the oracle for
    gradient_check, which must give its (worst, passed) bit for bit.

    The checked code's loop before it was stacked, on label-string groups
    drawn through Generator.choice, with advantages from group_advantages.
    """
    worst = 0.0
    for theta, ref, features, cfg, gold_idx, idx in reference_check_groups(n_configs, seed):
        group = make_group([LABELS[i] for i in idx], LABELS[gold_idx], features)
        _, grad = group_loss(PolicyState(theta=theta), ref, group, cfg)

        def loss_at(t, _ref=ref, _group=group, _cfg=cfg):
            return group_loss(PolicyState(theta=t), _ref, _group, _cfg)[0]

        fd = finite_difference_grad(loss_at, theta, step)
        denom = max(np.linalg.norm(grad), np.linalg.norm(fd))
        err = 0.0 if denom < 1e-12 else np.linalg.norm(grad - fd) / denom
        worst = max(worst, err)
    return worst, worst < tolerance


def reference_mean_gold_prob(policy: PolicyState, features: np.ndarray,
                             gold_idx: np.ndarray) -> float:
    """Mean of the gold column of policy.distribution(features): the oracle
    for each entry of grpo._mean_gold_probs, which must give its bits."""
    probs = policy.distribution(features)
    return float(probs[np.arange(len(gold_idx)), gold_idx].mean())


def reference_group_advantages(rewards, mode: str = MEAN_STD) -> list:
    """The oracle for group_advantages, which must give its values and
    element types: MEAN_STD always goes through numpy's std, and gives
    np.float64s."""
    rewards = list(rewards)
    if len(rewards) < 2:
        raise ValueError("advantage baseline needs a group of size >= 2")
    if mode == MEAN_ONLY:
        exact = [Fraction(r) for r in rewards]
        mean = sum(exact) / len(exact)
        return [r - mean for r in exact]
    if mode == MEAN_STD:
        arr = np.asarray(rewards, dtype=float)
        std = arr.std()
        if std == 0.0:
            return list(np.zeros(len(rewards)))
        return list((arr - arr.mean()) / std)
    raise ValueError(f"unknown advantage mode: {mode!r}")


def reference_feature_matrix(samples) -> np.ndarray:
    """One token count per sample: the oracle for feature_matrix, which
    counts each distinct chain once and must give the same matrix."""
    counts = [parsing.count_tokens(s.cot) for s in samples]
    mean_tokens = sum(counts) / len(counts)
    return np.array([
        [1.0, tokens / mean_tokens if mean_tokens > 0 else 0.0,
         1.0 if s.provenance.origin_kind == VANILLA else 0.0,
         (1.0 if s.gold_label != "C" else -1.0) + 0.3 * grpo._hash_noise(s)]
        for s, tokens in zip(samples, counts)
    ])


def reference_make_toy_dataset(n: int, seed: int) -> list:
    """Each chain joined from a generator expression: the oracle for
    make_toy_dataset, which must give equal samples."""
    rng = random.Random(seed)
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
                cot=" ".join(f"step{j}" for j in range(words)),
                gold_label=label_sample(origin_kind, verdict),
                provenance=Provenance(origin_kind, 1 if origin_kind == VANILLA else 2,
                                      1, f"toy-{i}"),
            )
        )
    return samples


def reference_distribution(theta: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Softmax through ndarray.max and .sum: the oracle for
    PolicyState.distribution, which calls their ufunc reductions directly."""
    logits = features @ theta
    logits = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=-1, keepdims=True)


def reference_train_toy(dataset, cfg: GrpoConfig, seed: int):
    """The training loop with numpy's own draws and reductions, step by step:
    the oracle for train_toy, which must give its curve and theta bit for bit.

    Each step draws the group with rng.choice, takes MEAN_STD advantages
    through np.mean and np.std, labels rewards by comparing label strings,
    and takes the loss of one theta as the weighted log-likelihood plus
    beta * KL; mean_gold_prob is the mean of the full softmax's gold column.
    The reference and initial policy's theta is zero, as initial_policy's.
    """
    features = feature_matrix(dataset)
    gold_idx = np.array([LABELS.index(s.gold_label) for s in dataset])
    rng = np.random.default_rng(seed)
    theta = ref_theta = np.zeros((features.shape[1], len(LABELS)))
    curve = []
    for step in range(cfg.steps):
        idx = int(rng.integers(len(dataset)))
        phi, gold = features[idx], dataset[idx].gold_label
        pi = reference_distribution(theta, phi)
        actions = [LABELS[i] for i in rng.choice(len(LABELS), size=cfg.group_size, p=pi)]
        rewards = [reward(a, gold) for a in actions]
        if cfg.advantage_mode == MEAN_ONLY:
            mean = Fraction(sum(rewards), len(rewards))
            advantages = [r - mean for r in rewards]
        elif min(rewards) == max(rewards):
            advantages = [0.0] * len(rewards)
        else:
            arr = np.asarray(rewards, dtype=float)
            advantages = list((arr - np.mean(arr)) / np.std(arr))
        if cfg.objective_mode == SAMPLED:
            w = np.bincount([LABELS.index(a) for a in actions], advantages,
                            len(LABELS)) / len(actions)
        else:
            w = np.full(len(LABELS), -0.5)
            w[LABELS.index(gold)] = 1.0
        logratio = np.log(pi) - np.log(reference_distribution(ref_theta, phi))
        kl = np.dot(pi, logratio)
        loss = float(-np.dot(w, np.log(pi)) + cfg.beta * kl)
        grad_logits = w.sum() * pi - w + cfg.beta * (pi * logratio - pi * kl)
        theta = theta - cfg.learning_rate * np.outer(phi, grad_logits)
        probs = reference_distribution(theta, features)
        curve.append(CurvePoint(step, loss,
                                float(probs[np.arange(len(dataset)), gold_idx].mean())))
    return theta, curve


def reference_mixed_group(pi, gold_idx: int, group_size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """A mixed group's label indices drawn through Generator.choice: the
    oracle for grpo._mixed_group, which must give its indices and leave rng
    where this leaves it."""
    wrong = [i for i in range(len(LABELS)) if i != gold_idx]
    wrong_pi = pi[wrong]
    action_idx = np.concatenate([
        rng.choice(len(LABELS), size=group_size - 2, p=pi),
        [gold_idx, rng.choice(wrong, p=wrong_pi / wrong_pi.sum())],
    ])
    return rng.permutation(action_idx)


def sequential_random_distribution(rng: np.random.Generator, size: int = 3):
    """One distribution per Dirichlet draw: the oracle for the rows of
    grpo._random_distributions."""
    x = rng.dirichlet(np.ones(size))
    x = np.clip(x, 1e-9, None)
    return x / x.sum()


def random_group(rng) -> Group:
    """A MEAN_STD group of 2 to 16 uniformly drawn actions."""
    actions = [LABELS[i] for i in rng.integers(3, size=rng.integers(2, 17))]
    gold = LABELS[int(rng.integers(3))]
    return make_group(actions, gold, rng.normal(size=FEATURE_DIM))


def greedy_label(policy: PolicyState, features: np.ndarray) -> str:
    """Highest-probability label; ties break by label order A < B < C."""
    return LABELS[int(np.argmax(policy.distribution(features)))]


def load_policy(path) -> PolicyState:
    """Read back the weight rows save_policy writes under its # header lines."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append([float(x) for x in line.split()])
    return PolicyState(theta=np.array(rows))


def is_mixed(actions, gold) -> bool:
    """Whether the actions hold both a rewarded and an unrewarded one."""
    rewards = [reward(a, gold) for a in actions]
    return 0 < sum(rewards) < len(rewards)


class TestReward:
    def test_match(self):
        assert reward("A", "A") == 1

    def test_mismatch(self):
        assert reward("B", "C") == 0

    def test_identity_count(self):
        total = sum(reward(a, g) for a in LABELS for g in LABELS)
        assert total == 3


class TestAdvantages:
    def test_mean_only_example(self):
        adv = group_advantages([1, 0, 0], MEAN_ONLY)
        assert adv == [Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)]

    def test_uniform_rewards_zero(self):
        for mode in (MEAN_ONLY, MEAN_STD):
            assert all(a == 0 for a in group_advantages([1, 1, 1], mode))
            assert all(a == 0 for a in group_advantages([0, 0, 0, 0], mode))

    def test_mean_std_example(self):
        # population std of [1,0] is 0.5, so advantages are +/-1
        assert group_advantages([1, 0], MEAN_STD) == [1.0, -1.0]

    def test_too_small_group(self):
        with pytest.raises(ValueError):
            group_advantages([1], MEAN_ONLY)

    @pytest.mark.parametrize("mode", [MEAN_ONLY, MEAN_STD])
    def test_matches_reference_in_value_and_type(self, mode):
        vectors = [list(bits) for length in range(2, 13)
                   for bits in itertools.product([0, 1], repeat=length)]
        vectors += [[r] * length for r in (0, 1) for length in range(2, 33)]
        for rewards in vectors:
            adv = group_advantages(rewards, mode)
            expected = reference_group_advantages(rewards, mode)
            assert adv == expected, rewards
            assert list(map(type, adv)) == list(map(type, expected)), rewards

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(), st.booleans(), st.fractions(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, -2.5e-308, 1e300, -1e300]),  # subnormal, huge
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64)),
        min_size=2, max_size=24))
    def test_mean_only_matches_reference_on_exact_numbers(self, rewards):
        adv = group_advantages(rewards, MEAN_ONLY)
        expected = reference_group_advantages(rewards, MEAN_ONLY)
        assert adv == expected, rewards
        assert list(map(type, adv)) == list(map(type, expected)), rewards

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(), st.fractions(), st.floats(-1e3, 1e3)),
                    min_size=1, max_size=8),
           st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                            np.float64(math.inf), np.float64(-math.inf)]),
           st.integers(0, 8))
    def test_mean_only_not_finite_raises_what_reference_raises(self, rewards, bad, at):
        rewards.insert(at, bad)
        with pytest.raises(Exception) as want:
            reference_group_advantages(rewards, MEAN_ONLY)
        with pytest.raises(want.type):
            group_advantages(rewards, MEAN_ONLY)

    def test_mean_only_other_numbers_go_through_fraction(self):
        from decimal import Decimal
        for rewards in ([Decimal("0.1"), 1], [np.int64(3), 2], ["1/3", 0]):
            assert (group_advantages(rewards, MEAN_ONLY)
                    == reference_group_advantages(rewards, MEAN_ONLY)), rewards
        # a numpy int is its exact value: sums of Fractions over np.int64
        # numerators wrap around at 2**63, here to a wrong sign
        assert (group_advantages([np.int64(2 ** 40), Fraction(1, 3), 0.1], MEAN_ONLY)
                == reference_group_advantages([2 ** 40, Fraction(1, 3), 0.1], MEAN_ONLY))
        for rewards in ([1j, 0], [np.float32(0.5), 1]):  # Fraction takes neither
            with pytest.raises(TypeError):
                group_advantages(rewards, MEAN_ONLY)

    # floats of one moderate range often make pairwise and sequential sums
    # round apart; unbounded ones rarely do
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-1e3, 1e3)),
                    min_size=2, max_size=64))
    def test_mean_std_is_numpy_mean_and_std_bit_for_bit(self, rewards):
        assume(min(rewards) != max(rewards))  # constant groups get zeros
        assert_numpy_mean_std_bits(rewards)

    def test_mean_std_is_numpy_mean_and_std_on_every_binary_vector(self):
        # no advantage of a mixed 0/1 group is zero, so == tells the bits apart
        for length in range(2, 17):
            for bits in range(1, 2 ** length - 1):  # all but the constant vectors
                rewards = [(bits >> i) & 1 for i in range(length)]
                arr = np.asarray(rewards, dtype=float)
                assert (group_advantages(rewards, MEAN_STD)
                        == list((arr - arr.mean()) / arr.std())), rewards

    @pytest.mark.parametrize("rewards", [
        [1.0, math.nan], [math.nan, 1.0], [1.0, math.inf], [0.0, 1.0, -math.inf],
        [np.float64(math.nan), 0.0, 0.0], [math.inf, math.inf]])
    def test_mean_std_not_finite_is_error(self, rewards):
        # wherever the reward sits, as MEAN_ONLY raises for it, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^MEAN_STD rewards must be finite"):
                group_advantages(rewards, MEAN_STD)

    def test_constant_float_rewards_zero(self):
        # numpy's mean of [0.1] * 3 is not 0.1, so a std-based test of
        # constancy would normalize rounding error to advantages of -1
        assert group_advantages([0.1] * 3, MEAN_STD) == [0.0] * 3

    def test_exhaustive_binary_properties(self):
        for length in range(2, 7):
            for bits in itertools.product([0, 1], repeat=length):
                rewards = list(bits)
                adv = group_advantages(rewards, MEAN_ONLY)
                assert sum(adv) == 0  # exact, not approximate
                mixed = 0 < sum(rewards) < length
                if mixed:
                    for mode in (MEAN_ONLY, MEAN_STD):
                        for r, a in zip(rewards, group_advantages(rewards, mode)):
                            assert (a > 0) == (r == 1)


def assert_numpy_mean_std_bits(rewards):
    # huge rewards overflow to inf and nan in both forms alike
    with np.errstate(all="ignore"):
        arr = np.asarray(rewards, dtype=float)
        expected = list((arr - arr.mean()) / arr.std())
        adv = group_advantages(rewards, MEAN_STD)
    assert np.array(adv).tobytes() == np.array(expected).tobytes(), rewards
    assert list(map(type, adv)) == list(map(type, expected)), rewards


class TestDraw:
    """grpo._draw against Generator.choice on twin generators."""

    @staticmethod
    def distributions(seed):
        dirichlet = np.random.default_rng(seed).dirichlet(np.ones(len(LABELS)), size=1000)
        extremes = np.array([[1e-300, 0.5, 0.5], [0.5, 1e-300, 0.5], [1e-300, 1e-300, 1.0],
                             [0.0, 0.3, 0.7], [0.3, 0.0, 0.7], [0.3, 0.7, 0.0],
                             [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                             [1e-300, 0.0, 1.0]])
        return np.concatenate([dirichlet, extremes])

    @pytest.mark.parametrize("size", [2, 3, 16, 32])
    def test_matches_generator_choice(self, size):
        for seed, p in enumerate(self.distributions(size)):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(grpo._draw(p, ours, size),
                                  numpys.choice(len(LABELS), size=size, p=p)), p
            assert ours.random() == numpys.random()  # the same stream position

    def test_scalar_draw_over_non_gold_labels_matches_generator_choice(self):
        # reference_mixed_group's draw of one non-gold action
        for seed, pi in enumerate(self.distributions(0)):
            for gold_idx in range(len(LABELS)):
                wrong = [i for i in range(len(LABELS)) if i != gold_idx]
                if pi[wrong].sum() == 0:
                    continue  # all mass on gold: choice rejects 0 / 0 too
                p = pi[wrong] / pi[wrong].sum()
                ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
                assert wrong[grpo._draw(p, ours)] == numpys.choice(wrong, p=p), p
                assert ours.random() == numpys.random()

    @pytest.mark.parametrize("group_size", [2, 3, 8, 16])
    def test_mixed_group_matches_reference(self, group_size):
        # one stacked draw of 300 groups, each row from its own generator's
        # raw randoms, against that generator's twin drawing through choice
        pis = np.random.default_rng(group_size).dirichlet(np.ones(len(LABELS)), size=300)
        gold_idx = np.arange(len(pis)) % len(LABELS)
        ours = [np.random.default_rng(seed) for seed in range(len(pis))]
        uniforms, perms = map(np.array, zip(*[
            (rng.random(group_size - 1), rng.permutation(group_size)) for rng in ours]))
        idx = grpo._mixed_groups(pis, gold_idx, uniforms, perms)
        assert idx.shape == (len(pis), group_size)
        for seed, (pi, gold, row, rng) in enumerate(zip(pis, gold_idx, idx, ours)):
            numpys = np.random.default_rng(seed)
            want = reference_mixed_group(pi, int(gold), group_size, numpys)
            assert row.dtype == want.dtype and np.array_equal(row, want), seed
            assert rng.random() == numpys.random()

    @pytest.mark.parametrize("bad", [[np.nan] * 3, [0.5, np.nan, 0.5], [np.inf, 0.0, 0.0],
                                     [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    def test_mixed_groups_reject_a_distribution_not_finite(self, bad):
        # the last one puts all its mass on gold: no non-gold label to draw
        pis = np.array([[0.2, 0.3, 0.5], bad])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^cannot draw from the distribution"), \
                np.errstate(invalid="ignore", divide="ignore"):
            grpo._mixed_groups(pis, np.zeros(2, dtype=int), rng.random((2, 7)),
                               np.array([rng.permutation(8) for _ in range(2)]))

    @pytest.mark.parametrize("p", [[np.nan] * 3, [0.5, np.nan, 0.5], [np.inf, 0.0, 0.0],
                                   [np.inf, -np.inf, 1.0], [0.0, 0.0, 0.0]])
    @pytest.mark.parametrize("size", [None, 16])
    def test_distribution_not_finite_is_named_error_before_any_draw(self, p, size):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^cannot draw from the distribution"), \
                np.errstate(invalid="ignore"):  # inf - inf in the cumulative sum
            grpo._draw(np.array(p), rng, size)
        assert rng.random() == np.random.default_rng(0).random()


class TestKl:
    def test_identity(self):
        u = [1 / 3, 1 / 3, 1 / 3]
        assert kl_categorical(u, u) == 0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3)).clip(1e-9)
            q = rng.dirichlet(np.ones(3)).clip(1e-9)
            p, q = p / p.sum(), q / q.sum()
            assert kl_categorical(p, q) >= 0

    def test_against_high_precision_summation(self):
        import mpmath

        mpmath.mp.dps = 50
        p = [0.5, 0.25, 0.25]
        q = [1 / 3, 1 / 3, 1 / 3]
        expected = sum(
            mpmath.mpf(pi) * mpmath.log(mpmath.mpf(pi) / mpmath.mpf(qi))
            for pi, qi in zip(p, q)
        )
        assert abs(kl_categorical(p, q) - float(expected)) < 1e-14

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(ValueError):
            kl_categorical([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])

    def test_loss_kl_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p, q = grpo._random_distributions(rng, 2)
            kl, _ = grpo._kl_and_logit_grad(p, np.log(q))
            assert abs(kl - kl_categorical(p, q)) < 1e-12

    def test_stacked_kl_matches_each_pair_and_np_dot(self):
        rows = grpo._random_distributions(np.random.default_rng(6), 400)
        p, q = rows[0::2], rows[1::2]
        kls, grads = grpo._kl_and_logit_grad(p, np.log(q))
        for i in range(len(p)):
            kl, grad = grpo._kl_and_logit_grad(p[i], np.log(q[i]))
            assert kl == kls[i] == np.dot(p[i], np.log(p[i]) - np.log(q[i]))
            assert np.array_equal(grad, grads[i])

    @pytest.mark.parametrize("seed", [0, 1, 8])
    def test_batched_draws_equal_sequential_draws(self, seed):
        batched = grpo._random_distributions(np.random.default_rng(seed), 500)
        rng = np.random.default_rng(seed)
        sequential = [sequential_random_distribution(rng) for _ in range(500)]
        assert np.array_equal(batched, np.array(sequential))

    def test_checks_take_each_reference_log_themselves(self, monkeypatch):
        # kl_checks hands _kl_and_logit_grad np.log of each q it names
        kl_and_grad, calls = grpo._kl_and_logit_grad, []

        def recorded(p, log_q):
            calls.append((p, log_q))
            return kl_and_grad(p, log_q)

        monkeypatch.setattr(grpo, "_kl_and_logit_grad", recorded)
        assert kl_checks(seed=3)[0]
        rows = grpo._random_distributions(np.random.default_rng(3), 2000)
        qs = [np.full(3, 1 / 3), rows[1::2], rows[0::2]]
        assert len(calls) == len(qs)
        for (_, log_q), q in zip(calls, qs):
            assert log_q.tobytes() == np.log(q).tobytes()

    def test_checks_reject_reversed_kl(self, monkeypatch):
        def reversed_kl(p, log_q):
            # KL(q || p) and its gradient w.r.t. the logits producing p
            q = np.exp(log_q)
            return float(np.dot(q, log_q - np.log(p))), p - q

        monkeypatch.setattr(grpo, "_kl_and_logit_grad", reversed_kl)
        ok, _ = kl_checks(seed=0)
        assert not ok

    @pytest.mark.parametrize("flaw, detail", [
        ("negative", "KL negative"),
        ("nonzero_at_p_eq_q", "KL(p, p) != 0"),
        ("gradient_at_p_eq_q", "KL gradient nonzero at pi == pi_ref"),
    ])
    def test_checks_reject_kl_wrong_only_on_generated_pairs(
            self, monkeypatch, flaw, detail):
        # right on the closed form's (1/2, 1/4, 1/4), wrong where p or q puts
        # more than 0.9 on the first label, which about 1% of draws do
        kl_and_grad = grpo._kl_and_logit_grad

        def flawed(p, log_q):
            kl, grad = kl_and_grad(p, log_q)
            if flaw == "negative":
                return np.where(log_q[..., 0] > math.log(0.9), -kl, kl), grad
            off = np.asarray(p)[..., 0] > 0.9
            if flaw == "nonzero_at_p_eq_q":
                return kl + 1e-9 * off, grad
            return kl, grad + 1e-8 * off[..., None]

        assert kl_checks(seed=0) == (True, "closed form and 1000 generated pairs")
        monkeypatch.setattr(grpo, "_kl_and_logit_grad", flawed)
        assert kl_checks(seed=0) == (False, detail)


def make_group(actions, gold, features=None, mode=MEAN_STD) -> Group:
    features = features if features is not None else np.ones(FEATURE_DIM)
    rewards = [reward(a, gold) for a in actions]
    return Group(features=features, actions=tuple(actions),
                 advantages=tuple(group_advantages(rewards, mode)), gold=gold)


class TestGrpoLoss:
    def test_zero_advantages_zero_loss_and_grad(self):
        cfg = GrpoConfig(beta=0.0)
        policy = initial_policy()
        group = make_group(["A", "A", "A"], "A")  # degenerate, advantages all 0
        loss, grad = group_loss(policy, policy, group, cfg)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_kl_term_zero_at_old_policy(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(FEATURE_DIM, 3))
        policy = PolicyState(theta=theta)
        cfg0 = GrpoConfig(beta=0.0)
        cfg1 = GrpoConfig(beta=0.7)
        group = make_group(["A", "B", "C", "A"], "A",
                           features=rng.normal(size=FEATURE_DIM))
        loss0, _ = group_loss(policy, policy, group, cfg0)
        loss1, _ = group_loss(policy, policy, group, cfg1)
        assert loss0 == pytest.approx(loss1, abs=1e-15)

    def test_kl_gradient_vanishes_at_old_policy(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(FEATURE_DIM, 3))
        policy = PolicyState(theta=theta)
        features = rng.normal(size=FEATURE_DIM)
        group = make_group(["A", "A", "A"], "A", features=features)  # adv = 0
        _, grad = group_loss(policy, policy, group, GrpoConfig(beta=1.0))
        assert np.abs(grad).max() < 1e-10

    @pytest.mark.parametrize("mode", [SAMPLED, PAPER_LITERAL])
    @pytest.mark.parametrize("beta", [0.0, 0.01, 0.1])
    def test_gradient_matches_finite_differences(self, mode, beta):
        rng = np.random.default_rng(42)
        theta = rng.normal(size=(FEATURE_DIM, 3))
        ref = PolicyState(theta=theta + rng.normal(scale=0.2, size=theta.shape))
        features = rng.normal(size=FEATURE_DIM)
        cfg = GrpoConfig(beta=beta, objective_mode=mode)
        group = make_group(["A", "B", "C", "A", "B", "A"], "B", features=features)
        _, grad = group_loss(PolicyState(theta=theta), ref, group, cfg)

        def loss_at(t):
            return group_loss(PolicyState(theta=t), ref, group, cfg)[0]

        fd = finite_difference_grad(loss_at, theta, step=1e-5)
        denom = max(np.linalg.norm(grad), np.linalg.norm(fd))
        assert np.linalg.norm(grad - fd) / denom < 1e-6

    def test_finite_differences_match_reference(self):
        rng = np.random.default_rng(31)
        for mode, beta in itertools.product((SAMPLED, PAPER_LITERAL), (0.0, 0.01, 1.0)):
            cfg = GrpoConfig(beta=beta, objective_mode=mode)
            for _ in range(10):
                theta = rng.normal(scale=0.8, size=(FEATURE_DIM, 3))
                ref = PolicyState(theta=theta + rng.normal(scale=0.3, size=theta.shape))
                group = random_group(rng)

                def loss_at(t, _ref=ref, _group=group, _cfg=cfg):
                    return group_loss(PolicyState(theta=t), _ref, _group, _cfg)[0]

                for step in (1e-5, 1e-3):
                    assert np.array_equal(
                        finite_difference_grad(loss_at, theta, step),
                        reference_finite_difference_grad(loss_at, theta, step))

    def test_stacked_finite_differences_match_reference_row_by_row(self):
        # one stacked call over M groups, each with its own theta, reference
        # policy, features, objective mode and beta, as gradient_check makes it
        rng = np.random.default_rng(37)
        m = 12
        thetas = rng.normal(scale=0.8, size=(m, FEATURE_DIM, 3))
        refs = thetas + rng.normal(scale=0.3, size=thetas.shape)
        groups = [random_group(rng) for _ in range(m)]
        cfgs = [GrpoConfig(beta=float(rng.choice([0.0, 0.01, 1.0])),
                           objective_mode=OBJECTIVE_MODES[i % 2]) for i in range(m)]
        # axes: group, perturbed thetas, phi as a one-row matrix
        phi = np.array([g.features for g in groups])[:, None, None]
        w = np.array([label_weights(g, c.objective_mode)
                      for g, c in zip(groups, cfgs)])[:, None, None]
        beta = np.array([c.beta for c in cfgs])[:, None, None]

        pi_ref = PolicyState(theta=refs[:, None]).distribution(phi)

        def losses(t):
            pi = PolicyState(theta=t).distribution(phi)
            return loss_of(pi, pi_ref, w, beta, loss_only=True)[0][..., 0]

        for step in (1e-5, 1e-3):
            stacked = finite_difference_grad(losses, thetas, step, stack_ndim=1)
            assert stacked.shape == thetas.shape
            for i in range(m):
                def loss_at(t, _i=i):
                    return group_loss(PolicyState(theta=t), PolicyState(theta=refs[_i]),
                                      groups[_i], cfgs[_i])[0]

                assert np.array_equal(
                    stacked[i], reference_finite_difference_grad(loss_at, thetas[i], step))

    def test_matches_reference_loss(self):
        # None draws arbitrary advantages that need not sum to zero: only such
        # groups exercise the (sum_a w_a) * pi term of the gradient
        rng = np.random.default_rng(11)
        for mode, adv_mode, beta in itertools.product(
                (SAMPLED, PAPER_LITERAL), (MEAN_STD, MEAN_ONLY, None), (0.0, 0.01, 1.0)):
            cfg = GrpoConfig(beta=beta, objective_mode=mode)
            for _ in range(60):
                theta = rng.normal(scale=0.8, size=(FEATURE_DIM, 3))
                ref = PolicyState(theta=theta + rng.normal(scale=0.3, size=theta.shape))
                policy = PolicyState(theta=theta)
                actions = [LABELS[i] for i in rng.integers(3, size=rng.integers(2, 17))]
                gold = LABELS[int(rng.integers(3))]
                features = rng.normal(size=FEATURE_DIM)
                if adv_mode is None:
                    group = Group(
                        features=features, actions=tuple(actions), gold=gold,
                        advantages=tuple(rng.normal(loc=0.5, size=len(actions))))
                else:
                    group = make_group(actions, gold, features, adv_mode)
                loss, grad = group_loss(policy, ref, group, cfg)
                want_loss, want_grad = reference_grpo_loss(policy, ref, group, cfg)
                if mode == PAPER_LITERAL:
                    assert loss == want_loss
                    assert np.array_equal(grad, want_grad)
                else:
                    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
                    assert (np.abs(grad - want_grad).max()
                            <= 1e-12 * np.abs(want_grad).max())

    def test_loss_only_objective_gives_the_same_losses(self):
        rng = np.random.default_rng(41)
        pi, pi_ref = grpo._random_distributions(rng, 2 * 60).reshape(2, 60, 3)
        w = rng.normal(size=(60, 3))
        beta = rng.choice([0.0, 0.01, 1.0], size=60)
        loss, grad_logits = loss_of(pi, pi_ref, w, beta)
        loss_only, none = loss_of(pi, pi_ref, w, beta, loss_only=True)
        assert none is None and grad_logits.shape == (60, 3)
        assert loss_only.tobytes() == loss.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_precomputed_terms_give_the_formulas_bits(self, data):
        # stacks of up to two axes; w either one row for the whole stack or
        # one per row; beta a float or an array broadcast against the losses
        stack = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="stack"))
        logits = data.draw(hnp.arrays(float, (2, *stack, len(LABELS)),
                                      elements=st.floats(-30.0, 30.0)), label="logits")
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        pi, pi_ref = exp / exp.sum(axis=-1, keepdims=True)
        w_shape = data.draw(st.sampled_from([(len(LABELS),), (*stack, len(LABELS))]))
        w = data.draw(hnp.arrays(float, w_shape, elements=st.floats(-2.0, 2.0)), label="w")
        if data.draw(st.booleans(), label="float beta"):
            beta = data.draw(st.sampled_from([0.0, 0.01, 0.1, 1.0, 2.5]), label="beta")
        else:
            beta_shape = tuple(data.draw(st.sampled_from([1, n])) for n in stack)
            beta = data.draw(hnp.arrays(float, beta_shape, elements=st.floats(0.0, 2.0)),
                             label="beta")
        loss_only = data.draw(st.booleans(), label="loss_only")
        loss, grad = grpo_loss(pi, np.log(pi_ref), w,
                               np.add.reduce(w, axis=-1, keepdims=True), beta, loss_only)
        want_loss, want_grad = formula_grpo_loss(pi, pi_ref, w, beta, loss_only)
        assert loss.shape == want_loss.shape and loss.tobytes() == want_loss.tobytes()
        if loss_only:
            assert grad is None and want_grad is None
        else:
            assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()

    def test_stack_of_thetas_matches_each_theta_alone(self):
        rng = np.random.default_rng(23)
        for mode, beta in itertools.product((SAMPLED, PAPER_LITERAL), (0.0, 0.01, 1.0)):
            cfg = GrpoConfig(beta=beta, objective_mode=mode)
            for _ in range(20):
                thetas = rng.normal(scale=0.8, size=(2, 5, FEATURE_DIM, 3))
                ref = PolicyState(theta=rng.normal(scale=0.8, size=(FEATURE_DIM, 3)))
                group = random_group(rng)
                losses, grads = group_loss(PolicyState(theta=thetas), ref, group, cfg)
                assert losses.shape == (2, 5)
                assert grads.shape == thetas.shape
                for idx in np.ndindex(losses.shape):
                    loss, grad = group_loss(PolicyState(theta=thetas[idx]), ref,
                                            group, cfg)
                    assert loss.shape == () and loss == losses[idx]
                    assert np.array_equal(grad, grads[idx])

    def test_paper_literal_advantage_scheme(self):
        # full-action-set objective: +1 on the gold label, -1/2 elsewhere
        policy = initial_policy()
        cfg = GrpoConfig(beta=0.0, objective_mode=PAPER_LITERAL)
        group = make_group(["A", "B"], "B")
        loss, _ = group_loss(policy, policy, group, cfg)
        expected = -(1.0 * np.log(1 / 3) - 0.5 * np.log(1 / 3) - 0.5 * np.log(1 / 3))
        assert loss == pytest.approx(expected)

    def test_improvement_property(self):
        # one small step on a mixed group must not decrease pi(gold) at beta=0
        rng = np.random.default_rng(9)
        for _ in range(20):
            theta = rng.normal(scale=0.5, size=(FEATURE_DIM, 3))
            features = rng.normal(size=FEATURE_DIM)
            policy = PolicyState(theta=theta)
            cfg = GrpoConfig(beta=0.0, group_size=8)
            gold = "B"
            drawn = np.random.default_rng(17).choice(
                len(LABELS), size=cfg.group_size, p=policy.distribution(features))
            group = make_group([LABELS[i] for i in drawn], gold, features)
            if not is_mixed(group.actions, gold):
                continue
            _, grad = group_loss(policy, policy, group, cfg)
            for lr in (1e-4, 1e-3):
                stepped = PolicyState(theta=theta - lr * grad)
                before = policy.distribution(features)[LABELS.index(gold)]
                after = stepped.distribution(features)[LABELS.index(gold)]
                assert after >= before - 1e-12


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(ValueError):
            GrpoConfig(beta=-0.1)
        with pytest.raises(ValueError):
            GrpoConfig(group_size=1)
        with pytest.raises(ValueError):
            GrpoConfig(advantage_mode="median")
        with pytest.raises(ValueError):
            GrpoConfig(objective_mode="clipped")
        with pytest.raises(ValueError, match="steps"):
            GrpoConfig(steps=-1)
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta"):
                GrpoConfig(beta=beta)
        for learning_rate in (math.nan, math.inf, -math.inf, 0.0, -0.5):
            with pytest.raises(ValueError, match="learning_rate"):
                GrpoConfig(learning_rate=learning_rate)
        assert GrpoConfig(steps=0).steps == 0

    def test_defaults(self):
        cfg = GrpoConfig()
        assert cfg.group_size == 16
        assert cfg.advantage_mode == MEAN_STD
        assert cfg.objective_mode == SAMPLED


class TestTrainToy:
    def test_zero_steps_identity(self):
        dataset = make_toy_dataset(20, seed=0)
        policy, curve = train_toy(dataset, GrpoConfig(steps=0), seed=1)
        assert curve == []
        assert np.all(policy.theta == 0)

    def test_deterministic(self):
        dataset = make_toy_dataset(50, seed=0)
        cfg = GrpoConfig(steps=40)
        _, curve_a = train_toy(dataset, cfg, seed=5)
        _, curve_b = train_toy(dataset, cfg, seed=5)
        assert curve_a == curve_b

    def test_separable_fixture_learns(self):
        dataset = make_toy_dataset(300, seed=2)
        policy, curve = train_toy(dataset, GrpoConfig(steps=300), seed=2)
        assert curve[-1].mean_gold_prob > 0.9

    def test_beta_keeps_policy_near_reference(self):
        # the reference is the initial, uniform policy, frozen for the whole run
        dataset = make_toy_dataset(300, seed=2)
        features = feature_matrix(dataset)
        uniform = initial_policy().distribution(features[0])

        def final_mean_kl(beta):
            policy, _ = train_toy(dataset, GrpoConfig(beta=beta, steps=300), seed=2)
            return np.mean([kl_categorical(policy.distribution(x), uniform)
                            for x in features])

        assert final_mean_kl(1.0) < final_mean_kl(0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_toy([], GrpoConfig(), seed=0)

    @staticmethod
    def assert_curve_matches_reference(objective_mode, advantage_mode):
        # the curve is computed after the loop in blocks of steps; every step
        # count on either side of a block boundary gives the reference's
        # curve, which takes each step's full softmax as it goes
        dataset = make_toy_dataset(200, seed=3)
        block = grpo._CURVE_BLOCK_ENTRIES // len(dataset)
        for steps in (0, 1, block - 1, block, block + 1, 2 * block + 3):
            cfg = GrpoConfig(steps=steps, objective_mode=objective_mode,
                             advantage_mode=advantage_mode)
            policy, curve = train_toy(dataset, cfg, seed=3)
            theta, want = reference_train_toy(dataset, cfg, 3)
            assert repr(curve) == repr(want), steps  # floats, not np.float64s
            assert policy.theta.tobytes() == theta.tobytes(), steps

    @pytest.mark.parametrize("objective_mode, advantage_mode", [
        (SAMPLED, MEAN_STD), (SAMPLED, MEAN_ONLY), (PAPER_LITERAL, MEAN_STD),
    ])
    def test_matches_reference_gold_prob(self, objective_mode, advantage_mode):
        self.assert_curve_matches_reference(objective_mode, advantage_mode)

    @pytest.mark.parametrize("seed, settings", [
        *((seed, {"objective_mode": objective_mode, "advantage_mode": advantage_mode})
          for objective_mode, advantage_mode, seed in itertools.product(
              OBJECTIVE_MODES, (MEAN_STD, MEAN_ONLY), (1, 2, 5))),
        (0, {"group_size": 2, "beta": 0.0}),
        (0, {"group_size": 3, "beta": 0.5}),
        (0, {"group_size": 32}),
        (0, {"group_size": 32, "beta": 1.0}),  # groups rarely repeat
    ])
    def test_matches_reference_train_toy(self, seed, settings):
        dataset = make_toy_dataset(200, seed=seed)
        cfg = GrpoConfig(steps=300, **settings)
        policy, curve = train_toy(dataset, cfg, seed=seed)
        theta, ref_curve = reference_train_toy(dataset, cfg, seed=seed)
        assert repr(curve) == repr(ref_curve)  # reprs tell -0.0 from 0.0
        assert policy.theta.tobytes() == theta.tobytes()

    def test_one_policy_distribution_per_step_and_one_reference_per_run(
            self, monkeypatch):
        # each step: the policy's distribution, the draw from it and one
        # grpo_loss call. The zero reference is uniform at every row, so its
        # distribution and that distribution's log are taken once per run,
        # before the first step. No other np.log takes a reference distribution
        events, refs = [], []
        make_initial, distribution, draw, loss, log = (
            grpo.initial_policy, PolicyState.distribution, grpo._draw, grpo.grpo_loss,
            np.log)

        def initial(feature_dim):
            refs.append(make_initial(feature_dim))
            return refs[-1]

        def counted_distribution(self, features):
            pi = distribution(self, features)
            events.append(("distribution", self, pi))
            return pi

        def counted_draw(*args):
            events.append(("draw",))
            return draw(*args)

        def counted_loss(*args):
            events.append(("loss",))
            return loss(*args)

        def counted_log(x, *args, **kwargs):
            events.append(("log", x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(grpo, "initial_policy", initial)
        monkeypatch.setattr(PolicyState, "distribution", counted_distribution)
        monkeypatch.setattr(grpo, "_draw", counted_draw)
        monkeypatch.setattr(grpo, "grpo_loss", counted_loss)
        monkeypatch.setattr(np, "log", counted_log)
        steps = 120
        train_toy(make_toy_dataset(20, seed=0), GrpoConfig(steps=steps), seed=0)

        kinds, ref_pis = "", []
        for event, following in zip(events, events[1:] + [None]):
            if event == ("draw",):
                kinds += "D"
            elif event == ("loss",):
                kinds += "L"
            elif event[0] == "log":  # grpo_loss's own logs of pi are not shown
                kinds += "G" if any(event[1] is pi for pi in ref_pis) else ""
            elif following == ("draw",):  # the policy's, drawn from
                kinds += "P"
            else:
                assert event[1] is refs[0]
                kinds += "R"
                ref_pis.append(event[2])
        assert len(refs) == 1
        assert re.fullmatch(f"RG(PDL){{{steps}}}", kinds)

    @pytest.fixture(scope="class")
    def zero_reference_run(self):
        """Each step's log_ref of a run at the zero reference, and the run's
        features."""
        log_refs, loss = [], grpo.grpo_loss

        def recorded_loss(pi, log_ref, *args):
            log_refs.append(log_ref)
            return loss(pi, log_ref, *args)

        dataset = make_toy_dataset(200, seed=4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grpo, "grpo_loss", recorded_loss)
            train_toy(dataset, GrpoConfig(steps=300), seed=4)
        return log_refs, feature_matrix(dataset)

    def test_zero_reference_is_one_array_that_is_each_rows_own_call(
            self, zero_reference_run):
        log_refs, features = zero_reference_run
        assert len(log_refs) == 300 and all(p is log_refs[0] for p in log_refs)
        for phi in features:
            assert (np.log(initial_policy().distribution(phi)).tobytes()
                    == log_refs[0].tobytes())

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=FEATURE_DIM, max_size=FEATURE_DIM))
    @example([-0.0] * FEATURE_DIM)
    @example([0.0, -0.0, -0.0, 0.0])
    @example([1.7976931348623157e308, -1.7976931348623157e308, -5e-324, -0.0])
    @example([-1e300, -1e300, -1e300, -1e300])
    def test_zero_reference_array_is_any_finite_rows_own_call(
            self, zero_reference_run, row):
        # phi @ 0 is +0 or -0 in every column, so every row's logits tie
        log_ref = zero_reference_run[0][0]
        assert (np.log(initial_policy().distribution(np.array(row))).tobytes()
                == log_ref.tobytes())

    @staticmethod
    def record_steps(monkeypatch, dataset, cfg, seed):
        """Run train_toy, recording each _weights call by its (gold, drawn
        indices' bytes) group, each weights array _weights built with its
        bytes then, and each step's group and grpo_loss w and w_sum."""
        built, weight_calls, steps = [], [], []
        weights = grpo._weights
        draw, loss, theta_grad = grpo._draw, grpo.grpo_loss, grpo._theta_grad

        def counted_weights(action_idx, gold_idx, advantage_mode, objective_mode):
            weight_calls.append((gold_idx, action_idx.tobytes()))
            w = weights(action_idx, gold_idx, advantage_mode, objective_mode)
            built.append((w, w.tobytes()))
            return w

        def recorded_draw(*args):
            steps.append({"drawn": draw(*args)})
            return steps[-1]["drawn"]

        def recorded_loss(pi, log_ref, w, w_sum, beta):
            steps[-1]["w"], steps[-1]["w_sum"] = w, w_sum
            return loss(pi, log_ref, w, w_sum, beta)

        def recorded_theta_grad(phi, grad_logits):
            steps[-1]["phi"] = phi
            return theta_grad(phi, grad_logits)

        for name, fn in [("_weights", counted_weights), ("_draw", recorded_draw),
                         ("grpo_loss", recorded_loss), ("_theta_grad", recorded_theta_grad)]:
            monkeypatch.setattr(grpo, name, fn)
        train_toy(dataset, cfg, seed=seed)
        features = feature_matrix(dataset)
        golds = [LABELS.index(s.gold_label) for s in dataset]
        for step in steps:
            row = int(np.flatnonzero((features == step["phi"]).all(axis=1))[0])
            step["group"] = golds[row], step["drawn"].tobytes()
        return built, weight_calls, steps

    @pytest.mark.parametrize("settings", [
        *({"objective_mode": objective_mode, "advantage_mode": advantage_mode}
          for objective_mode, advantage_mode in itertools.product(
              OBJECTIVE_MODES, (MEAN_STD, MEAN_ONLY))),
        {"group_size": 2},
    ])
    def test_label_weights_once_per_distinct_group(self, monkeypatch, settings):
        cfg = GrpoConfig(steps=400, **settings)
        _, weight_calls, steps = self.record_steps(
            monkeypatch, make_toy_dataset(200, seed=8), cfg, seed=8)
        groups = [step["group"] for step in steps]
        assert len(groups) == cfg.steps
        # each distinct group once, at its first step
        assert weight_calls == list(dict.fromkeys(groups))
        assert len(weight_calls) < cfg.steps / 2

    def test_label_weights_are_not_written_after_they_are_built(self, monkeypatch):
        built, _, steps = self.record_steps(
            monkeypatch, make_toy_dataset(200, seed=8), GrpoConfig(steps=400), seed=8)
        first = {}
        for step in steps:
            # a step's w and w_sum are the arrays built for its group's first
            # step, both read-only
            w, w_sum = first.setdefault(step["group"], (step["w"], step["w_sum"]))
            assert step["w"] is w and step["w_sum"] is w_sum
            assert not w.flags.writeable and not w_sum.flags.writeable
        assert len(first) == len(built) < len(steps)
        for (w, at_build), (w_used, w_sum) in zip(built, first.values()):
            assert w is w_used and w.tobytes() == at_build
            assert (w_sum.tobytes()
                    == np.add.reduce(w, axis=-1, keepdims=True).tobytes())

    def test_reference_log_is_each_visited_rows_own_call(self, monkeypatch):
        # the log taken once, at the first row, is bit for bit the frozen
        # initial policy's 1-D call at the row of every step
        log_refs, phis = [], []
        loss, theta_grad = grpo.grpo_loss, grpo._theta_grad

        def recorded_loss(pi, log_ref, *args):
            log_refs.append(log_ref)
            return loss(pi, log_ref, *args)

        def recorded_theta_grad(phi, grad_logits):
            phis.append(phi)
            return theta_grad(phi, grad_logits)

        monkeypatch.setattr(grpo, "grpo_loss", recorded_loss)
        monkeypatch.setattr(grpo, "_theta_grad", recorded_theta_grad)
        dataset = make_toy_dataset(200, seed=4)
        train_toy(dataset, GrpoConfig(steps=300), seed=4)
        features = feature_matrix(dataset)
        ref = initial_policy(features.shape[1])
        rows = [int(np.flatnonzero((features == phi).all(axis=1))[0]) for phi in phis]
        assert len(rows) == len(log_refs) == 300 and len(set(rows)) > 1
        for i, log_ref in zip(rows, log_refs):
            assert log_ref.tobytes() == np.log(ref.distribution(features[i])).tobytes()

    def test_distribution_not_finite_is_named_error(self, monkeypatch):
        # all-inf weights give nan logits; the first draw names them instead
        # of drawing label 0 sixteen times
        monkeypatch.setattr(grpo, "initial_policy", lambda feature_dim: PolicyState(
            theta=np.full((feature_dim, len(LABELS)), np.inf)))
        with pytest.raises(ValueError, match="^cannot draw from the distribution "
                                             r"\[nan nan nan\]"):
            train_toy(make_toy_dataset(20, seed=0), GrpoConfig(steps=5), seed=0)

    @pytest.mark.parametrize("n", [1, 50, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_dataset_matches_reference(self, n, seed):
        assert make_toy_dataset(n, seed) == reference_make_toy_dataset(n, seed)

    def test_greedy_tie_break(self):
        policy = initial_policy()
        assert greedy_label(policy, np.ones(FEATURE_DIM)) == "A"

    def test_feature_matrix_shape(self):
        dataset = make_toy_dataset(10, seed=0)
        feats = feature_matrix(dataset)
        assert feats.shape == (10, FEATURE_DIM)
        assert np.all(feats[:, 0] == 1.0)

    @pytest.mark.parametrize("distinct", [True, False])
    def test_feature_matrix_counts_each_distinct_chain_once(self, monkeypatch, distinct):
        dataset = make_toy_dataset(300, seed=5)
        if distinct:  # every chain its own text, of its own length
            dataset = [dataclasses.replace(s, cot=f"{s.cot} " + "w " * i)
                       for i, s in enumerate(dataset)]
        want = reference_feature_matrix(dataset)
        count_tokens, counted = parsing.count_tokens, []

        def recorded(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(parsing, "count_tokens", recorded)
        got = feature_matrix(dataset)
        cots = {s.cot for s in dataset}
        assert sorted(counted) == sorted(cots)
        assert (len(cots) == len(dataset)) is distinct
        assert got.tobytes() == want.tobytes()


def gold_fixture(n: int, seed: int = 0):
    """Features, gold label indices and _mean_gold_probs's gold_flat of a toy
    dataset of n rows."""
    dataset = make_toy_dataset(n, seed=seed)
    gold_idx = np.array([LABELS.index(s.gold_label) for s in dataset])
    return feature_matrix(dataset), gold_idx, gold_idx * n + np.arange(n)


class TestMeanGoldProb:
    @pytest.fixture(scope="class")
    def toy(self):
        return gold_fixture(1000)

    @staticmethod
    def stack_lengths(n):
        """Stack lengths around _mean_gold_probs's block boundaries at n rows."""
        block = max(1, grpo._CURVE_BLOCK_ENTRIES // n)
        return sorted({0, 1, block - 1, block, block + 1, 2 * block + 3})

    def assert_matches_reference(self, toy, thetas):
        features, gold_idx, gold_flat = toy
        means = grpo._mean_gold_probs(thetas, features, gold_flat)
        assert means.shape == (len(thetas),)
        for theta, mean in zip(thetas, means.tolist()):
            assert mean == reference_mean_gold_prob(
                PolicyState(theta=theta), features, gold_idx), theta

    @pytest.mark.parametrize("scale", [0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    def test_random_thetas_match_reference_bit_for_bit(self, toy, scale):
        rng = np.random.default_rng(int(scale * 10))
        for length in self.stack_lengths(1000):
            self.assert_matches_reference(
                toy, rng.normal(scale=scale, size=(length, FEATURE_DIM, len(LABELS))))

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 5000, 20000])
    def test_other_row_counts_match_reference_bit_for_bit(self, n):
        # the block shrinks with n, to one step above _CURVE_BLOCK_ENTRIES rows
        toy = gold_fixture(n, seed=n)
        rng = np.random.default_rng(n)
        for length in self.stack_lengths(n):
            self.assert_matches_reference(
                toy, rng.normal(scale=3.0, size=(length, FEATURE_DIM, len(LABELS))))

    def test_zero_theta_is_one_third(self, toy):
        self.assert_matches_reference(toy, np.zeros((3, FEATURE_DIM, len(LABELS))))

    @pytest.mark.parametrize("tied", [(0, 1), (0, 2), (1, 2)])
    def test_tied_logits_match_reference(self, toy, tied):
        rng = np.random.default_rng(sum(tied))
        for scale in (0.1, 1.0, 30.0):
            thetas = rng.normal(scale=scale, size=(20, FEATURE_DIM, len(LABELS)))
            thetas[..., tied[1]] = thetas[..., tied[0]]
            self.assert_matches_reference(toy, thetas)

    def test_strided_theta_stacks_match_reference_bit_for_bit(self, toy):
        # 40 steps cross two 16-step block boundaries at 1000 rows
        big = np.random.default_rng(11).normal(
            scale=3.0, size=(80, FEATURE_DIM + 1, 2 * len(LABELS)))
        for thetas in (big[::2, 1:, ::2], big[:40, :FEATURE_DIM, ::-2],
                       np.asfortranarray(big[:40, :FEATURE_DIM, :len(LABELS)])):
            assert not thetas.flags.c_contiguous
            self.assert_matches_reference(toy, thetas)

    def test_working_set_is_a_few_blocks(self):
        # 2000 steps x 1000 rows: all (steps, 3, n) logits at once would be
        # 48 MB; blocks through reused buffers peak near 0.8 MB. tracemalloc
        # sees numpy's data allocations, as the calibration shows.
        features, _, gold_flat = gold_fixture(1000)
        thetas = np.random.default_rng(5).normal(size=(2000, FEATURE_DIM, len(LABELS)))

        def peak_bytes(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(lambda: np.empty((2000, len(LABELS), 1000))) >= 48e6
        assert peak_bytes(lambda: grpo._mean_gold_probs(thetas, features, gold_flat)) < 4e6


TRAIN_ARGV = ["grpo-train-toy", "--samples", "1000", "--seed", "4"]  # 16-step blocks


def train_outputs(out, steps):
    """curve.csv and policy.txt of a grpo-train-toy run of TRAIN_ARGV."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*TRAIN_ARGV, "--steps", str(steps), "--out-dir", str(out)]) == 0
    return (out / "curve.csv").read_bytes(), (out / "policy.txt").read_bytes()


class TestCurveBlocks:
    @pytest.mark.parametrize("steps", [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 100])
    def test_command_writes_the_reference_run(self, tmp_path, steps):
        # steps on both sides of the 16-step block boundaries of the
        # command's 1000 rows
        curve, policy = train_outputs(tmp_path / "run", steps)
        cfg = GrpoConfig(steps=steps)
        theta, want = reference_train_toy(make_toy_dataset(1000, seed=4), cfg, seed=4)
        write_curve_csv(tmp_path / "curve.csv", want)
        save_policy(tmp_path / "policy.txt", PolicyState(theta=theta), seed=4, cfg=cfg)
        assert curve == (tmp_path / "curve.csv").read_bytes()
        assert policy == (tmp_path / "policy.txt").read_bytes()

    @pytest.mark.parametrize("entries", [1, 2000, 3000, 5000, 7000, 32_000, 149_000,
                                         150_000, 151_000])
    def test_where_the_blocks_split_the_stack_does_not_change_its_bits(
            self, monkeypatch, entries):
        # blocks of 1 to 151 steps over a stack of 150 at 1000 rows
        features, _, gold_flat = gold_fixture(1000)
        thetas = np.random.default_rng(3).normal(size=(150, FEATURE_DIM, len(LABELS)))
        default = grpo._mean_gold_probs(thetas, features, gold_flat).tobytes()
        monkeypatch.setattr(grpo, "_CURVE_BLOCK_ENTRIES", entries)
        assert grpo._mean_gold_probs(thetas, features, gold_flat).tobytes() == default

    def test_nan_steps_stay_in_their_own_entries(self):
        # infinite weights make nan logits (inf - inf), which the training
        # loop's np.errstate keeps quiet; the finite steps that share their
        # blocks keep their bits
        features, _, gold_flat = gold_fixture(1000)
        thetas = np.random.default_rng(2).normal(size=(100, FEATURE_DIM, len(LABELS)))
        thetas[::7] = np.inf
        finite = np.arange(100) % 7 != 0
        with warnings.catch_warnings(), np.errstate(divide="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            means = grpo._mean_gold_probs(thetas, features, gold_flat)
        assert np.isnan(means[::7]).all()
        assert means[finite].tobytes() == \
            grpo._mean_gold_probs(thetas[finite], features, gold_flat).tobytes()

    @pytest.mark.parametrize("objective_mode, advantage_mode",
                             list(itertools.product(OBJECTIVE_MODES, (MEAN_STD, MEAN_ONLY))))
    def test_training_starts_no_thread(self, monkeypatch, objective_mode, advantage_mode):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        cfg = GrpoConfig(steps=100, objective_mode=objective_mode,
                         advantage_mode=advantage_mode)
        _, curve = train_toy(make_toy_dataset(1000, seed=4), cfg, seed=4)
        assert len(curve) == 100 and started == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_run_pinned_to_one_cpu_writes_the_same_bytes(self, tmp_path):
        script = ("import os, sys\n"
                  "if sys.argv[1] == 'pinned':\n"
                  "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                  "    assert len(os.sched_getaffinity(0)) == 1\n"
                  "from batchcot.cli import main\n"
                  "sys.exit(main(sys.argv[2:]))\n")
        src = str(Path(grpo.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs = []
        for how in ("pinned", "unpinned"):
            out = tmp_path / how
            result = subprocess.run(
                [sys.executable, "-c", script, how, *TRAIN_ARGV, "--steps", "250",
                 "--out-dir", str(out)], env=env, capture_output=True, text=True,
                timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append([(out / name).read_bytes()
                            for name in ("curve.csv", "policy.txt")])
        assert outputs[0] == outputs[1]


class TestCheckpointAndCurve:
    def test_policy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        policy = PolicyState(theta=rng.normal(size=(FEATURE_DIM, 3)))
        path = tmp_path / "policy.txt"
        save_policy(path, policy, seed=7, cfg=GrpoConfig())
        loaded = load_policy(path)
        assert np.array_equal(loaded.theta, policy.theta)

    def test_curve_csv(self, tmp_path):
        dataset = make_toy_dataset(20, seed=0)
        _, curve = train_toy(dataset, GrpoConfig(steps=5), seed=0)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,mean_gold_prob"
        assert len(lines) == 6


class TestVerificationSuite:
    def test_all_pass(self):
        results = run_verification_suite(seed=0)
        assert all(r.passed for r in results), results

    @pytest.mark.parametrize("seed", [0, 8])
    def test_gradient_check_draws_one_mixed_group_per_config_and_mode(
            self, monkeypatch, seed):
        calls = []
        draw = grpo._mixed_groups

        def counted(pi, gold_idx, uniforms, perms):
            idx = draw(pi, gold_idx, uniforms, perms)
            calls.append((idx, gold_idx))
            return idx

        monkeypatch.setattr(grpo, "_mixed_groups", counted)
        _, ok = gradient_check(seed=seed)
        assert ok
        [(groups, golds)] = calls  # one stacked draw
        assert groups.shape == (200, 8)
        assert all(is_mixed(idx, gold) for idx, gold in zip(groups, golds))
        # row by row, configuration then mode, the group the per-group loop drew
        want = list(reference_check_groups(100, seed))
        assert golds.tolist() == [gold for *_, gold, _ in want]
        for idx, (*_, expected) in zip(groups, want):
            assert idx.dtype == expected.dtype and np.array_equal(idx, expected)

    def test_stacked_policy_distributions_are_each_configs_1d_call(self):
        # gradient_check's draws take each configuration's distribution from
        # one stacked call: (1, F) @ (F, 3) per row gives the 1-D call's bits
        z = np.random.default_rng(0).standard_normal((5000, FEATURE_DIM * (len(LABELS) + 1)))
        theta = z[:, :-FEATURE_DIM].reshape(-1, FEATURE_DIM, len(LABELS))
        features = z[:, -FEATURE_DIM:]
        stacked = PolicyState(theta=theta).distribution(features[:, None])[:, 0]
        one_by_one = np.array([PolicyState(theta=t).distribution(f)
                               for t, f in zip(theta, features)])
        assert stacked.tobytes() == one_by_one.tobytes()

    def test_gradient_check_rejects_a_distribution_not_finite(self, monkeypatch):
        # the first distribution gradient_check computes is its draws'
        distribution = PolicyState.distribution
        calls = []

        def nan_first(self, features):
            calls.append(features.shape)
            pi = distribution(self, features)
            return np.full_like(pi, np.nan) if len(calls) == 1 else pi

        monkeypatch.setattr(PolicyState, "distribution", nan_first)
        with pytest.raises(ValueError, match="^cannot draw from the distribution"), \
                np.errstate(invalid="ignore"):
            gradient_check()
        assert calls == [(100, 1, FEATURE_DIM)]

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_check_matches_reference(self, seed):
        worst, ok = gradient_check(seed=seed)
        assert worst > 0.0 and ok
        assert (worst, ok) == reference_gradient_check(n_configs=100, seed=seed)

    @pytest.mark.parametrize("row", [0, 5, 13])
    def test_gradient_check_fails_on_one_wrong_gradient_row(self, monkeypatch, row):
        # 100 configurations x 2 modes: rows 0..199, one per (configuration, mode)
        objective = grpo.grpo_loss
        calls = []

        def wrong_in_one_row(pi, *args, **kwargs):
            loss, grad_logits = objective(pi, *args, **kwargs)
            calls.append((pi.shape, grad_logits is None))
            if grad_logits is not None:  # the analytic gradients, not the perturbed losses
                grad_logits[row] *= 1 + 1e-4
            return loss, grad_logits

        assert gradient_check(seed=0)[1]
        monkeypatch.setattr(grpo, "grpo_loss", wrong_in_one_row)
        worst, ok = gradient_check(seed=0)
        assert calls == [((200, 1, 1, 3), False), ((200, 2 * FEATURE_DIM * 3, 1, 3), True)]
        assert not ok
        assert worst == pytest.approx(1e-4, rel=1e-2)

    def test_gradient_check_takes_the_fixed_terms_once_for_both_calls(self, monkeypatch):
        # the reference's log-probabilities and the weights' sums are taken
        # once for the stack and handed to both grpo_loss calls
        objective, calls = grpo.grpo_loss, []
        distribution, ref_pis = PolicyState.distribution, []

        def recorded(pi, log_ref, w, w_sum, beta, loss_only=False):
            calls.append((log_ref, w, w_sum, loss_only))
            return objective(pi, log_ref, w, w_sum, beta, loss_only)

        def recorded_distribution(self, features):
            pi = distribution(self, features)
            ref_pis.append(pi)
            return pi

        monkeypatch.setattr(grpo, "grpo_loss", recorded)
        monkeypatch.setattr(PolicyState, "distribution", recorded_distribution)
        assert gradient_check(seed=8)[1]
        (log_ref, w, w_sum, first), (*again, second) = calls
        assert (first, second) == (False, True)
        assert all(a is b for a, b in zip(again, (log_ref, w, w_sum)))
        # the distributions: the draws', the reference's, then the two calls'
        assert len(ref_pis) == 4 and log_ref.shape == (200, 1, 1, len(LABELS))
        assert log_ref.tobytes() == np.log(ref_pis[1]).tobytes()
        assert w_sum.tobytes() == np.add.reduce(w, axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("fractions, zero", [
        ([Fraction(1, 3), Fraction(-1, 6), Fraction(-1, 6)], True),
        ([Fraction(1, 3), Fraction(-1, 6), Fraction(-1, 7)], False),
        ([Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)], True),
        ([Fraction(2, 5), Fraction(-1, 3)], False),
        ([Fraction(0), Fraction(0)], True),
        ([Fraction(10 ** 30 + 1, 2 ** 60), Fraction(-10 ** 30 - 1, 2 ** 60)], True),
    ])
    def test_exact_zero_sum_over_a_common_denominator(self, fractions, zero):
        assert grpo._sums_to_zero(fractions) is zero
        assert (sum(fractions) == 0) is zero

    def test_advantage_checks_catch_a_mean_only_sum_off_by_one_part_in_a_million(
            self, monkeypatch):
        advantages = grpo.group_advantages

        def off(rewards, mode=MEAN_STD):
            adv = advantages(rewards, mode)
            if mode == MEAN_ONLY and len(rewards) == 5:
                adv[-1] += Fraction(1, 10 ** 6)
            return adv

        monkeypatch.setattr(grpo, "group_advantages", off)
        assert advantage_checks() == (False, "MEAN_ONLY sum nonzero for [0, 0, 0, 0, 0]")

    @pytest.mark.parametrize("mode", [MEAN_ONLY, MEAN_STD])
    @pytest.mark.parametrize("rewards, flawed, message", [
        # negated advantages still sum to zero, with every sign wrong
        ([0, 1, 1], lambda adv: [-a for a in adv], "sign property failed"),
        # a zero-sum nonzero pair in a group of equal rewards
        ([1, 1, 1], lambda adv: [adv[0] + 1, adv[1] - 1, adv[2]],
         "degenerate group not all-zero"),
    ], ids=["wrong-sign", "nonzero-in-constant-group"])
    def test_advantage_checks_report_a_flawed_mode(self, monkeypatch, mode, rewards,
                                                   flawed, message):
        # MEAN_ONLY's flaw is planted in group_advantages; MEAN_STD's in
        # _mean_std, on the vector's row of its length's stack
        if mode == MEAN_ONLY:
            advantages = grpo.group_advantages

            def flaw(r, m=MEAN_STD):
                adv = advantages(r, m)
                return flawed(adv) if (m, r) == (mode, rewards) else adv

            monkeypatch.setattr(grpo, "group_advantages", flaw)
        else:
            mean_std = grpo._mean_std

            def flaw(stack):
                adv = mean_std(stack)
                for i, row in enumerate(stack.tolist()):
                    if row == rewards:
                        adv[i] = flawed(adv[i])
                return adv

            monkeypatch.setattr(grpo, "_mean_std", flaw)
        assert advantage_checks() == (False, f"{message} for {rewards} ({mode})")
