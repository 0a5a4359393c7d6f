import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from batchcot import grpo
from batchcot.grpo import (
    FEATURE_DIM,
    MEAN_ONLY,
    MEAN_STD,
    PAPER_LITERAL,
    SAMPLED,
    GrpoConfig,
    PolicyState,
    RolloutGroup,
    feature_matrix,
    finite_difference_grad,
    gradient_check,
    group_advantages,
    grpo_loss,
    initial_policy,
    kl_checks,
    make_toy_dataset,
    reward,
    run_verification_suite,
    sample_group,
    save_policy,
    train_toy,
    write_curve_csv,
)
from batchcot.preference import LABELS


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


def is_mixed(group) -> bool:
    """Whether the group holds both a rewarded and an unrewarded action."""
    rewards = [reward(a, group.gold) for a in group.actions]
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
            p, q = (grpo._random_distribution(rng) for _ in range(2))
            kl, _ = grpo._kl_and_logit_grad(p, q)
            assert abs(kl - kl_categorical(p, q)) < 1e-12

    def test_checks_reject_reversed_kl(self, monkeypatch):
        def reversed_kl(p, q):
            # KL(q || p) and its gradient w.r.t. the logits producing p
            return float(np.dot(q, np.log(q) - np.log(p))), p - q

        monkeypatch.setattr(grpo, "_kl_and_logit_grad", reversed_kl)
        ok, _ = kl_checks(n_pairs=1000, seed=0)
        assert not ok


def make_group(actions, gold, features=None, mode=MEAN_STD):
    features = features if features is not None else np.ones(FEATURE_DIM)
    rewards = [reward(a, gold) for a in actions]
    return RolloutGroup(
        features=features, actions=tuple(actions),
        advantages=tuple(group_advantages(rewards, mode)), gold=gold,
    )


class TestGrpoLoss:
    def test_zero_advantages_zero_loss_and_grad(self):
        cfg = GrpoConfig(beta=0.0)
        policy = initial_policy()
        group = make_group(["A", "A", "A"], "A")  # degenerate, advantages all 0
        loss, grad = grpo_loss(policy, policy, group, cfg)
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
        loss0, _ = grpo_loss(policy, policy, group, cfg0)
        loss1, _ = grpo_loss(policy, policy, group, cfg1)
        assert loss0 == pytest.approx(loss1, abs=1e-15)

    def test_kl_gradient_vanishes_at_old_policy(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(FEATURE_DIM, 3))
        policy = PolicyState(theta=theta)
        features = rng.normal(size=FEATURE_DIM)
        group = make_group(["A", "A", "A"], "A", features=features)  # adv = 0
        _, grad = grpo_loss(policy, policy, group, GrpoConfig(beta=1.0))
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
        _, grad = grpo_loss(PolicyState(theta=theta), ref, group, cfg)

        def loss_at(t):
            return grpo_loss(PolicyState(theta=t), ref, group, cfg)[0]

        fd = finite_difference_grad(loss_at, theta, step=1e-5)
        denom = max(np.linalg.norm(grad), np.linalg.norm(fd))
        assert np.linalg.norm(grad - fd) / denom < 1e-6

    def test_paper_literal_advantage_scheme(self):
        # full-action-set objective: +1 on the gold label, -1/2 elsewhere
        policy = initial_policy()
        cfg = GrpoConfig(beta=0.0, objective_mode=PAPER_LITERAL)
        group = make_group(["A", "B"], "B")
        loss, _ = grpo_loss(policy, policy, group, cfg)
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
            group = sample_group(policy, features, gold, cfg,
                                 np.random.default_rng(17))
            if not is_mixed(group):
                continue
            _, grad = grpo_loss(policy, policy, group, cfg)
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

    def test_greedy_tie_break(self):
        policy = initial_policy()
        assert greedy_label(policy, np.ones(FEATURE_DIM)) == "A"

    def test_feature_matrix_shape(self):
        dataset = make_toy_dataset(10, seed=0)
        feats = feature_matrix(dataset)
        assert feats.shape == (10, FEATURE_DIM)
        assert np.all(feats[:, 0] == 1.0)


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
        groups = []
        draw = grpo._mixed_group

        def counted(*args):
            groups.append(draw(*args))
            return groups[-1]

        monkeypatch.setattr(grpo, "_mixed_group", counted)
        _, ok = gradient_check(n_configs=100, seed=seed)
        assert ok
        assert len(groups) == 200
        assert all(is_mixed(g) for g in groups)
