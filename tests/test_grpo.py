import itertools
import math
import random
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
from batchcot import verify
from batchcot.preference import LABELS, PreferenceSample, label_sample
from batchcot.prompts import BATCH, VANILLA


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


def reference_grpo_loss(policy: PolicyState, ref_policy: PolicyState,
                        group: RolloutGroup, cfg: GrpoConfig):
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

    kl, kl_grad_logits = grpo._kl_and_logit_grad(pi, pi_ref)
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


def reference_mean_gold_prob(policy: PolicyState, features: np.ndarray,
                             gold_idx: np.ndarray) -> float:
    """Mean of the gold column of policy.distribution(features): the oracle
    for grpo._mean_gold_prob, which must give its bits."""
    probs = policy.distribution(features)
    return float(probs[np.arange(len(gold_idx)), gold_idx].mean())


def reference_group_advantages(rewards, mode: str = MEAN_STD) -> list:
    """The oracle for group_advantages, which must give its values and
    element types: MEAN_STD always goes through numpy's std."""
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
            return [0.0] * len(rewards)
        return list((arr - arr.mean()) / std)
    raise ValueError(f"unknown advantage mode: {mode!r}")


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
                provenance={
                    "origin_kind": origin_kind,
                    "batch_size": 1 if origin_kind == VANILLA else 2,
                    "position": 1,
                    "question_id": f"toy-{i}",
                },
            )
        )
    return samples


def sequential_random_distribution(rng: np.random.Generator, size: int = 3):
    """One distribution per Dirichlet draw: the oracle for the rows of
    grpo._random_distributions."""
    x = rng.dirichlet(np.ones(size))
    x = np.clip(x, 1e-9, None)
    return x / x.sum()


def random_group(rng) -> RolloutGroup:
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
            kl, _ = grpo._kl_and_logit_grad(p, q)
            assert abs(kl - kl_categorical(p, q)) < 1e-12

    def test_stacked_kl_matches_each_pair_and_np_dot(self):
        rows = grpo._random_distributions(np.random.default_rng(6), 400)
        p, q = rows[0::2], rows[1::2]
        kls, grads = grpo._kl_and_logit_grad(p, q)
        for i in range(len(p)):
            kl, grad = grpo._kl_and_logit_grad(p[i], q[i])
            assert kl == kls[i] == np.dot(p[i], np.log(p[i]) - np.log(q[i]))
            assert np.array_equal(grad, grads[i])

    @pytest.mark.parametrize("seed", [0, 1, 8])
    def test_batched_draws_equal_sequential_draws(self, seed):
        batched = grpo._random_distributions(np.random.default_rng(seed), 500)
        rng = np.random.default_rng(seed)
        sequential = [sequential_random_distribution(rng) for _ in range(500)]
        assert np.array_equal(batched, np.array(sequential))

    def test_checks_reject_reversed_kl(self, monkeypatch):
        def reversed_kl(p, q):
            # KL(q || p) and its gradient w.r.t. the logits producing p
            return float(np.dot(q, np.log(q) - np.log(p))), p - q

        monkeypatch.setattr(grpo, "_kl_and_logit_grad", reversed_kl)
        ok, _ = kl_checks(n_pairs=1000, seed=0)
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

        def flawed(p, q):
            kl, grad = kl_and_grad(p, q)
            if flaw == "negative":
                return np.where(np.asarray(q)[..., 0] > 0.9, -kl, kl), grad
            off = np.asarray(p)[..., 0] > 0.9
            if flaw == "nonzero_at_p_eq_q":
                return kl + 1e-9 * off, grad
            return kl, grad + 1e-8 * off[..., None]

        assert kl_checks(n_pairs=1000, seed=0) == (
            True, "closed form and 1000 generated pairs")
        monkeypatch.setattr(grpo, "_kl_and_logit_grad", flawed)
        assert kl_checks(n_pairs=1000, seed=0) == (False, detail)


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

    def test_finite_differences_match_reference(self):
        rng = np.random.default_rng(31)
        for mode, beta in itertools.product((SAMPLED, PAPER_LITERAL), (0.0, 0.01, 1.0)):
            cfg = GrpoConfig(beta=beta, objective_mode=mode)
            for _ in range(10):
                theta = rng.normal(scale=0.8, size=(FEATURE_DIM, 3))
                ref = PolicyState(theta=theta + rng.normal(scale=0.3, size=theta.shape))
                group = random_group(rng)

                def loss_at(t, _ref=ref, _group=group, _cfg=cfg):
                    return grpo_loss(PolicyState(theta=t), _ref, _group, _cfg)[0]

                for step in (1e-5, 1e-3):
                    assert np.array_equal(
                        finite_difference_grad(loss_at, theta, step),
                        reference_finite_difference_grad(loss_at, theta, step))

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
                    group = RolloutGroup(
                        features=features, actions=tuple(actions), gold=gold,
                        advantages=tuple(rng.normal(loc=0.5, size=len(actions))))
                else:
                    group = make_group(actions, gold, features, adv_mode)
                loss, grad = grpo_loss(policy, ref, group, cfg)
                want_loss, want_grad = reference_grpo_loss(policy, ref, group, cfg)
                if mode == PAPER_LITERAL:
                    assert loss == want_loss
                    assert np.array_equal(grad, want_grad)
                else:
                    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
                    assert (np.abs(grad - want_grad).max()
                            <= 1e-12 * np.abs(want_grad).max())

    def test_stack_of_thetas_matches_each_theta_alone(self):
        rng = np.random.default_rng(23)
        for mode, beta in itertools.product((SAMPLED, PAPER_LITERAL), (0.0, 0.01, 1.0)):
            cfg = GrpoConfig(beta=beta, objective_mode=mode)
            for _ in range(20):
                thetas = rng.normal(scale=0.8, size=(2, 5, FEATURE_DIM, 3))
                ref = PolicyState(theta=rng.normal(scale=0.8, size=(FEATURE_DIM, 3)))
                group = random_group(rng)
                losses, grads = grpo_loss(PolicyState(theta=thetas), ref, group, cfg)
                assert losses.shape == (2, 5)
                assert grads.shape == thetas.shape
                for idx in np.ndindex(losses.shape):
                    loss, grad = grpo_loss(PolicyState(theta=thetas[idx]), ref,
                                           group, cfg)
                    assert type(loss) is float
                    assert loss == losses[idx]
                    assert np.array_equal(grad, grads[idx])

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

    @pytest.mark.parametrize("objective_mode, advantage_mode", [
        (SAMPLED, MEAN_STD), (SAMPLED, MEAN_ONLY), (PAPER_LITERAL, MEAN_STD),
    ])
    def test_matches_reference_gold_prob(self, monkeypatch, objective_mode,
                                         advantage_mode):
        dataset = make_toy_dataset(200, seed=3)
        cfg = GrpoConfig(steps=150, objective_mode=objective_mode,
                         advantage_mode=advantage_mode)
        policy, curve = train_toy(dataset, cfg, seed=3)
        monkeypatch.setattr(
            grpo, "_mean_gold_prob",
            lambda p, features, gold_flat: reference_mean_gold_prob(
                p, features, gold_flat % len(LABELS)),
        )
        ref_policy, ref_curve = train_toy(dataset, cfg, seed=3)
        assert curve == ref_curve
        assert np.array_equal(policy.theta, ref_policy.theta)

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


class TestMeanGoldProb:
    @pytest.fixture(scope="class")
    def toy(self):
        dataset = make_toy_dataset(1000, seed=0)
        gold_idx = np.array([LABELS.index(s.gold_label) for s in dataset])
        return feature_matrix(dataset), gold_idx, np.arange(1000) * 3 + gold_idx

    def assert_matches_reference(self, toy, theta):
        features, gold_idx, gold_flat = toy
        policy = PolicyState(theta=theta)
        assert (grpo._mean_gold_prob(policy, features, gold_flat)
                == reference_mean_gold_prob(policy, features, gold_idx)), theta

    @pytest.mark.parametrize("scale", [0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    def test_random_thetas_match_reference_bit_for_bit(self, toy, scale):
        rng = np.random.default_rng(int(scale * 10))
        for _ in range(200):
            self.assert_matches_reference(
                toy, rng.normal(scale=scale, size=(FEATURE_DIM, len(LABELS))))

    def test_zero_theta_is_one_third(self, toy):
        self.assert_matches_reference(toy, np.zeros((FEATURE_DIM, len(LABELS))))

    @pytest.mark.parametrize("tied", [(0, 1), (0, 2), (1, 2)])
    def test_tied_logits_match_reference(self, toy, tied):
        rng = np.random.default_rng(sum(tied))
        for scale in (0.1, 1.0, 30.0):
            for _ in range(20):
                theta = rng.normal(scale=scale, size=(FEATURE_DIM, len(LABELS)))
                theta[:, tied[1]] = theta[:, tied[0]]
                self.assert_matches_reference(toy, theta)


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
