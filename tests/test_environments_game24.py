import math
from fractions import Fraction

import pytest

from flowseek.environments import make_env, replay_trajectory
from flowseek.environments.game24 import (
    enumerate_actions,
    generate_instances,
    make_instance,
    parse_values,
    solve_game24,
)
from flowseek.errors import InvalidActionError, NotASolutionError, TerminalQueryError


@pytest.fixture
def env_4468():
    return make_env(make_instance([4, 4, 6, 8], "g"))


def test_two_numbers_give_six_actions():
    actions = enumerate_actions((Fraction(3), Fraction(7)))
    eqs = [a for a, _ in actions]
    assert len(eqs) == 6
    assert "3 + 7 = 10" in eqs and "3 * 7 = 21" in eqs
    assert "3 - 7 = -4" in eqs and "7 - 3 = 4" in eqs
    assert "3 / 7 = 3/7" in eqs and "7 / 3 = 7/3" in eqs


def test_commutative_duplicates_removed():
    # equal operands collapse subtraction and division to one action each
    actions = [a for a, _ in enumerate_actions((Fraction(4), Fraction(4)))]
    assert actions == ["4 + 4 = 8", "4 * 4 = 16", "4 - 4 = 0", "4 / 4 = 1"]


def test_division_by_zero_excluded():
    actions = [a for a, _ in enumerate_actions((Fraction(0), Fraction(5)))]
    assert "5 / 0" not in " ".join(actions)
    assert "0 / 5 = 0" in actions


def test_apply_paper_example(env_4468):
    nxt = env_4468.apply(env_4468.s0, "4 + 8 = 12")
    assert nxt.endswith("|left=4 6 12")
    assert nxt.startswith("h=4 + 8 = 12|")


def test_apply_invalid_action(env_4468):
    with pytest.raises(InvalidActionError):
        env_4468.apply(env_4468.s0, "4 + 9 = 13")


def test_terminal_and_success(env_4468):
    state = env_4468.s0
    for action in ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"]:
        assert not env_4468.is_terminal(state)
        state = env_4468.apply(state, action)
    assert env_4468.is_terminal(state)
    traj = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"])
    assert env_4468.is_success(traj)
    assert traj.reward > 100.0
    bad = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 + 12 = 14"])
    assert env_4468.is_terminal(bad.states[-1])
    assert not env_4468.is_success(bad)


def test_terminal_query_error(env_4468):
    terminal = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"]).states[-1]
    with pytest.raises(TerminalQueryError):
        env_4468.valid_actions(terminal)


def test_exact_rational_arithmetic():
    # the classic fractional solution: 8 / (3 - 8/3) = 24, floats would miss it
    keys = solve_game24([3, 3, 8, 8])
    assert any("8/3" in k for k in keys)
    env = make_env(make_instance([3, 3, 8, 8], "frac"))
    frac_key = next(k for k in keys if "8/3" in k)
    traj = replay_trajectory(env, frac_key.split(";"))
    assert env.is_success(traj)
    assert parse_values(traj.states[-1].split("|left=")[1]) == (Fraction(24),)


def test_success_term_is_success_weight(env_4468):
    traj = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"])
    # success weight 100 plus a product of step probabilities in (0, 1)
    assert 100.0 < env_4468.reward(traj) < 101.0


def test_reward_product_matches_action_count_oracle(env_4468):
    # uniform scorer: the product is prod(1 / |A(s_t)|) along the path
    actions = ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"]
    traj = replay_trajectory(env_4468, actions)
    expected = 1.0
    state = env_4468.s0
    for action in actions:
        expected /= len(env_4468.valid_actions(state))
        state = env_4468.apply(state, action)
    # with success weight 0 the total is the product alone
    no_bonus = make_env(env_4468.instance, success_weight=0.0)
    assert no_bonus.reward(traj) == pytest.approx(expected, rel=1e-12)
    assert env_4468.reward(traj) == pytest.approx(100.0 + expected, rel=1e-12)


def test_solution_key_commutative_normalization(env_4468):
    # "8 + 4" is rendered "4 + 8", so both phrasings share one key
    traj = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"])
    key = env_4468.solution_key(traj)
    assert key == "4 + 8 = 12;6 - 4 = 2;2 * 12 = 24"
    with pytest.raises(InvalidActionError):
        env_4468.apply(env_4468.s0, "8 + 4 = 12")


def test_solution_key_requires_success(env_4468):
    traj = replay_trajectory(env_4468, ["4 + 8 = 12", "6 - 4 = 2", "2 + 12 = 14"])
    with pytest.raises(NotASolutionError):
        env_4468.solution_key(traj)


def test_solver_contains_paper_solution():
    keys = solve_game24([4, 4, 6, 8])
    assert "4 + 8 = 12;6 - 4 = 2;2 * 12 = 24" in keys


def test_solver_unsolvable_empty():
    assert solve_game24([1, 1, 1, 1]) == set()


def test_solver_case_study_intermediate_state():
    # a known solution passes through the remaining-numbers state {3, 6, 15}
    keys = solve_game24([3, 4, 6, 11])
    env = make_env(make_instance([3, 4, 6, 11], "cs"))
    hits = []
    for k in keys:
        states = replay_trajectory(env, k.split(";")).states
        if any(s.endswith("|left=3 6 15") for s in states):
            hits.append(k)
    assert hits, "no solution path passes through {3, 6, 15}"


def test_all_solver_keys_replay_to_24():
    for numbers in ([4, 4, 6, 8], [1, 3, 5, 6], [2, 2, 4, 7]):
        env = make_env(make_instance(numbers, "x"))
        for key in solve_game24(numbers):
            traj = replay_trajectory(env, key.split(";"))
            assert env.is_success(traj)


def test_generated_instances_solvable_and_deterministic():
    a = generate_instances(5, seed=42)
    b = generate_instances(5, seed=42)
    assert [i.to_record() for i in a] == [i.to_record() for i in b]
    for inst in a:
        assert inst.gold_solutions  # generation filters to solvable
        values = parse_values(inst.s0.split("|left=")[1])
        assert solve_game24(values)
        assert inst.max_steps == 3


def test_progress_scorer_survives_extreme_potential_changes():
    from flowseek.environments.base import P_SCORE_MAX, P_SCORE_MIN, SCORERS, Environment
    from flowseek.errors import ScorerContractError

    class OneStep:
        """Potential 0 at "s" and `delta` at "t"."""

        scorer = "progress"

        def __init__(self, delta):
            self.delta = delta

        def potential(self, state):
            return 0.0 if state == "s" else self.delta

    # game24 steps change the potential by -9,467 to +61 on the gen --seed 3 hands
    for delta, expected in ((-1e4, P_SCORE_MIN), (61.0, P_SCORE_MAX)):
        env = OneStep(delta)
        assert 0.0 < SCORERS["progress"](env, "s", "t") < 1.0
        assert Environment.step_score(env, "s", "t") == expected
    # a NaN potential gives p = NaN, which breaks the (0, 1) contract
    env = OneStep(float("nan"))
    assert math.isnan(SCORERS["progress"](env, "s", "t"))
    with pytest.raises(ScorerContractError):
        Environment.step_score(env, "s", "t")


def test_progress_scorer_training_run_completes():
    from flowseek.trainer import TrainConfig, train

    instances = generate_instances(6, seed=3)
    config = TrainConfig(env_id="game24", iterations=60, batch_size=4, scorer="progress", seed=1)
    _, report = train(config, instances)
    assert len(report.records) == 60
    assert all(r["reward"] > 0.0 for r in report.trajectory_log)
