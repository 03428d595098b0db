import hashlib

import numpy as np
import pytest

from flowseek.environments import cube2x2, make_env, replay_trajectory
from flowseek.environments.base import EnvInstance
from flowseek.environments.cube2x2 import (
    DIST_CAP,
    INVERSE,
    MOVES,
    SOLVED,
    apply_move,
    distance_to_solved,
    generate_instances,
    is_solved,
    scramble_instance,
)
from flowseek.errors import StructuralError
from flowseek.flow_core import Trajectory
from flowseek.rngutil import substream


def config_of(state):
    """The configuration bytes a `t=<step>|<8 digits>|<8 digits>` key spells."""
    _, cp, co = state.split("|")
    return bytes(int(c) for c in cp + co)


def random_config(rng, depth=12):
    config = SOLVED
    for _ in range(depth):
        config = apply_move(config, MOVES[int(rng.integers(0, 9))])
    return config


def test_move_set_closed_under_inversion():
    assert sorted(INVERSE) == sorted(MOVES)
    assert sorted(INVERSE.values()) == sorted(MOVES)


def test_inverse_pairs_identity():
    rng = substream(0, "cube-inv")
    for trial in range(100):
        config = random_config(rng)
        for move in MOVES:
            roundtrip = apply_move(apply_move(config, move), INVERSE[move])
            assert roundtrip == config


def test_group_orders():
    rng = substream(1, "cube-ord")
    config = random_config(rng)
    four = config
    for _ in range(4):
        four = apply_move(four, "U")
    assert four == config
    twice = apply_move(apply_move(config, "U2"), "U2")
    assert twice == config


def test_nine_valid_actions():
    inst = generate_instances(1, seed=3)[0]
    env = make_env(inst)
    assert env.valid_actions(env.s0) == MOVES
    assert len(MOVES) == 9


def test_parent_count_nine_distinct_by_inverse_enumeration():
    """Independent oracle: the 9 inverse moves give 9 distinct predecessors."""
    inst = scramble_instance(["R", "U'", "F2", "R'"], "pc")
    env = make_env(inst)
    rng = substream(2, "cube-par")
    for trial in range(50):
        config = random_config(rng)
        if is_solved(config):
            continue
        preds = {apply_move(config, INVERSE[m]) for m in MOVES}
        assert len(preds) == 9  # free group action: distinct moves, distinct parents
        if not any(is_solved(p) for p in preds):
            state = f"t=3|{''.join(str(c) for c in config[:8])}|{''.join(str(c) for c in config[8:])}"
            assert env.parent_count(state) == 9


def test_parent_count_excludes_solved_predecessor():
    # a state one move away from solved has 8 legal parents: the solved
    # predecessor is terminal and has no outgoing edge
    config = apply_move(SOLVED, "U")
    state = f"t=1|{''.join(str(c) for c in config[:8])}|{''.join(str(c) for c in config[8:])}"
    inst = scramble_instance(["U"], "near")
    env = make_env(inst)
    assert env.parent_count(state) == 8


def test_parent_count_rejects_initial_state():
    inst = generate_instances(1, seed=5)[0]
    env = make_env(inst)
    with pytest.raises(StructuralError):
        env.parent_count(env.s0)


def test_distance_to_solved_basics():
    assert distance_to_solved(SOLVED) == 0
    for move in MOVES:
        assert distance_to_solved(apply_move(SOLVED, move)) == 1


def test_scrambles_within_four_report_distance_at_most_four():
    rng = substream(7, "cube-scr")
    for trial in range(50):
        k = int(rng.integers(1, 5))
        config = SOLVED
        for _ in range(k):
            config = apply_move(config, MOVES[int(rng.integers(0, 9))])
        assert distance_to_solved(config) <= k <= 4


def test_reward_distance_reduction_term():
    # solving a 1-move scramble contributes exp(1 - 0) = e to the intermediate term
    inst = scramble_instance(["U"], "one")
    env = make_env(inst)
    traj = replay_trajectory(env, ["U'"])
    assert env.success_term(traj.states[-1]) == 100.0
    # with success weight 0 the total is the intermediate term alone
    assert make_env(inst, success_weight=0.0).reward(traj) == pytest.approx(np.exp(1.0))
    assert env.is_success(traj)


def test_reward_monotonicity_hook():
    # per-move contribution: a distance-reducing move beats a distance-increasing one
    inst = scramble_instance(["R", "U"], "two")
    env = make_env(inst)
    start = env.s0
    d0 = distance_to_solved_from_state(env, start)
    contributions = {}
    for move in MOVES:
        nxt = env.apply(start, move)
        d1 = distance_to_solved_from_state(env, nxt)
        contributions[move] = np.exp(d0 - d1)
    reducing = ["U'"]  # undoes the last scramble move
    increasing = [m for m in MOVES if distance_to_solved_from_state(env, env.apply(start, m)) > d0]
    assert increasing, "expected at least one distance-increasing move"
    for good in reducing:
        for bad in increasing:
            assert contributions[good] > contributions[bad]
    assert contributions["U'"] == pytest.approx(np.exp(1.0))


def distance_to_solved_from_state(env, state):
    return distance_to_solved(config_of(state))


def test_gold_solution_replays(toy_env=None):
    for inst in generate_instances(4, seed=11):
        env = make_env(inst)
        moves = inst.gold_solutions[0].split(" ")
        traj = replay_trajectory(env, moves)
        assert env.is_success(traj)
        assert len(moves) <= 4


def test_scramble_never_solved_start():
    for inst in generate_instances(6, seed=13):
        env = make_env(inst)
        assert not env.is_terminal(env.s0)


def test_budget_exhaustion_is_terminal_failure():
    inst = scramble_instance(["U"], "budget", max_steps=2)
    env = make_env(inst)
    traj = replay_trajectory(env, ["F", "F'"])  # wanders, budget 2 exhausted
    assert traj.is_complete
    assert not env.is_success(traj)
    assert traj.reward >= env.reward_floor


def test_generation_deterministic():
    a = [i.to_record() for i in generate_instances(5, seed=21, difficulty="2")]
    b = [i.to_record() for i in generate_instances(5, seed=21, difficulty="2")]
    assert a == b


def test_solution_key_is_move_sequence():
    inst = scramble_instance(["R", "U"], "key")
    env = make_env(inst)
    traj = replay_trajectory(env, ["U'", "R'"])
    assert env.solution_key(traj) == "U' R'"


# -- dense distance table ------------------------------------------------------

# published layer sizes of the 2x2x2 cube in the half-turn metric (diameter 11)
LAYER_SIZES = [1, 9, 54, 321, 1847, 9992, 50136, 227536, 870072, 1887748, 623800, 2644]


def reset_table(mp):
    """Point the module's table state at fresh, empty values (restored by `mp`)."""
    for name, value in (("_PERM_RANK", {}), ("_TWIST_RANK", {}), ("_PERM_DIGITS", []),
                        ("_TWIST_DIGITS", []), ("_PERM_NEXT", []), ("_TWIST_NEXT", []),
                        ("_PLACED", []), ("_ORIENTED", []), ("_ONE_MOVE", frozenset()),
                        ("_DIST_VIEW", None), ("_dist", None), ("_perm_moves", None),
                        ("_twist_moves", None), ("_depth", 0)):
        mp.setattr(cube2x2, name, value)


@pytest.fixture
def fresh_table(monkeypatch):
    reset_table(monkeypatch)


@pytest.fixture(scope="module")
def full_table():
    with pytest.MonkeyPatch.context() as mp:
        reset_table(mp)
        distance_to_solved(SOLVED)
        while cube2x2._depth < DIST_CAP:
            cube2x2._grow()
        yield cube2x2._dist


def dict_bfs(max_depth):
    """The pure-Python BFS the dense table replaced: {config: distance}."""
    dist = {SOLVED: 0}
    frontier = [SOLVED]
    for depth in range(max_depth):
        nxt = []
        for cfg in frontier:
            for move in MOVES:
                nc = apply_move(cfg, move)
                if nc not in dist:
                    dist[nc] = depth + 1
                    nxt.append(nc)
        frontier = nxt
    return dist


def loop_parent_count(config):
    """The inverse-move loop the closed form replaced: distinct, non-solved predecessors."""
    count = 0
    seen = set()
    for move in MOVES:
        pred = apply_move(config, INVERSE[move])
        if pred in seen:
            continue
        seen.add(pred)
        if not is_solved(pred):
            count += 1
    return count


def test_parent_count_closed_form_matches_loop_within_five_moves():
    env = make_env(scramble_instance(["U"], "pc5"))
    configs = dict_bfs(5)
    assert len(configs) == sum(LAYER_SIZES[:6])
    counts = set()
    for config in configs:
        expected = loop_parent_count(config)
        counts.add(expected)
        cp = "".join(str(c) for c in config[:8])
        co = "".join(str(c) for c in config[8:])
        for step in (1, 2, 5, DIST_CAP):
            assert env.parent_count(f"t={step}|{cp}|{co}") == expected
    assert counts == {8, 9}


def test_full_table_layer_histogram(full_table):
    assert np.bincount(full_table).tolist() == LAYER_SIZES
    assert cube2x2._depth == DIST_CAP


def test_every_configuration_one_move_from_previous_layer(full_table):
    # moves are closed under inversion, so this also bounds every neighbour's
    # depth within one of the configuration's
    perm, twist = np.divmod(np.arange(full_table.size, dtype=np.int32), 729)
    nbr_min = np.full(full_table.size, 255, np.uint8)
    for pm, tm in zip(cube2x2._perm_moves, cube2x2._twist_moves):
        np.minimum(nbr_min, full_table[pm[perm] + tm[twist]], out=nbr_min)
    solved = full_table == 0
    assert solved.sum() == 1
    assert (nbr_min[~solved] == full_table[~solved] - 1).all()
    # the index move tables agree with apply_move on random configurations
    rng = substream(3, "cube-table-moves")
    def index(config):
        cp, co = ("".join(map(str, part)) for part in (config[:8], config[8:]))
        return 729 * cube2x2._PERM_RANK[cp] + cube2x2._TWIST_RANK[co]
    for _ in range(200):
        config = random_config(rng)
        p, t = divmod(index(config), 729)
        for m, move in enumerate(MOVES):
            assert index(apply_move(config, move)) == (
                cube2x2._perm_moves[m][p] + cube2x2._twist_moves[m][t])


def test_table_matches_dict_bfs_through_depth_7(fresh_table):
    reference = dict_bfs(7)
    assert len(reference) == sum(LAYER_SIZES[:8])
    for config, depth in reference.items():
        assert distance_to_solved(config) == depth
    assert cube2x2._depth == 7


def test_depth_2_query_fills_only_two_layers(fresh_table):
    d = distance_to_solved(apply_move(apply_move(SOLVED, "U"), "R"))
    assert d == 2 and type(d) is int
    assert cube2x2._depth == 2
    assert np.bincount(cube2x2._dist).tolist()[:3] == LAYER_SIZES[:3]
    assert (cube2x2._dist == 255).sum() == cube2x2._dist.size - sum(LAYER_SIZES[:3])


@pytest.mark.parametrize("s0", [
    "t=0|01234576|00000000",  # DBL corner (6) moved to slot 7
    "t=0|01234567|10000000",  # twists sum to 1 mod 3
    "t=0|0123456x|00000000",  # malformed digit
])
def test_unreachable_start_is_structural_error(fresh_table, s0):
    with pytest.raises(StructuralError):
        make_env(EnvInstance("cube2x2", "bad", s0, "solved", DIST_CAP))
    assert cube2x2._depth == 0


def test_decode_memo_matches_fresh_decode_after_training():
    import dataclasses

    from flowseek.trainer import TrainConfig, build_envs, train

    instances = [dataclasses.replace(inst, max_steps=3)
                 for inst in generate_instances(3, seed=5, difficulty="2")]
    config = TrainConfig(env_id="cube2x2", iterations=30, batch_size=4, loss="tb_logz")
    envs = build_envs(config, instances)
    train(config, instances, envs=envs)
    for env in envs.values():
        assert len(env._ranks) > 1
        for state, (step, p, t) in env._ranks.items():
            # the ranks spell the key back, and the dense index agrees with the bytes
            assert state == f"t={step}|{cube2x2._PERM_DIGITS[p]}|{cube2x2._TWIST_DIGITS[t]}"
            assert distance_to_solved(config_of(state)) == cube2x2._dist[729 * p + t]


def test_rank_moves_match_apply_move():
    env = make_env(scramble_instance(["R", "U'"], "ranks"))
    rng = substream(4, "cube-rank-moves")
    for _ in range(100):
        config = random_config(rng)
        if is_solved(config):
            continue
        state = f"t=1|{''.join(str(c) for c in config[:8])}|{''.join(str(c) for c in config[8:])}"
        for move in MOVES:  # each key is parsed, not read from the memo apply fills
            assert config_of(env.apply(state, move)) == apply_move(config, move)


def test_env_outputs_match_pinned_digest():
    # digest over every reachable state of a budget-3 and a budget-5 scramble, as
    # the byte-decoding env produced them: children, parent counts, feature rows
    # and the reward of each complete trajectory; the rank tables must not move a bit
    digest = hashlib.sha256()
    for moves, budget in ((["R", "U'", "F2"], 3), (["F", "R2", "U'", "R"], 5)):
        env = make_env(scramble_instance(moves, "pin", max_steps=budget))
        order, seen = [env.s0], {env.s0}
        for state in order:  # breadth first; `order` grows as it is walked
            if state != env.s0:
                digest.update(env.cached_parent_count(state).to_bytes(1, "little"))
            kids = env.children(state) or ()
            for (action, child), row in zip(kids, env.feature_matrix(state) if kids else ()):
                digest.update(f"{state}>{action}>{child};".encode())
                digest.update(row.astype("<f8").tobytes())
                if child not in seen:
                    seen.add(child)
                    order.append(child)
        stack = [([], [env.s0])]
        while stack:
            actions, states = stack.pop()
            kids = env.children(states[-1])
            if kids is None:
                traj = Trajectory("pin", states, actions)
                digest.update(env.reward(traj).hex().encode())
                continue
            for action, child in kids:
                stack.append((actions + [action], states + [child]))
    assert digest.hexdigest() == "782a3afa74f05a795d7c8fa1cfd4242c4d63d98e4e8b46420cd0ce98e10d424b"
