"""Synthetic implication-chain reasoning (claim rewriting over a fact list).

An instance is a chain of category implications plus distractor facts. The
state is the current claim about one entity; every fact in the list (plus
"Finish.") is selectable at every step, and applying a fact rewrites the
claim to the fact's conclusion whether or not its premise matches. Only
transitions that follow the ground-truth chain earn reward, so shortcut or
off-path steps dilute it; the per-step indicator formula means there is no
separate terminal success bonus.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import InvalidActionError
from ..rngutil import substream
from .base import EnvInstance, Environment, int_difficulty

FINISH = "Finish."
ENTITIES = ["Alex", "Fae", "Max", "Polly", "Rex", "Sam", "Stella", "Wren"]


def _fact(premise: str, conclusion: str) -> str:
    return f"Every {premise} is a {conclusion}."


def _fact_parts(fact: str) -> tuple[str, str]:
    body = fact[len("Every ") : -1]
    premise, conclusion = body.split(" is a ")
    return premise, conclusion


def _claim(entity: str, category: str) -> str:
    return f"{entity} is a {category}."


def _claim_category(claim: str) -> str:
    return claim[:-1].split(" is a ")[1]


class LogicChainEnv(Environment):
    env_id = "logicchain"
    parent_mode = "tree"
    solution_sep = "~"
    reward_start = (0, 0)  # (gold transitions, steps): the reward is w * hits / steps
    # premise match(1) + finish(1) + reaches conclusion(1) + revisit(1)
    # + step fraction(1) + bias(1)
    feature_dim = 6

    def parse_instance(self):
        doc = json.loads(self.goal)
        self.conclusion: str = doc["conclusion"]
        self.facts: list[str] = doc["facts"]
        self.gold_facts: list[str] = doc["gold"]
        self.chain: list[str] = doc["chain"]  # category sequence along the gold path
        self.gold_transitions = {
            (self.chain[i], self.chain[i + 1]) for i in range(len(self.chain) - 1)
        }
        _claim_category(self._decode(self.s0)[1])  # raises if s0 holds no claim

    def _decode(self, state: str) -> tuple[list[str], str]:
        h_part, claim_part = state.split("|claim=")
        hist = h_part[len("h=") :]
        return (hist.split("~") if hist else []), claim_part

    def _encode(self, hist: list[str], claim: str) -> str:
        return f"h={'~'.join(hist)}|claim={claim}"

    def _actions(self, state):
        return list(self.facts) + [FINISH]

    def apply(self, state, action):
        if action != FINISH and action not in self.facts:
            raise InvalidActionError(f"fact {action!r} is not in the action space")
        hist, claim = self._decode(state)
        if self.is_terminal(state):
            raise InvalidActionError("cannot act at a terminal state")
        if action == FINISH:
            new_claim = claim
        else:
            entity = claim[:-1].split(" is a ")[0]
            new_claim = _claim(entity, _fact_parts(action)[1])
        return self._encode(hist + [action], new_claim)

    def is_terminal(self, state):
        hist, claim = self._decode(state)
        return (
            claim == self.conclusion
            or (hist and hist[-1] == FINISH)
            or len(hist) >= self.max_steps
        )

    def is_success(self, traj):
        _, claim = self._decode(traj.states[-1])
        if claim != self.conclusion:
            return False
        return all(self._is_gold(p, n) for p, n in zip(traj.states[:-1], traj.states[1:]))

    def _is_gold(self, prev_state: str, next_state: str) -> bool:
        _, prev_claim = self._decode(prev_state)
        _, next_claim = self._decode(next_state)
        pair = (_claim_category(prev_claim), _claim_category(next_claim))
        return pair in self.gold_transitions

    def reward_step(self, acc, state, child):
        hits, n = acc
        return hits + self._is_gold(state, child), n + 1

    def reward_finish(self, acc, terminal):
        hits, n = acc
        return self.floored(0.0, self.w * hits / n if n else 0.0)

    def featurize(self, state, action):
        hist, claim = self._decode(state)
        cat = _claim_category(claim)
        vec = np.zeros(self.feature_dim)
        if action == FINISH:
            vec[1] = 1.0
            result_cat = cat
        else:
            premise, result_cat = _fact_parts(action)
            vec[0] = 1.0 if premise == cat else 0.0
        entity = claim[:-1].split(" is a ")[0]
        vec[2] = 1.0 if _claim(entity, result_cat) == self.conclusion else 0.0
        vec[3] = 1.0 if action in hist else 0.0
        vec[4] = self.step_fraction(len(hist))
        vec[5] = 1.0
        return vec


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Implication chains of depth 3..6 with distractor facts.

    difficulty: a fixed depth ("3".."6") or None for a random depth per instance.
    """
    fixed_depth = None
    if difficulty:
        fixed_depth = int_difficulty("logicchain", difficulty, range(3, 7), "a depth 3..6")
    rng = substream(seed, "gen", "logicchain", difficulty or "")
    out = []
    for i in range(count):
        depth = fixed_depth or int(rng.integers(3, 7))
        chain = [f"t{i}_{j}" for j in range(depth + 1)]
        gold = [_fact(chain[j], chain[j + 1]) for j in range(depth)]
        distractors = []
        n_distract = int(rng.integers(2, 5))
        for k in range(n_distract):
            src = chain[int(rng.integers(0, depth))]  # branch off the gold path
            distractors.append(_fact(src, f"d{i}_{k}"))
        if n_distract >= 2:  # one unrelated implication between distractor categories
            distractors[-1] = _fact(f"d{i}_0", f"d{i}_{n_distract - 1}")
        facts = sorted(set(gold) | set(distractors))
        entity = ENTITIES[int(rng.integers(0, len(ENTITIES)))]
        goal_doc = {
            "conclusion": _claim(entity, chain[-1]),
            "facts": facts,
            "gold": gold,
            "chain": chain,
        }
        out.append(
            EnvInstance(
                env_id="logicchain",
                instance_id=f"logicchain-{seed}-{i}",
                s0=f"h=|claim={_claim(entity, chain[0])}",
                goal=json.dumps(goal_doc, sort_keys=True),
                max_steps=depth,
                gold_solutions=["~".join(gold)],
                split=str(depth),
            )
        )
    return out
