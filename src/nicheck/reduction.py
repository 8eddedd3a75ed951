"""Constructive reductions used as generators and test instruments.

`build_pcp_system` encodes a word-correspondence puzzle as a four-domain
machine whose observation-transmission security is violated exactly when the
puzzle has a solution; `pcp_witness` turns a known solution into the
violating pair of runs.  `augment_final` rewrites any machine so that the
"immediate transmission" notion on the result coincides with the ordinary
observation-transmission notion on the original, by letting every domain
declare a final action after which its observation freezes to the null token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import InputError
from .system import FINAL_SUFFIX, NULL_OBS, Policy, System, _known, _tuple_of

#: Domain that spells out the candidate word, letter by letter.
SPELLER = "speller"
#: Domain that may switch to the second word list and picks the indices.
PICKER = "picker"
#: Domain that declares the end of the construction.
CLOSER = "closer"
#: Domain that observes only the final outcome.
WATCHER = "watcher"

SWITCH_ACTION = "switch"
END_ACTION = "end"

_FAIL = "!"  # fragment marker after any mismatch; absorbing

OUTCOME_TOPS = "tops"
OUTCOME_BOTTOMS = "bottoms"
OUTCOME_FAIL = "fail"


def _sequence(value, name: str) -> tuple:
    """`value` as a tuple; a str, which `tuple` would read letter by letter,
    or a non-iterable raises `InputError` naming the argument."""
    if isinstance(value, str):
        raise InputError(f"{name} must be a sequence, not the str {value!r}")
    return _tuple_of(value, name)


@dataclass(frozen=True)
class PcpInstance:
    """A word-correspondence puzzle: two equal-length lists of nonempty words.

    A solution is an index sequence i1..ik (1-based) with
    tops[i1]+...+tops[ik] == bottoms[i1]+...+bottoms[ik].
    """

    alphabet: str
    tops: tuple[str, ...]
    bottoms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tops", _sequence(self.tops, "tops"))
        object.__setattr__(self, "bottoms", _sequence(self.bottoms, "bottoms"))
        if not isinstance(self.alphabet, str):
            raise InputError(f"alphabet must be a str, got {self.alphabet!r}")
        letters = set(self.alphabet)
        if len(letters) < 2 or len(letters) != len(self.alphabet):
            raise InputError("alphabet needs at least two distinct letters")
        for c in self.alphabet:
            if not c.isalnum():
                raise InputError(f"letters must be alphanumeric, got {c!r}")
        if not self.tops or len(self.tops) != len(self.bottoms):
            raise InputError("need two equally long nonempty word lists")
        for word in self.tops + self.bottoms:
            if not isinstance(word, str):
                raise InputError(f"word {word!r} is not a str")
            if not word or not set(word) <= letters:
                raise InputError(f"word {word!r} is empty or uses letters outside the alphabet")

    @property
    def size(self) -> int:
        return len(self.tops)


#: The classic solvable demonstration instance; (3, 2, 3, 1) solves it.
DEMO_INSTANCE = PcpInstance("ab", ("a", "ab", "bba"), ("baa", "aa", "bb"))
DEMO_SOLUTION = (3, 2, 3, 1)


class _PcpState(NamedTuple):
    phase: str      # "top" (switch still possible), "top+", or "bot"
    fragment: str   # letters awaiting an index guess; _FAIL after a mismatch
    last_pick: int  # 0 before any successful or failed pick
    done: int       # 1 once the end was declared; absorbing


def _pcp_actions(instance: PcpInstance) -> dict[str, str]:
    actions = {c: SPELLER for c in instance.alphabet}
    actions[SWITCH_ACTION] = PICKER
    for i in range(1, instance.size + 1):
        actions[f"pick{i}"] = PICKER
    actions[END_ACTION] = CLOSER
    return actions


def pcp_policy() -> Policy:
    """The fixed four-domain policy of the encoding."""
    return Policy(
        (SPELLER, PICKER, CLOSER, WATCHER),
        (
            (SPELLER, CLOSER),
            (SPELLER, WATCHER),
            (PICKER, CLOSER),
            (CLOSER, WATCHER),
        ),
    )


def build_pcp_system(instance: PcpInstance) -> System:
    """The reachable machine encoding `instance`.

    The speller guesses a word letter by letter; the picker may switch the
    comparison to the bottom list with its very first move and then matches
    word fragments against indices; the closer declares the end; the watcher
    sees nothing until the end, then which list was successfully matched.
    """
    words = {"top": instance.tops, "bot": instance.bottoms}
    prefixes = {
        side: {w[:k] for w in wl for k in range(1, len(w) + 1)}
        for side, wl in words.items()
    }

    def side_of(phase: str) -> str:
        return "bot" if phase == "bot" else "top"

    def committed(phase: str) -> str:
        return "bot" if phase == "bot" else "top+"

    def step(s: _PcpState, a: str) -> _PcpState:
        if s.done:
            return s
        if a == SWITCH_ACTION:
            if s.phase == "top":
                return s._replace(phase="bot")
            return s
        if a == END_ACTION:
            frag = "" if s.fragment == "" else _FAIL
            return _PcpState(committed(s.phase), frag, s.last_pick, 1)
        if a.startswith("pick"):
            j = int(a[4:])
            frag = "" if words[side_of(s.phase)][j - 1] == s.fragment else _FAIL
            return _PcpState(committed(s.phase), frag, j, 0)
        # a letter of the speller
        grown = s.fragment + a
        frag = grown if grown in prefixes[side_of(s.phase)] else _FAIL
        return _PcpState(committed(s.phase), frag, s.last_pick, 0)

    def obs(s: _PcpState, domain: str) -> str:
        if domain == CLOSER:
            if s.fragment == "":
                return str(s.last_pick)
            if s.fragment == _FAIL:
                return OUTCOME_FAIL
            return NULL_OBS
        if domain == WATCHER:
            if not s.done:
                return NULL_OBS
            if s.fragment == "" and s.last_pick != 0:
                return OUTCOME_TOPS if side_of(s.phase) == "top" else OUTCOME_BOTTOMS
            return OUTCOME_FAIL
        return NULL_OBS

    def name(s: _PcpState) -> str:
        return f"{s.phase}|{s.fragment or '-'}|{s.last_pick}|{s.done}"

    return System.from_functions(
        pcp_policy(), _pcp_actions(instance), _PcpState("top", "", 0, 0), step, obs, name
    )


def _check_solution(instance: PcpInstance, solution: Iterable[int]) -> tuple[int, ...]:
    solution = _sequence(solution, "solution")
    if not solution:
        raise InputError("a solution must use at least one index")
    for j in solution:
        if not isinstance(j, int) or isinstance(j, bool):
            raise InputError(f"index {j!r} is not an int")
        if not 1 <= j <= instance.size:
            raise InputError(f"index {j} out of range 1..{instance.size}")
    top = "".join(instance.tops[j - 1] for j in solution)
    bottom = "".join(instance.bottoms[j - 1] for j in solution)
    if top != bottom:
        for pos, (x, y) in enumerate(zip(top, bottom)):
            if x != y:
                raise InputError(
                    f"not a solution: concatenations differ at position {pos} ({x!r} vs {y!r})"
                )
        raise InputError(
            f"not a solution: concatenations differ in length ({len(top)} vs {len(bottom)})"
        )
    return solution


def pcp_witness(instance: PcpInstance, solution: Iterable[int]) -> tuple:
    """The two runs of the encoded machine that a valid solution induces.

    Both spell the same letters against the same index sequence; one compares
    against the top words, the other switches to the bottom words first.  On
    `build_pcp_system(instance)` they form a genuine violation of the
    observation-transmission notion for the watcher.
    """
    solution = _check_solution(instance, solution)
    alpha: list[str] = []
    beta: list[str] = [SWITCH_ACTION]
    for j in solution:
        alpha.extend(instance.tops[j - 1])
        alpha.append(f"pick{j}")
        beta.extend(instance.bottoms[j - 1])
        beta.append(f"pick{j}")
    alpha.append(END_ACTION)
    beta.append(END_ACTION)
    return tuple(alpha), tuple(beta)


# ---------------------------------------------------------------------------
# Final-action augmentation
# ---------------------------------------------------------------------------

def augment_final(system: System) -> System:
    """Extend a machine with a final variant of every action.

    A domain's first final action freezes its observation to the null token
    and makes the system ignore all its later actions.  State tracks the set
    of domains that have gone final.  Built over the reachable part only.
    """
    finals = {a + FINAL_SUFFIX: a for a in system.actions}
    clash = set(finals) & set(system.actions)
    if clash:
        raise InputError(f"action names {sorted(clash)} collide with final variants")
    actions: dict[str, str] = dict(system.action_domain)
    for fa, a in finals.items():
        actions[fa] = system.action_domain[a]

    domains = system.policy.domains
    step_tab = system._step
    obs_tab = system._obs
    didx = system.policy._index

    def step(s, a: str):
        base, done = s
        d = actions[a]
        if d in done:
            return s
        if a in finals:
            return (step_tab[base][system.action_index(finals[a])], done | {d})
        return (step_tab[base][system.action_index(a)], done)

    def obs(s, domain: str) -> str:
        base, done = s
        if domain in done:
            return NULL_OBS
        return obs_tab[base][didx[domain]]

    def name(s) -> str:
        base, done = s
        marks = "+".join(d for d in domains if d in done)
        return f"{system.states[base]}|{marks}"

    initial = (system.state_index(system.initial), frozenset())
    return System.from_functions(system.policy, actions, initial, step, obs, name)


def convertback(augmented: System, alpha: Iterable[str]) -> tuple[str, ...]:
    """Project a run of an augmented machine back onto the original actions.

    Every action a domain performs after its first final action is dropped;
    the first final action itself is replaced by the action it closes over.
    Final actions are read off the action names (`final_action_base`), so a
    saved and reloaded machine converts back alike, and so does any machine
    with actions `x` and `x` + FINAL_SUFFIX of one domain.  On machines
    without final actions this is the identity.
    """
    finals = augmented.final_action_base
    out: list[str] = []
    gone_final: set[str] = set()
    for a in alpha:
        if not _known(a, augmented.action_domain):
            raise InputError(f"unknown action {a!r}")
        d = augmented.action_domain[a]
        if d in gone_final:
            continue
        if a in finals:
            gone_final.add(d)
            out.append(finals[a])
        else:
            out.append(a)
    return tuple(out)
