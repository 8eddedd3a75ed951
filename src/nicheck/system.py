"""Interference policies and finite deterministic state-observed machines.

A machine has a set of named states with one initial state, a set of named
actions each owned by a security domain, a total deterministic transition
function, and a per-domain observation of every state.  The policy is a
reflexive relation over the domains saying who may pass information to whom.
"""

from __future__ import annotations

import contextlib
import gc
from collections.abc import Callable, Iterable, Mapping

from .errors import InputError

#: Distinguished "nothing to see" observation token, also the default.
NULL_OBS = "_"
#: Action `x` + FINAL_SUFFIX in the domain of `x` is the final variant of `x`.
FINAL_SUFFIX = "!"
#: `System.from_functions` refuses a machine with more reachable states.
MAX_STATES = 1_000_000


@contextlib.contextmanager
def gc_paused():
    """Run the body with the cyclic garbage collector off.

    Loading a machine, deciding it and scanning its traces build many
    containers but no reference cycle, so reference counting frees them all
    and the collector's walks find nothing.  The collector is switched back
    on afterwards only if it was on before, so a caller that turned it off
    finds it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _bad_name(name) -> bool:
    """True unless `name` is a non-empty string without '#' or whitespace.

    `str.split()` splits on exactly the code points `str.isspace()` accepts,
    so a name it leaves whole holds no whitespace and is not empty.
    """
    return not isinstance(name, str) or "#" in name or name.split() != [name]


def _tuple_of(value, name: str) -> tuple:
    """`value` as a tuple; `InputError` naming the argument if not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{name} must be iterable, got {value!r}") from None


def _known(name, names) -> bool:
    """`name in names`, except that an unhashable name is never known."""
    try:
        return name in names
    except TypeError:
        return False


class Policy:
    """Reflexive interference relation over an ordered set of domains.

    An edge (u, v) grants domain u the right to interfere with domain v, that
    is, to pass information to it.  Reflexive edges are implicit: they are
    added for every declared domain, and explicit self-edges are deduplicated.
    """

    __slots__ = ("domains", "edges", "_index")

    def __init__(self, domains: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.domains = _tuple_of(domains, "domains")
        for name in self.domains:
            if _bad_name(name):
                raise InputError(f"bad domain name {name!r}")
        self._index = {d: i for i, d in enumerate(self.domains)}
        if len(self._index) != len(self.domains):
            raise InputError("duplicate domain declaration")
        edges = _tuple_of(edges, "edges")
        for edge in edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                raise InputError(f"interference edge {edge!r}: not a (domain, domain) pair")
            u, v = edge
            if not (_known(u, self._index) and _known(v, self._index)):
                raise InputError(f"interference edge ({u}, {v}) names an undeclared domain")
        self.edges = frozenset(edges) | frozenset((d, d) for d in self.domains)

    def interferes(self, u: str, v: str) -> bool:
        """True when domain u may interfere with domain v."""
        return _known((u, v), self.edges)

    def index(self, u: str) -> int:
        try:
            return self._index[u]
        except (KeyError, TypeError):
            raise InputError(f"unknown domain {u!r}") from None

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return self.domains == other.domains and self.edges == other.edges

    def __hash__(self):
        return hash((self.domains, self.edges))

    def __repr__(self):
        return f"Policy({list(self.domains)!r}, {sorted(self.edges)!r})"


def policy_image(policy: Policy, sources: Iterable[str]) -> set[str]:
    """All domains some member of `sources` may interfere with."""
    srcs = tuple(sources)
    for u in srcs:
        if not _known(u, policy._index):
            raise InputError(f"unknown domain {u!r}")
    return {v for v in policy.domains for u in srcs if policy.interferes(u, v)}


def is_transitive(policy: Policy) -> bool:
    """True when u~>v and v~>w always imply u~>w."""
    succ: dict[str, set[str]] = {d: set() for d in policy.domains}
    for u, v in policy.edges:
        succ[u].add(v)
    for u, v in policy.edges:
        if not succ[v] <= succ[u]:
            return False
    return True


class System:
    """A finite deterministic machine observed per security domain.

    A System is valid from construction: the constructor checks every
    declaration and builds the step and observation tables in the same walk
    over them, and raises `InputError` whose `diagnostics` lists all the
    problems it found, so no operation needs to check again.  Transitions
    not mentioned default to self-loops and observations not mentioned
    default to the null token.

    Systems are immutable; the rows of the step and observation tables are
    tuples.  The reachable states and their BFS tree are computed on first
    use and kept; every witness prefix is a walk up that tree.  Systems may
    be shared freely across threads, with one caveat: the definitional tree
    functions (`ta`, `to`, `ito`, and `trace_key` under `ta`) hash-cons into
    a per-system table that is not locked, so drive them from one thread per
    system at a time.  Bounded scans keep their own tables.
    """

    def __init__(
        self,
        policy: Policy,
        states: Iterable[str],
        initial: str,
        actions: Mapping[str, str],
        transitions: Mapping[tuple[str, str], str] | None = None,
        observations: Mapping[tuple[str, str], str] | None = None,
    ):
        if not isinstance(policy, Policy):
            raise InputError(f"policy must be a Policy, got {policy!r}")
        for name, table in (("actions", actions), ("transitions", transitions),
                            ("observations", observations)):
            if not (isinstance(table, Mapping) or table is None and name != "actions"):
                raise InputError(f"{name} must be a mapping, got {table!r}")
        self.policy = policy
        self.states = _tuple_of(states, "states")
        self.initial = initial
        self.actions = tuple(actions)
        self.action_domain = dict(actions)
        self.transitions = dict(transitions or {})
        self.observations = dict(observations or {})
        self._check_and_build()
        self._trees: dict = {}
        self._reach: list[int] | None = None
        self._parent: list[int] = []

    # -- validation and tables --------------------------------------------

    def _check_and_build(self) -> None:
        """Check every declaration and fill the tables in one walk.

        Each declared transition and observation is resolved to indices
        once; its diagnostics are appended in declaration order, and its
        table cell is written while no diagnostic has been found.  Raises
        `InputError` with every diagnostic, the first in its message, when
        there is any; otherwise keeps the tables.
        """
        out: list[str] = []
        states, actions, policy = self.states, self.actions, self.policy
        for s in states:
            if _bad_name(s):
                out.append(f"bad state name {s!r}")
        named = states
        try:
            sidx = {s: i for i, s in enumerate(named)}
        except TypeError:  # an unhashable name, reported above as bad
            named = [s for s in named if isinstance(s, str)]
            sidx = {s: i for i, s in enumerate(named)}
        if len(sidx) != len(named):
            out.append("duplicate state declaration")
        if not states:
            out.append("no states declared")
        elif self.initial not in states:
            out.append(f"initial state {self.initial!r} is not declared")
        for a in actions:
            if _bad_name(a):
                out.append(f"bad action name {a!r}")
        aidx = {a: i for i, a in enumerate(actions)}
        if len(aidx) != len(actions):
            out.append("duplicate action declaration")
        didx = policy._index
        for a, d in self.action_domain.items():
            if not _known(d, didx):
                out.append(f"action {a}: unknown domain {d!r}")

        # Default rows (self-loops, null observations), then one pass over
        # the declared entries, so no key tuple is built per table cell.
        na, nd = len(actions), len(policy.domains)
        step = [[i] * na for i in range(len(states))]
        for key, t in self.transitions.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                out.append(f"transition key {key!r}: not a (state, action) pair")
                continue
            s, a = key
            si = sidx.get(s)
            try:
                ti = sidx.get(t)
            except TypeError:  # an unhashable target is never a state
                ti = None
            ai = aidx.get(a)
            if si is None:
                out.append(f"transition {s} --{a}--> {t}: unknown source state")
            if ti is None:
                out.append(f"transition {s} --{a}--> {t}: unknown target state")
            if ai is None:
                out.append(f"transition {s} --{a}--> {t}: unknown action")
            if not out:
                step[si][ai] = ti
        obs = [[NULL_OBS] * nd for _ in states]
        for key, token in self.observations.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                out.append(f"observation key {key!r}: not a (state, domain) pair")
                continue
            s, d = key
            si, di = sidx.get(s), didx.get(d)
            if si is None:
                out.append(f"observation for ({s}, {d}): unknown state")
            if di is None:
                out.append(f"observation for ({s}, {d}): unknown domain")
            if _bad_name(token):
                out.append(f"observation for ({s}, {d}): bad token {token!r}")
            if not out:
                obs[si][di] = token
        if out:
            raise InputError(f"invalid system: {out[0]}", out)

        self._sidx, self._aidx = sidx, aidx
        self._step = [tuple(row) for row in step]
        self._obs = [tuple(row) for row in obs]
        self._dom = [didx[self.action_domain[a]] for a in actions]
        self._may = [
            [policy.interferes(u, v) for v in policy.domains]
            for u in policy.domains
        ]
        self._domain_actions: list[list[int]] = [[] for _ in range(nd)]
        for ai, di in enumerate(self._dom):
            self._domain_actions[di].append(ai)
        # Per action, the domains its domain may interfere with: those whose
        # keys it may change.
        image = [tuple([v for v in range(nd) if row[v]]) for row in self._may]
        self._moved = [image[di] for di in self._dom]

    def require_valid(self) -> None:
        """Does nothing: the constructor has already checked the System."""

    # -- helpers used across the package ---------------------------------

    @property
    def final_action_base(self) -> dict[str, str]:
        """Each final action mapped to the action it closes over: `x` +
        FINAL_SUFFIX is final for `x` when both are actions of one domain."""
        dom = self.action_domain
        return {a + FINAL_SUFFIX: a for a in self.actions
                if dom.get(a + FINAL_SUFFIX) == dom[a]}

    def state_index(self, s: str) -> int:
        try:
            return self._sidx[s]
        except (KeyError, TypeError):
            raise InputError(f"unknown state {s!r}") from None

    def action_index(self, a: str) -> int:
        try:
            return self._aidx[a]
        except (KeyError, TypeError):
            raise InputError(f"unknown action {a!r}") from None

    def obs(self, state: str, domain: str) -> str:
        return self._obs[self.state_index(state)][self.policy.index(domain)]

    def _reachable_idx(self) -> list[int]:
        """Reachable state indices, BFS layer by layer, declaration order inside a layer.

        Also records each state's BFS parent in `_parent`: -1 when
        unreachable, the initial state its own parent.  Layers are expanded
        in discovery order (only the copy in the output is sorted), so these
        are exactly the parents a FIFO search assigns.
        """
        if self._reach is None:
            step = self._step
            s0 = self.state_index(self.initial)
            parent = [-1] * len(self.states)
            parent[s0] = s0
            order, layer = [s0], [s0]
            while layer:
                nxt = []
                for s in layer:
                    for t in step[s]:
                        if parent[t] < 0:
                            parent[t] = s
                            nxt.append(t)
                order += sorted(nxt)
                layer = nxt
            self._reach = order
            self._parent = parent
        return self._reach

    def _shortest_path(self, target: int) -> tuple[int, ...]:
        """Action indices of a BFS-shortest path from the initial state to
        `target`: the walk up the parents `_reachable_idx` records, taking at
        each hop the first action of the parent that reaches the child."""
        self._reachable_idx()
        parent, step = self._parent, self._step
        if parent[target] < 0:
            raise InputError("witness state is unreachable")
        path = []
        while (s := parent[target]) != target:
            path.append(step[s].index(target))
            target = s
        return tuple(reversed(path))

    @classmethod
    def from_functions(
        cls,
        policy: Policy,
        actions: Mapping[str, str],
        initial,
        step_fn: Callable,
        obs_fn: Callable,
        name_fn: Callable = str,
    ) -> "System":
        """Build the reachable part of a machine given behaviourally.

        `step_fn(state, action_name)` and `obs_fn(state, domain_name)` work on
        opaque hashable state values; `name_fn` renders them as state names.
        Exploration is one breadth-first pass with actions in declaration
        order that names each state as it is found and records each
        transition, so the state numbering (and hence everything downstream)
        is deterministic.  Raises `InputError` once more than `MAX_STATES`
        states are found.
        """
        action_names = tuple(actions)
        index = {initial: 0}
        order = [initial]  # also the BFS queue: the loop reaches appended states
        names = [name_fn(initial)]
        transitions: dict[tuple[str, str], str] = {}
        for i, s in enumerate(order):
            for a in action_names:
                t = step_fn(s, a)
                j = index.get(t)
                if j is None:
                    if len(order) >= MAX_STATES:
                        raise InputError(f"state space exceeds {MAX_STATES} states")
                    j = index[t] = len(order)
                    order.append(t)
                    names.append(name_fn(t))
                if j != i:
                    transitions[(names[i], a)] = names[j]
        if len(set(names)) != len(names):
            raise InputError("state naming function produced duplicate names")
        observations = {}
        for s, name in zip(order, names):
            for d in policy.domains:
                token = obs_fn(s, d)
                if token != NULL_OBS:
                    observations[(name, d)] = token
        return cls(policy, names, names[0], actions, transitions, observations)

    def _canonical(self):
        return (
            self.policy,
            self.states,
            self.initial,
            self.actions,
            tuple(self.action_domain[a] for a in self.actions),
            tuple(self._step),
            tuple(self._obs),
        )

    def __eq__(self, other):
        if not isinstance(other, System):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash((self.policy, self.states, self.actions))

    def __repr__(self):
        return (
            f"<System |S|={len(self.states)} |A|={len(self.actions)}"
            f" |D|={len(self.policy.domains)}>"
        )


def run(system: System, start: str, alpha: Iterable[str]) -> str:
    """The state reached from `start` by performing the actions of `alpha` in order."""
    s = system.state_index(start)
    step = system._step
    for a in alpha:
        s = step[s][system.action_index(a)]
    return system.states[s]


def reachable_states(system: System) -> tuple[str, ...]:
    """States reachable from the initial state, BFS layer then declaration order."""
    return tuple(system.states[i] for i in system._reachable_idx())
