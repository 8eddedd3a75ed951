"""Interference policies and finite deterministic state-observed machines.

A machine has a set of named states with one initial state, a set of named
actions each owned by a security domain, a total deterministic transition
function, and a per-domain observation of every state.  The policy is a
reflexive relation over the domains saying who may pass information to whom.
"""

from __future__ import annotations

import contextlib
import gc
import weakref
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

    Callers must drop their working set before the pause ends, typically by
    returning the result of a function called inside it, as in
    `with gc_paused(): return work()`.  Containers still alive when the
    collector is switched back on are all in its youngest generation; when
    they are more than its threshold (700 by default), the next allocation
    starts a collection that walks every one of them.
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


def _tuple_of(value, name: str, ordered: bool = True) -> tuple:
    """`value` as a tuple; a str, which `tuple` would read letter by letter,
    or a non-iterable raises `InputError` naming the argument.

    When `ordered`, the order of the names numbers them, so a set or
    frozenset, whose order follows the string hash and so changes with
    PYTHONHASHSEED, is refused too.  The message names its type only: its
    repr is in hash order as well."""
    if isinstance(value, str):
        raise InputError(f"{name} must be a sequence, not the str {value!r}")
    if ordered and isinstance(value, (set, frozenset)):
        raise InputError(f"{name} must be a sequence, not a {type(value).__name__}")
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{name} must be iterable, got {value!r}") from None


def _lookup(table: Mapping, name, what: str):
    """`table[name]`; `InputError` "unknown {what} ..." when `name` is not a
    key, unhashable names included."""
    try:
        return table[name]
    except (KeyError, TypeError):
        raise InputError(f"unknown {what} {name!r}") from None


def _int_of(value, name: str) -> int:
    """`value` itself; `InputError` naming the argument unless it is an int
    and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an int, got {value!r}")
    return value


def _known(name, names) -> bool:
    """`name in names`, except that an unhashable name is never known."""
    try:
        return name in names
    except TypeError:
        return False


def _index(kind: str, names, out: list[str]) -> dict:
    """Each name mapped to its position, after appending to `out` "bad
    {kind} name" for each bad one and "duplicate {kind} declaration" when
    one repeats.  An unhashable name is keyed by a fresh object that no
    lookup finds, so the dict is shorter than `names` only when a name
    repeats."""
    for n in names:
        if _bad_name(n):
            out.append(f"bad {kind} name {n!r}")
    try:
        index = {n: i for i, n in enumerate(names)}
    except TypeError:  # an unhashable name, reported above as bad
        index = {n if isinstance(n, str) else object(): i for i, n in enumerate(names)}
    if len(index) != len(names):
        out.append(f"duplicate {kind} declaration")
    return index


def _check_actions(policy, action_domain, out: list[str]) -> tuple[dict, list[int]]:
    """Each distinct action's index and its domain's index, appending to
    `out` a diagnostic for each bad or repeated action name and each
    unknown domain; each action's domain is resolved once."""
    aidx = _index("action", tuple(action_domain), out)
    dom = []
    for a in aidx:
        d = action_domain[a]
        try:
            dom.append(policy._index[d])
        except (KeyError, TypeError):  # an unhashable name is never a domain
            out.append(f"action {a}: unknown domain {d!r}")
    return aidx, dom


def _check_token(s, d, token, out: list[str]) -> None:
    """Append a diagnostic to `out` unless `token` is a good name."""
    if _bad_name(token):
        out.append(f"observation for ({s}, {d}): bad token {token!r}")


def _reject(out: list[str]) -> None:
    """Raise `InputError` with every diagnostic in `out`, the first in its
    message, when there is any."""
    if out:
        raise InputError(f"invalid system: {out[0]}", out)


class Policy:
    """Reflexive interference relation over an ordered set of domains.

    An edge (u, v) grants domain u the right to interfere with domain v, that
    is, to pass information to it.  Reflexive edges are implicit: they are
    added for every declared domain, and explicit self-edges are deduplicated.
    """

    __slots__ = ("domains", "edges", "_index", "_may")

    def __init__(self, domains: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.domains = _tuple_of(domains, "domains")
        edges = _tuple_of(edges, "edges", ordered=False)
        out: list[str] = []
        self._index = _index("domain", self.domains, out)
        for edge in edges:
            if not (isinstance(edge, tuple) and len(edge) == 2):
                out.append(f"interference edge {edge!r}: not a (domain, domain) pair")
                continue
            u, v = edge
            if not (_known(u, self._index) and _known(v, self._index)):
                out.append(f"interference edge ({u}, {v}) names an undeclared domain")
        if out:
            raise InputError(out[0], out)
        self.edges = frozenset(edges) | frozenset((d, d) for d in self.domains)
        # `_may[u][v]`: domain index u may interfere with domain index v.
        # Every System over this Policy reads this one matrix.
        self._may = [[(u, v) in self.edges for v in self.domains]
                     for u in self.domains]

    def interferes(self, u: str, v: str) -> bool:
        """True when domain u may interfere with domain v."""
        return _known((u, v), self.edges)

    def index(self, u: str) -> int:
        return _lookup(self._index, u, "domain")

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
    srcs = _tuple_of(sources, "sources", ordered=False)
    for u in srcs:
        policy.index(u)
    return {v for v in policy.domains for u in srcs if policy.interferes(u, v)}


def is_transitive(policy: Policy) -> bool:
    """True when u~>v and v~>w always imply u~>w."""
    may = policy._may
    return all(row[w] for row in may for v, uv in enumerate(row) if uv
               for w, vw in enumerate(may[v]) if vw)


def _check_kinds(policy, actions, transitions=None, observations=None) -> None:
    """`InputError` unless `policy` is a Policy, `actions` a mapping, and
    `transitions` and `observations` each a mapping or None."""
    if not isinstance(policy, Policy):
        raise InputError(f"policy must be a Policy, got {policy!r}")
    for name, table in (("actions", actions), ("transitions", transitions),
                        ("observations", observations)):
        if not (isinstance(table, Mapping) or table is None and name != "actions"):
            raise InputError(f"{name} must be a mapping, got {table!r}")


def _bfs(step: list[tuple[int, ...]], s0: int) -> tuple[list[int], list[int]]:
    """The states reachable from `s0` through the table `step`, BFS layer by
    layer and declaration order inside a layer, and each state's BFS parent:
    -1 when unreachable, `s0` its own parent.

    Layers are expanded in discovery order (only the copy in the output is
    sorted), so these are exactly the parents a FIFO search assigns.
    """
    parent = [-1] * len(step)
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
    return order, parent


class System:
    """A finite deterministic machine observed per security domain.

    A System is valid from construction: the constructor checks every
    declaration and builds the step and observation tables in the same walk
    over them (`_check_and_build`), and raises `InputError` whose
    `diagnostics` lists all the problems it found, so no operation needs to
    check again.  Names are resolved only where they arrive as names: in
    the constructor and in `parse_system`.  The paths that number their own
    states do not go through the constructor but hand their finished tables
    over whole (`_from_tables`): `parse_system`, whose line loop makes the
    same checks as it reads each declaration, `from_functions`, which runs
    the constructor's own checks on its names and tokens, and
    `gen_random_system`.  Every path ends in `_store`, the one method that
    assigns a System's attributes.  Transitions not mentioned default to self-loops
    and observations not mentioned default to the null token.

    Systems are immutable; the rows of the step and observation tables are
    tuples, and the tables are the only stored form of the machine.  The
    interference matrix `_may` is the policy's own, shared by every System
    over that Policy.  `transitions`, `observations` and `action_domain`
    are read-only views of the tables: each read builds a new dict in table
    order (so read one once, outside a loop), and the first two leave out
    self-loops and null tokens, even ones declared explicitly.  The
    reachable states (`_reach`) and their BFS tree (`_parent`) are built
    when the System is stored; every decider seeds from the first, and
    every witness prefix is a walk up the second.  After `_store` only the
    tree table `_trees` changes, so Systems may be shared freely across
    threads, with one caveat: the definitional tree functions (`ta`, `to`,
    `ito`, and `trace_key` under `ta`) hash-cons into that table, which is
    not locked, so drive them from one thread per system at a time.  The
    table holds its trees weakly: a tree stays in it only while a caller
    holds that tree or a tree built on it, so it never outgrows what the
    callers keep.  Bounded scans keep their own tables.
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
        _check_kinds(policy, actions, transitions, observations)
        self._store(policy, initial, *self._check_and_build(
            policy, _tuple_of(states, "states"), initial, actions,
            transitions or {}, observations or {}))

    @classmethod
    def _from_tables(cls, policy, initial, sidx, aidx, dom, step, obs) -> "System":
        """A System from tables its caller has already checked.

        `sidx` and `aidx` map each state and action to its index, in
        declaration order; `dom` lists each action's domain index; `step`
        and `obs` are the finished tables, a list of tuple rows each.  The
        tables are kept, not copied, so the caller must hold no other
        reference to them.  Nothing is checked: each caller numbers its own
        states and has made every check the constructor would.
        `parse_system` checks each line as it reads it, `from_functions`
        runs the constructor's checks on its names and tokens, and
        `gen_random_system` draws only indices into tables it has built.
        """
        self = cls.__new__(cls)
        self._store(policy, initial, sidx, aidx, dom, step, obs)
        return self

    # -- validation and tables --------------------------------------------

    @staticmethod
    def _check_and_build(policy, states, initial, action_domain, transitions,
                         observations):
        """Check every declaration and fill the tables in one walk.

        Each distinct action's domain, and each declared transition and
        observation, is resolved to indices once; its diagnostics are
        appended in declaration order, and its table cell is written while
        no diagnostic has been found.  Raises `InputError` with every
        diagnostic, the first in its message, when there is any; otherwise
        returns the state and action index dicts, each action's domain
        index, and the step and observation tables.
        """
        out: list[str] = []
        sidx = _index("state", states, out)
        if not states:
            out.append("no states declared")
        elif initial not in states:
            out.append(f"initial state {initial!r} is not declared")
        aidx, dom = _check_actions(policy, action_domain, out)
        didx = policy._index

        # Default rows (self-loops, null observations), then one pass over
        # the declared entries, so no key tuple is built per table cell.
        na, nd = len(aidx), len(policy.domains)
        step = [[i] * na for i in range(len(states))]
        for key, t in transitions.items():
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
        for key, token in observations.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                out.append(f"observation key {key!r}: not a (state, domain) pair")
                continue
            s, d = key
            si, di = sidx.get(s), didx.get(d)
            if si is None:
                out.append(f"observation for ({s}, {d}): unknown state")
            if di is None:
                out.append(f"observation for ({s}, {d}): unknown domain")
            _check_token(s, d, token, out)
            if not out:
                obs[si][di] = token
        _reject(out)
        return sidx, aidx, dom, list(map(tuple, step)), list(map(tuple, obs))

    def _store(self, policy, initial, sidx, aidx, dom, step, obs) -> None:
        """Assign every attribute: keep the checked index dicts and tables,
        derive the per-action tables from `dom` and the policy's matrix,
        build the BFS tree, and start the weak tree table empty."""
        self.policy, self.initial = policy, initial
        self.states, self.actions = tuple(sidx), tuple(aidx)
        self._sidx, self._aidx, self._dom, self._step, self._obs = (
            sidx, aidx, dom, step, obs)
        self._may = may = policy._may
        nd = len(policy.domains)
        self._domain_actions: list[list[int]] = [[] for _ in range(nd)]
        for ai, di in enumerate(dom):
            self._domain_actions[di].append(ai)
        # Per action, the domains its domain may interfere with: those whose
        # keys it may change.
        image = [tuple([v for v in range(nd) if row[v]]) for row in may]
        self._moved = [image[di] for di in dom]
        self._reach, self._parent = _bfs(step, sidx[initial])
        self._trees = weakref.WeakValueDictionary()

    def require_valid(self) -> None:
        """Does nothing: the constructor has already checked the System."""

    # -- read-only views of the tables -------------------------------------

    @property
    def transitions(self) -> dict[tuple[str, str], str]:
        """Each transition that leaves its state, `(state, action)` mapped
        to the target, in state then action order; a new dict on every read."""
        states, actions = self.states, self.actions
        return {(s, a): states[t]
                for si, (s, row) in enumerate(zip(states, self._step))
                for a, t in zip(actions, row) if t != si}

    @property
    def observations(self) -> dict[tuple[str, str], str]:
        """Each token other than NULL_OBS, `(state, domain)` mapped to it,
        in state then domain order; a new dict on every read."""
        domains = self.policy.domains
        return {(s, d): token
                for s, row in zip(self.states, self._obs)
                for d, token in zip(domains, row) if token != NULL_OBS}

    @property
    def action_domain(self) -> dict[str, str]:
        """Each action mapped to its domain's name, in declaration order; a
        new dict on every read."""
        domains = self.policy.domains
        return {a: domains[di] for a, di in zip(self.actions, self._dom)}

    # -- helpers used across the package ---------------------------------

    @property
    def final_action_base(self) -> dict[str, str]:
        """Each final action mapped to the action it closes over: `x` +
        FINAL_SUFFIX is final for `x` when both are actions of one domain."""
        dom = self.action_domain
        return {a + FINAL_SUFFIX: a for a in self.actions
                if dom.get(a + FINAL_SUFFIX) == dom[a]}

    def state_index(self, s: str) -> int:
        return _lookup(self._sidx, s, "state")

    def action_index(self, a: str) -> int:
        return _lookup(self._aidx, a, "action")

    def obs(self, state: str, domain: str) -> str:
        return self._obs[self.state_index(state)][self.policy.index(domain)]

    def _shortest_path(self, target: int) -> tuple[int, ...]:
        """Action indices of a BFS-shortest path from the initial state to
        `target`: the walk up the BFS parents, taking at each hop the first
        action of the parent that reaches the child."""
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
        order that numbers each state as it is found and writes each
        explored state's step row as it goes, so the state numbering (and
        hence everything downstream) is deterministic.  Raises `InputError`
        once more than `MAX_STATES` states are found.  The policy, `actions`
        and `initial` are checked before any state is explored, and the
        state names and observation tokens once exploring is done; actions,
        names and tokens are checked by the constructor's own code.  The
        finished tables go to `_from_tables`, not through the constructor.
        """
        _check_kinds(policy, actions)
        try:
            index = {initial: 0}
        except TypeError:
            raise InputError(f"initial state {initial!r} is not hashable") from None
        out: list[str] = []
        aidx, dom = _check_actions(policy, actions, out)
        _reject(out)
        order = [initial]  # also the BFS queue: the loop reaches appended states
        names = [name_fn(initial)]
        step = []
        for s in order:
            row = []
            for a in aidx:
                t = step_fn(s, a)
                try:
                    j = index.get(t)
                except TypeError:
                    raise InputError(f"step_fn({s!r}, {a!r}) gave {t!r}, which is"
                                     " not hashable") from None
                if j is None:
                    if len(order) >= MAX_STATES:
                        raise InputError(f"state space exceeds {MAX_STATES} states")
                    j = index[t] = len(order)
                    order.append(t)
                    names.append(name_fn(t))
                row.append(j)
            step.append(tuple(row))
        sidx = _index("state", names, out)
        if len(sidx) != len(names):  # the naming function's fault, not a declaration's
            raise InputError("state naming function produced duplicate names")
        obs = [tuple([obs_fn(s, d) for d in policy.domains]) for s in order]
        for name, row in zip(names, obs):
            for d, token in zip(policy.domains, row):
                _check_token(name, d, token, out)
        _reject(out)
        return cls._from_tables(policy, names[0], sidx, aidx, dom, step, obs)

    def _canonical(self):
        return (
            self.policy,
            self.states,
            self.initial,
            self.actions,
            tuple(self._dom),
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
    for a in _tuple_of(alpha, "alpha"):
        s = step[s][system.action_index(a)]
    return system.states[s]


def reachable_states(system: System) -> tuple[str, ...]:
    """States reachable from the initial state, BFS layer then declaration order."""
    return tuple(system.states[i] for i in system._reach)


def _observing(system: System) -> list[bool]:
    """Per domain, whether it observes at least two tokens over the
    reachable states.

    A domain that sees one token in every reachable state sees it at the end
    of every run, so it can never tell two runs apart: no closure and no key
    class of a bounded scan can find a violation for it.  One walk over the
    reachable rows, compared with the initial state's row, that stops once
    every domain is marked.  Computed afresh on each call, never stored.
    """
    obs = system._obs
    first = obs[system._reach[0]]
    blind = range(len(first))
    for s in system._reach:
        row = obs[s]
        if row != first:
            blind = [u for u in blind if row[u] == first[u]]
            if not blind:
                break
    return [u not in blind for u in range(len(first))]
