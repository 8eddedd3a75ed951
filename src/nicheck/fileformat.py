"""Plain-text system files: one declaration per line, '#' starts a comment.

    domain NAME
    interferes U V          # U may interfere with V
    action NAME DOMAIN
    state NAME [init]
    trans STATE ACTION STATE
    obs STATE DOMAIN TOKEN

Transitions not declared are self-loops, observations not declared are the
null token "_", and reflexive interference is implicit.  `serialize_system`
emits a canonical form that omits exactly those defaults, so parse and
serialize are mutually inverse up to comments and ordering.

`parse_system` reads the file in one pass.  It numbers each state, action
and domain as it is declared and writes the cell of each `trans` and `obs`
line, found by the dict lookups that check its names, straight into that
state's table row; a line that finds its cell set is a duplicate.  The
System is built from these tables without checking a name again.
"""

from __future__ import annotations

from .errors import InputError
from .system import NULL_OBS, Policy, System


def _lines(text: str) -> list[str]:
    """The lines of `text`, each ended by LF, CR LF or CR, with comments cut.

    These are the line ends that text-mode `open()` translates.
    `str.splitlines` would also break at a form feed or another Unicode
    separator, even inside a comment.  A trailing empty line is harmless.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        return [line.partition("#")[0] for line in lines]
    return lines


def parse_system(text: str) -> System:
    """Parse a system file; raises InputError carrying line-numbered
    diagnostics when anything is wrong."""
    if not isinstance(text, str):
        raise InputError(f"text must be a str, got {text!r}")
    # Insertion-ordered dicts from each name to its index: declaration
    # order plus O(1) checks, which keep loading linear in the number of
    # lines.  `dom` lists each action's domain index.
    domains: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    aidx: dict[str, int] = {}
    dom: list[int] = []
    states: dict[str, int] = {}
    initial: str | None = None
    # The (state, action) and (state, domain) pairs of the lines that named
    # an unknown state, action, domain or target, kept only to report a
    # second declaration of one; a file without such lines leaves both empty.
    transitions: set[tuple[str, str]] = set()
    observations: set[tuple[str, str]] = set()
    # One row per state, one cell per action: the target's index, unset
    # (-1) until a line with known names sets it.
    step: list[list[int]] = []
    # One entry per state: None until the state's first `obs` line makes its
    # row, one cell per domain (the token, None while unset).  The states
    # without one share one null row at the end.  In the `check_files`
    # benchmark files at most one state in 3 000 has an `obs` line; a file
    # with one for every state parses as fast as with a row per state made
    # on its `state` line (`tools/ab_timing.py`, row `observed`).
    obs: list[list[str | None] | None] = []
    diags: list[str] = []

    # One flat loop, its branches in order of how often a file uses them.
    # No name holds the lines, so they are freed before the tables are
    # finished.
    for lineno, fields in enumerate(map(str.split, _lines(text)), start=1):
        if not fields:
            continue
        kind = fields[0]
        if kind == "trans":
            # Unpacking checks the field count without a `len` call on the
            # most frequent line.
            try:
                _, s, a, t = fields
            except ValueError:
                diags.append(f"line {lineno}: 'trans' takes 3 arguments")
                continue
            # Subscripts cost less than `.get` calls; a line with an
            # unknown name leaves by the KeyError, which looks each up again
            # and remembers the line by its names.
            try:
                row, ai, ti = step[states[s]], aidx[a], states[t]
            except KeyError:
                si, ti, ai = states.get(s), states.get(t), aidx.get(a)
                if si is None:
                    diags.append(f"line {lineno}: unknown state {s!r}")
                if ti is None:
                    diags.append(f"line {lineno}: unknown state {t!r}")
                if ai is None:
                    diags.append(f"line {lineno}: unknown action {a!r}")
                if (s, a) in transitions or (
                        si is not None and ai is not None and step[si][ai] != -1):
                    diags.append(f"line {lineno}: duplicate transition for ({s}, {a})")
                transitions.add((s, a))
                continue
            if row[ai] != -1 or transitions and (s, a) in transitions:
                diags.append(f"line {lineno}: duplicate transition for ({s}, {a})")
            row[ai] = ti
        elif kind == "obs":
            try:
                _, s, d, token = fields
            except ValueError:
                diags.append(f"line {lineno}: 'obs' takes 3 arguments")
                continue
            si, di = states.get(s), domains.get(d)
            if si is None or di is None:
                if si is None:
                    diags.append(f"line {lineno}: unknown state {s!r}")
                if di is None:
                    diags.append(f"line {lineno}: unknown domain {d!r}")
                if (s, d) in observations:
                    diags.append(f"line {lineno}: duplicate observation for ({s}, {d})")
                observations.add((s, d))
                continue
            row = obs[si]
            if row is None:
                row = obs[si] = [None] * len(domains)
            if row[di] is not None or observations and (s, d) in observations:
                diags.append(f"line {lineno}: duplicate observation for ({s}, {d})")
            row[di] = token
        elif kind == "state":
            n = len(fields)
            if n == 2 or (n == 3 and fields[2] == "init"):
                name = fields[1]
                if name in states:
                    diags.append(f"line {lineno}: duplicate state {name!r}")
                    continue
                states[name] = len(states)
                step.append([-1] * len(aidx))
                obs.append(None)
                if n == 3:
                    if initial is not None:
                        diags.append(f"line {lineno}: multiple initial states")
                    else:
                        initial = name
            else:
                diags.append(f"line {lineno}: expected 'state NAME [init]'")
        elif kind == "action":
            if len(fields) != 3:
                diags.append(f"line {lineno}: 'action' takes 2 arguments")
                continue
            _, name, d = fields
            if name in aidx:
                diags.append(f"line {lineno}: duplicate action {name!r}")
            elif (di := domains.get(d)) is None:
                diags.append(f"line {lineno}: action {name}: unknown domain {d!r}")
            else:
                aidx[name] = len(dom)
                dom.append(di)
                # Widen the rows of the states declared before, unset.
                for row in step:
                    row.append(-1)
        elif kind == "domain":
            if len(fields) != 2:
                diags.append(f"line {lineno}: 'domain' takes 1 arguments")
                continue
            name = fields[1]
            if name in domains:
                diags.append(f"line {lineno}: duplicate domain {name!r}")
            else:
                domains[name] = len(domains)
                # Widen the rows that exist; a state with none stays None.
                for row in obs:
                    if row is not None:
                        row.append(None)
        elif kind == "interferes":
            if len(fields) != 3:
                diags.append(f"line {lineno}: 'interferes' takes 2 arguments")
                continue
            _, u, v = fields
            missing = [d for d in (u, v) if d not in domains]
            if missing:
                diags.append(f"line {lineno}: unknown domain {missing[0]!r}")
            else:
                edges.append((u, v))
        else:
            diags.append(f"line {lineno}: unknown declaration {kind!r}")

    if initial is None:
        if states:
            diags.append("no initial state declared")
        else:
            diags.append("no states declared")

    if diags:
        raise InputError(f"cannot parse system: {diags[0]}", diags)

    # Every name the tables hold was split out by `str.split` and checked
    # against the declarations above, so `System` need not check it again.
    # A cell no line set takes its default: a self-loop, the null token.
    # Every state without an observation row shares one row of null tokens.
    null = (NULL_OBS,) * len(domains)
    return System._from_tables(
        Policy(domains, edges), initial, states, aidx, dom,
        [tuple([si if t == -1 else t for t in row]) if -1 in row else tuple(row)
         for si, row in enumerate(step)],
        [null if row is None else tuple([NULL_OBS if o is None else o for o in row])
         for row in obs],
    )


def serialize_system(system: System) -> str:
    """Canonical text form: blocks in declaration order, defaults omitted."""
    pol = system.policy
    lines: list[str] = []
    for d in pol.domains:
        lines.append(f"domain {d}")
    for u, row in zip(pol.domains, pol._may):
        lines += [f"interferes {u} {v}" for v, uv in zip(pol.domains, row) if uv and v != u]
    for a, d in system.action_domain.items():
        lines.append(f"action {a} {d}")
    for s in system.states:
        lines.append(f"state {s} init" if s == system.initial else f"state {s}")
    for si, s in enumerate(system.states):
        for ai, a in enumerate(system.actions):
            t = system._step[si][ai]
            if t != si:
                lines.append(f"trans {s} {a} {system.states[t]}")
    for si, s in enumerate(system.states):
        for di, d in enumerate(pol.domains):
            token = system._obs[si][di]
            if token != NULL_OBS:
                lines.append(f"obs {s} {d} {token}")
    return "\n".join(lines) + "\n"
