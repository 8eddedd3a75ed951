"""The line parser that `nicheck.fileformat.parse_system` replaced.

A closure checks each declaration's arity, every line has its comment split
off and is stripped, and lines end wherever `str.splitlines` breaks them.
Kept as the reference the flat line loop must match diagnostic for
diagnostic and System for System on files whose lines end in LF.
"""

from __future__ import annotations

from nicheck.errors import InputError
from nicheck.system import Policy, System


def parse_system(text: str) -> System:
    """Parse a system file; raises InputError carrying line-numbered
    diagnostics when anything is wrong."""
    # Insertion-ordered dicts: declaration order plus O(1) membership tests,
    # which keep loading linear in the number of lines.
    domains: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    actions: dict[str, str] = {}
    states: dict[str, None] = {}
    initial: str | None = None
    transitions: dict[tuple[str, str], str] = {}
    observations: dict[tuple[str, str], str] = {}
    diags: list[str] = []

    def arity(n, fields, what):
        if len(fields) != n:
            diags.append(f"line {lineno}: '{what}' takes {n - 1} arguments")
            return False
        return True

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "domain":
            if arity(2, fields, kind):
                if fields[1] in domains:
                    diags.append(f"line {lineno}: duplicate domain {fields[1]!r}")
                else:
                    domains[fields[1]] = None
        elif kind == "interferes":
            if arity(3, fields, kind):
                u, v = fields[1], fields[2]
                missing = [d for d in (u, v) if d not in domains]
                if missing:
                    diags.append(f"line {lineno}: unknown domain {missing[0]!r}")
                else:
                    edges.append((u, v))
        elif kind == "action":
            if arity(3, fields, kind):
                name, dom = fields[1], fields[2]
                if name in actions:
                    diags.append(f"line {lineno}: duplicate action {name!r}")
                elif dom not in domains:
                    diags.append(f"line {lineno}: action {name}: unknown domain {dom!r}")
                else:
                    actions[name] = dom
        elif kind == "state":
            if len(fields) == 2 or (len(fields) == 3 and fields[2] == "init"):
                name = fields[1]
                if name in states:
                    diags.append(f"line {lineno}: duplicate state {name!r}")
                    continue
                states[name] = None
                if len(fields) == 3:
                    if initial is not None:
                        diags.append(f"line {lineno}: multiple initial states")
                    else:
                        initial = name
            else:
                diags.append(f"line {lineno}: expected 'state NAME [init]'")
        elif kind == "trans":
            if arity(4, fields, kind):
                s, a, t = fields[1], fields[2], fields[3]
                for q in (s, t):
                    if q not in states:
                        diags.append(f"line {lineno}: unknown state {q!r}")
                if a not in actions:
                    diags.append(f"line {lineno}: unknown action {a!r}")
                if (s, a) in transitions:
                    diags.append(f"line {lineno}: duplicate transition for ({s}, {a})")
                transitions[(s, a)] = t
        elif kind == "obs":
            if arity(4, fields, kind):
                s, d, token = fields[1], fields[2], fields[3]
                if s not in states:
                    diags.append(f"line {lineno}: unknown state {s!r}")
                if d not in domains:
                    diags.append(f"line {lineno}: unknown domain {d!r}")
                if (s, d) in observations:
                    diags.append(f"line {lineno}: duplicate observation for ({s}, {d})")
                observations[(s, d)] = token
        else:
            diags.append(f"line {lineno}: unknown declaration {kind!r}")

    if initial is None:
        if states:
            diags.append("no initial state declared")
        else:
            diags.append("no states declared")

    if diags:
        raise InputError(f"cannot parse system: {diags[0]}", diags)

    return System(
        Policy(domains, edges), states, initial, actions, transitions, observations
    )
