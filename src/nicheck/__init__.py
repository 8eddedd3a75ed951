"""Security of finite deterministic systems against interference policies.

Exact polynomial-time deciders (with machine-checkable counterexamples) for
the three decidable flavours of policy conformance, bounded enumeration
checkers for the two undecidable ones, and the constructions that make the
undecidable ones interesting: a word-correspondence encoding and the
final-action augmentation.
"""

from types import ModuleType as _ModuleType

from .errors import BudgetError, InputError
from .system import (
    NULL_OBS,
    Policy,
    System,
    is_transitive,
    policy_image,
    reachable_states,
    run,
)
from .semantics import (
    ACT,
    EPSILON,
    OBS,
    InfoTree,
    TraceProfile,
    ftview,
    ipurge,
    ito,
    lpre,
    purge,
    sources,
    swappable,
    ta,
    to,
    tview,
    view,
)
from .verify import (
    SECURE,
    Verdict,
    decide_ip,
    decide_p,
    decide_ta,
)
from .oracle import (
    BoundedVerdict,
    NOTIONS,
    bounded_check,
    check_witness_pair,
    exact_pair_check_ip,
    exact_pair_check_p,
    trace_key,
)
from .reduction import (
    DEMO_INSTANCE,
    DEMO_SOLUTION,
    PcpInstance,
    augment_final,
    build_pcp_system,
    convertback,
    pcp_witness,
)
from .generate import (
    FIXTURE_CLASSIFICATION,
    FIXTURE_NAMES,
    GenParams,
    fixture,
    gen_random_system,
)
from .fileformat import parse_system, serialize_system

# The public names, without the submodules that importing them binds here, so
# a star import rebinds none of a caller's names such as `system`.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
