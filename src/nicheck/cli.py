"""Command-line front end and the scaling benchmark.

Exit codes: 0 secure, 1 insecure (witness JSON on stdout), 2 no violation up
to the requested depth (bounded checks only), 3 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import BudgetError, InputError
from .fileformat import parse_system, serialize_system
from .generate import FIXTURE_NAMES, GenParams, fixture, gen_random_system
from .oracle import NOTIONS, bounded_check
from .reduction import PcpInstance, augment_final, build_pcp_system, pcp_witness
from .system import System, run
from .verify import decide_ip, decide_p, decide_ta

_DECIDERS = {"p": decide_p, "ip": decide_ip, "ta": decide_ta}


def _load(path: str) -> System:
    # utf-8-sig drops a leading byte-order mark, which some editors write.
    with open(path, encoding="utf-8-sig") as handle:
        return parse_system(handle.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _witness_json(system: System, notion: str, domain, alpha, beta) -> str:
    end_a = run(system, system.initial, alpha)
    end_b = run(system, system.initial, beta)
    return json.dumps(
        {
            "notion": notion,
            "domain": domain,
            "alpha": list(alpha),
            "beta": list(beta),
            "obs_alpha": system.obs(end_a, domain),
            "obs_beta": system.obs(end_b, domain),
        }
    )


def run_scaling_bench(notion="p", sizes=(1000, 10000, 100000), seed=7):
    """Time one decider over random constant-observation machines with 4
    actions over 3 domains.

    Constant observations keep the machines secure, so every run performs the
    complete closure rather than exiting at the first violation; that is the
    workload whose growth should stay near-linear in the state count.
    """
    decide = _DECIDERS[notion]
    results = []
    for n in sizes:
        params = GenParams(n, 4, 3, 1, 0.3, seed)
        system = gen_random_system(params)
        started = time.perf_counter()
        verdict = decide(system)
        elapsed = time.perf_counter() - started
        results.append({"states": n, "seconds": elapsed, "secure": verdict.secure})
    return results


def linear_fit_max_ratio(results) -> float:
    """Worst multiplicative deviation of the timings from the least-squares
    line through the origin."""
    num = sum(r["states"] * r["seconds"] for r in results)
    den = sum(r["states"] ** 2 for r in results)
    slope = num / den
    worst = 1.0
    for r in results:
        predicted = slope * r["states"]
        ratio = r["seconds"] / predicted if predicted else 1.0
        worst = max(worst, ratio, 1.0 / ratio if ratio else 1.0)
    return worst


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    leaves it unchanged, even when the arguments are rejected."""
    parser = argparse.ArgumentParser(
        prog="nicheck",
        description="Decide or boundedly check information-flow security of "
        "finite deterministic systems against interference policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run one of the exact deciders")
    p.add_argument("--notion", choices=sorted(_DECIDERS), required=True)
    p.add_argument("file")

    p = sub.add_parser("bounded", help="enumerate traces up to a depth")
    p.add_argument("--notion", choices=list(NOTIONS), required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("file")

    p = sub.add_parser("reduce-pcp", help="encode a word-correspondence instance")
    p.add_argument("--sigma", required=True, help="alphabet, e.g. ab")
    p.add_argument("--u", required=True, help="comma-separated top words")
    p.add_argument("--w", required=True, help="comma-separated bottom words")
    p.add_argument("--out")

    p = sub.add_parser("augment-final", help="add observation-freezing final actions")
    p.add_argument("file")
    p.add_argument("--out")

    p = sub.add_parser("gen", help="emit a seeded random system")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--domains", type=int, required=True)
    p.add_argument("--obs-tokens", type=int, default=2)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("fixture", help="emit one of the named example systems")
    p.add_argument("name", choices=list(FIXTURE_NAMES))
    p.add_argument("--out")

    p = sub.add_parser("bench", help="time a decider across system sizes")
    p.add_argument("--notion", choices=sorted(_DECIDERS), default="p")
    p.add_argument("--sizes", default="1000,10000,100000")
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as stop:
        return 0 if stop.code == 0 else 3

    try:
        if args.command == "check":
            system = _load(args.file)
            verdict = _DECIDERS[args.notion](system)
            if verdict.secure:
                print(f"secure ({args.notion})")
                return 0
            print(_witness_json(system, args.notion, verdict.domain,
                                verdict.alpha, verdict.beta))
            return 1

        if args.command == "bounded":
            system = _load(args.file)
            kwargs = {"budget": args.budget} if args.budget is not None else {}
            outcome = bounded_check(system, args.notion, args.depth, **kwargs)
            if outcome.insecure:
                print(_witness_json(system, args.notion, outcome.domain,
                                    outcome.alpha, outcome.beta))
                return 1
            print(json.dumps({"notion": args.notion,
                              "no_violation_up_to": outcome.depth}))
            return 2

        if args.command == "reduce-pcp":
            instance = PcpInstance(
                args.sigma,
                tuple(args.u.split(",")),
                tuple(args.w.split(",")),
            )
            _emit(serialize_system(build_pcp_system(instance)), args.out)
            return 0

        if args.command == "augment-final":
            _emit(serialize_system(augment_final(_load(args.file))), args.out)
            return 0

        if args.command == "gen":
            params = GenParams(args.states, args.actions, args.domains,
                               args.obs_tokens, args.density, args.seed)
            _emit(serialize_system(gen_random_system(params)), args.out)
            return 0

        if args.command == "fixture":
            _emit(serialize_system(fixture(args.name)), args.out)
            return 0

        if args.command == "bench":
            sizes = tuple(int(s) for s in args.sizes.split(","))
            results = run_scaling_bench(args.notion, sizes, args.seed)
            for r in results:
                print(f"states={r['states']} seconds={r['seconds']:.4f}")
            print(f"linear fit max ratio: {linear_fit_max_ratio(results):.2f}")
            return 0

    except (InputError, BudgetError, OSError) as err:
        detail = getattr(err, "diagnostics", None)
        for line in detail or (str(err),):
            print(line, file=sys.stderr)
        return 3
    except Exception as err:  # exit code 1 means "insecure"; a crash is not
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3

    return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
