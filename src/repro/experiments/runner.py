"""Run the whole evaluation (every table and figure) and print a report.

``python -m repro.experiments.runner [--quick] [--jobs N] [--engine E]
[--store PATH]`` -- the --quick flag shrinks trace counts so the suite
finishes in a couple of minutes; the full settings mirror the paper's
trace counts.  All execution policy flows through one
:class:`repro.api.Session`: --jobs fans the per-figure task grids over
N worker processes, --engine picks the replay engine preference
(``auto`` plans per workload; all engines are bit-identical, so results
are the same for any choice), and --store redirects the on-disk trace
store shared across workers and runs (see :mod:`repro.channel.store`).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..api import SESSION_ENGINES, Session
from . import (
    extras,
    fig2_2,
    fig3_1,
    fig3_5,
    fig3_6,
    fig3_7,
    fig3_8,
    fig4_x,
    fig5_1,
    fig5_net,
    route_stability,
    table5_1,
)

__all__ = ["build_parser", "session_from_args", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The runner's CLI (separate so tests can pin the flag surface)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller trace counts (minutes, not tens)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the experiment fan-outs "
                             "(default: REPRO_JOBS or 1)")
    parser.add_argument("--engine", choices=list(SESSION_ENGINES),
                        default="auto",
                        help="replay engine preference (bit-identical "
                             "results; auto plans per workload)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="trace-store root ('off' disables; default: "
                             "REPRO_TRACE_STORE or .cache/trace-store)")
    return parser


def session_from_args(args: argparse.Namespace) -> Session:
    """The one session every stage runs through."""
    return Session(engine=args.engine, jobs=args.jobs, store=args.store,
                   seed=args.seed)


def main(argv: list[str] | None = None) -> dict:
    args = build_parser().parse_args(argv)
    session = session_from_args(args)

    n_traces = 4 if args.quick else 10
    n_networks = 4 if args.quick else 15

    results = {}
    stages = [
        ("fig2_2", lambda: fig2_2.main(args.seed)),
        ("fig3_1", lambda: fig3_1.main(args.seed)),
        ("fig3_5", lambda: fig3_5.main(args.seed, n_traces, session=session)),
        ("fig3_6", lambda: fig3_6.main(args.seed, n_traces, session=session)),
        ("fig3_7", lambda: fig3_7.main(args.seed, n_traces, session=session)),
        ("fig3_8", lambda: fig3_8.main(args.seed, n_traces, session=session)),
        ("fig4_x", lambda: fig4_x.main(args.seed, session=session)),
        ("table5_1", lambda: table5_1.main(args.seed, n_networks,
                                           session=session)),
        ("route_stability", lambda: route_stability.main(
            args.seed, max(4, n_networks // 2), session=session)),
        ("fig5_1", lambda: fig5_1.main(args.seed)),
        ("fig5_net", lambda: fig5_net.main(args.seed, quick=args.quick,
                                           session=session)),
        ("extras", lambda: extras.main(args.seed, session=session)),
    ]
    for name, stage in stages:
        start = time.perf_counter()
        results[name] = stage()
        print(f"  [{name} done in {time.perf_counter() - start:.1f}s]\n")
    return results


if __name__ == "__main__":
    main(sys.argv[1:])
