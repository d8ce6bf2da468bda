"""Network scenarios: multi-station simulation grids (Sections 2.3, 5.2).

Declares the :mod:`repro.network` scenario catalog as an
(scenario x seed x association policy) grid of
:class:`repro.api.NetworkRunSpec`\\ s and hands it to
:class:`repro.api.Session`, reporting aggregate throughput, handoff
counts and mean association lifetimes -- the network-scale counterpart
of the per-figure drivers.  The session warms station traces and hint
series into the on-disk store one artefact per worker, then fans the
replays out; ``engine="auto"`` picks the batch scenario engine for
dense cells (bit-identical results either way).
"""

from __future__ import annotations

from ..api import NetworkRunSpec, Session
from ..network.scenario import ASSOCIATION_POLICIES, NETWORK_ENGINES
from .common import print_table

__all__ = ["run_grid", "run", "main"]

#: Association policies compared by the default grid -- the scenario
#: registry itself, so new policies join the comparison automatically.
POLICIES = ASSOCIATION_POLICIES


def run_grid(
    scenarios: tuple[str, ...],
    seeds: tuple[int, ...],
    policies: tuple[str, ...] = POLICIES,
    duration_s: float | None = None,
    session: Session | None = None,
) -> dict[tuple[str, str], list[dict]]:
    """Replay every (scenario, policy) over all seeds; session fan-out.

    Returns ``{(scenario, policy): [summary per seed]}`` in a fixed
    order, identical for any job count *and any engine* -- the batch
    scenario engine is pinned bit-identical to the reference one, so
    the engine choice (including the session's ``auto`` planning) only
    changes how fast the grid fills in.
    """
    if session is None:
        session = Session()
    specs = [
        NetworkRunSpec(scenario=name, seed=seed, policy=policy,
                       duration_s=duration_s)
        for name in scenarios
        for policy in policies
        for seed in seeds
    ]
    runs = session.map(specs)
    grid: dict[tuple[str, str], list[dict]] = {}
    for spec, run in zip(specs, runs):
        grid.setdefault((spec.scenario, spec.policy), []).append(
            run.result.to_dict())
    return grid


def run(seed: int = 0, n_seeds: int = 2, duration_s: float | None = None,
        policies: tuple[str, ...] = POLICIES,
        session: Session | None = None) -> dict:
    """The default grid: full catalog x the association policies."""
    from ..network import scenario_names

    seeds = tuple(seed + i for i in range(n_seeds))
    grid = run_grid(tuple(scenario_names()), seeds, policies=policies,
                    duration_s=duration_s, session=session)
    rows: dict[str, dict] = {}
    for (name, policy), summaries in sorted(grid.items()):
        n = len(summaries)
        rows[f"{name}/{policy}"] = {
            "agg_mbps": sum(s["aggregate_mbps"] for s in summaries) / n,
            "handoffs": sum(s["handoffs"] for s in summaries) / n,
            "lifetime_s": sum(s["mean_lifetime_s"] for s in summaries) / n,
        }
    return {"rows": rows, "grid": grid}


def main(seed: int = 0, n_seeds: int = 2, quick: bool = False,
         session: Session | None = None) -> dict:
    # Quick mode: one seed, short replays, and a single policy -- at
    # 10 s no scenario hands off, so a policy comparison would just
    # duplicate every (expensive) replay for identical rows.
    duration_s = 10.0 if quick else None
    result = run(seed, n_seeds=1 if quick else n_seeds,
                 duration_s=duration_s,
                 policies=("lifetime",) if quick else POLICIES,
                 session=session)
    print_table(
        "Network scenarios: aggregate throughput / handoffs / lifetime",
        result["rows"],
    )
    return result


def _cli(argv: list[str] | None = None) -> dict:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, default=2, metavar="N",
                        help="seeds per (scenario, policy) cell")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: REPRO_JOBS or 1)")
    parser.add_argument("--quick", action="store_true",
                        help="short scenario durations, one seed")
    parser.add_argument("--engine",
                        choices=["auto", *NETWORK_ENGINES],
                        default="auto",
                        help="scenario replay engine (bit-identical "
                             "results; auto picks batch for dense cells)")
    args = parser.parse_args(argv)
    return main(args.seed, n_seeds=args.seeds, quick=args.quick,
                session=Session(engine=args.engine, jobs=args.jobs))


if __name__ == "__main__":
    _cli()
