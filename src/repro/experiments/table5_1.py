"""Table 5.1: median link duration by heading-difference bucket.

15 networks of 100 vehicles each; for every observed link, the heading
difference at link start and the total duration.  Paper's medians:
66 / 32 / 15 / 9 seconds for [0,10) / [10,20) / [20,30) / [30,180],
against 16 seconds over all links -- similar headings predict 4-5x
longer links, roughly halving per 10 degrees.
"""

from __future__ import annotations

import numpy as np

from ..api import Session
from ..vehicular import extract_links, median_duration_by_bucket, simulate_vehicles
from .common import print_table

__all__ = ["run", "main"]


def _network_links(args: tuple[int, int, int]) -> list:
    """Worker: one network's link records (picklable top-level task)."""
    n_vehicles, duration_s, seed = args
    network = simulate_vehicles(
        n_vehicles=n_vehicles, duration_s=duration_s, seed=seed
    )
    return extract_links(network)


def run(
    n_networks: int = 15,
    n_vehicles: int = 100,
    duration_s: int = 300,
    seed0: int = 0,
    session: Session | None = None,
) -> dict:
    """Simulate the ensemble and aggregate all links, like the paper.

    The per-network simulations are independent, so they fan out over
    :meth:`repro.api.Session.scatter` workers; link records are
    aggregated in network order, identical to the serial loop.
    """
    if session is None:
        session = Session()
    tasks = [(n_vehicles, duration_s, seed0 + i) for i in range(n_networks)]
    all_links = [
        link
        for links in session.scatter(_network_links, tasks)
        for link in links
    ]
    medians = median_duration_by_bucket(all_links)
    similar = medians["[0,10)"]
    overall = medians["all"]
    return {
        "n_links": len(all_links),
        "medians_s": medians,
        "similar_heading_factor": similar / overall if overall else float("inf"),
    }


def main(seed: int = 0, n_networks: int = 15,
         session: Session | None = None) -> dict:
    result = run(n_networks=n_networks, seed0=seed, session=session)
    print_table("Table 5.1: median link duration (s) by heading difference", {
        **result["medians_s"],
        "links observed": result["n_links"],
        "similar/all factor": result["similar_heading_factor"],
    }, value_format="{:.1f}")
    return result


if __name__ == "__main__":
    main()
