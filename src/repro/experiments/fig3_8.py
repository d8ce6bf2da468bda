"""Figure 3-8: vehicular drive-by comparison, UDP, normalised to
RapidSample.

The receiver rides in a car passing the roadside sender at 8-72 km/h;
the workload is UDP because "TCP times out when faced with the high
loss rate of the mobile case".
"""

from __future__ import annotations

from .common import print_table
from .fig3_5 import run_comparison

__all__ = ["run", "main"]


def run(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    return run_comparison(
        "vehicular",
        environments=("vehicular",),
        n_traces=n_traces,
        duration_s=10.0,
        tcp=False,
        normalise="RapidSample",
        seed0=seed,
        session=session,
    )


def main(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    result = run(seed, n_traces, session=session)
    data = result["envs"]["vehicular"]
    print_table(
        "Figure 3-8 (vehicular): UDP throughput / RapidSample",
        data["normalised"],
    )
    return result


if __name__ == "__main__":
    main()
