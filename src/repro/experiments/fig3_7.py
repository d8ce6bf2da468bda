"""Figure 3-7: static-only comparison, normalised to RapidSample.

The paper's point: RapidSample, best while mobile, is *worst* while
static -- 12-28% below SampleRate -- because it over-reacts to isolated
losses and keeps sampling doomed higher rates.
"""

from __future__ import annotations

from .common import print_table
from .fig3_5 import run_comparison

__all__ = ["run", "main"]


def run(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    return run_comparison("static", n_traces=n_traces,
                          normalise="RapidSample", seed0=seed,
                          session=session)


def main(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    result = run(seed, n_traces, session=session)
    for env, data in result["envs"].items():
        print_table(
            f"Figure 3-7 ({env}): throughput / RapidSample, static",
            data["normalised"],
        )
    return result


if __name__ == "__main__":
    main()
