"""Figure 3-6: mobile-only comparison, normalised to RapidSample."""

from __future__ import annotations

from .common import print_table
from .fig3_5 import run_comparison

__all__ = ["run", "main"]


def run(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    return run_comparison("mobile", n_traces=n_traces,
                          normalise="RapidSample", seed0=seed,
                          session=session)


def main(seed: int = 0, n_traces: int = 10, session=None) -> dict:
    result = run(seed, n_traces, session=session)
    for env, data in result["envs"].items():
        print_table(
            f"Figure 3-6 ({env}): throughput / RapidSample, mobile",
            data["normalised"],
        )
    return result


if __name__ == "__main__":
    main()
