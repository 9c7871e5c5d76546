#!/usr/bin/env python3
"""Run the mobile-eavesdropper sweep on a scenario config and write the
per-cell CSV plus a short summary (zero-rate cell counts and the jamming
power vs distance-to-receiver diagnostic)."""

import argparse
import json
from pathlib import Path

from macwiretap.scenario import ScenarioConfig, sweep

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config", default=str(HERE / "example_scenario.json"), help="scenario JSON"
    )
    parser.add_argument("--out", default="scenario_cells.csv", help="per-cell CSV path")
    args = parser.parse_args()

    with open(args.config, "r", encoding="utf-8") as fp:
        config = ScenarioConfig.from_dict(json.load(fp))
    result = sweep(config)
    with open(args.out, "w", encoding="utf-8") as fp:
        result.to_csv(fp)

    zero_jam, zero_nojam = result.zero_rate_counts()
    print(f"cells:                 {len(result)}")
    print(f"zero-rate w/o jamming: {zero_nojam}")
    print(f"zero-rate w/ jamming:  {zero_jam}")
    print(f"wrote {args.out}")
    print("\nmean jamming power by eavesdropper distance to the receiver:")
    for row in result.jam_power_by_bs_distance(bins=8):
        print(
            f"  {row['distance_lo']:7.2f} .. {row['distance_hi']:7.2f} : "
            f"{row['mean_jam_power']:10.4f}  ({int(row['cells'])} cells)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
