#!/usr/bin/env python3
"""Print the per-token epsilon grid for one or more clip configurations.

A model's clip bounds fix the cost of every sampled token at a given
temperature; this prints the nine-temperature grid so budgets can be compared
across models. Pass either explicit bounds or the per-token constant at T=1
(twice the clip width), e.g. 19.4 for a [0, 9.7] clip.
"""

import argparse

from promptsan.evaluation import TEMPERATURE_GRID
from promptsan.mechanisms import ClipBounds, epsilon_per_token


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--unit-epsilon", type=float, nargs="+",
                       help="per-token epsilon at T=1, one value per column")
    group.add_argument("--bounds", type=float, nargs=2, metavar=("B_MIN", "B_MAX"))
    args = parser.parse_args()

    if args.bounds:
        columns = [ClipBounds(args.bounds[0], args.bounds[1])]
        labels = [f"[{args.bounds[0]:g}, {args.bounds[1]:g}]"]
    else:
        columns = [ClipBounds.from_unit_epsilon(c) for c in args.unit_epsilon]
        labels = [f"c={c:g}" for c in args.unit_epsilon]

    header = f"{'T':>6} " + " ".join(f"{label:>12}" for label in labels)
    print(header)
    for temperature in TEMPERATURE_GRID:
        row = " ".join(
            f"{epsilon_per_token(temperature, bounds):>12.1f}" for bounds in columns
        )
        print(f"{temperature:>6.2f} {row}")


if __name__ == "__main__":
    main()
