#!/usr/bin/env python3
"""Offline privacy/utility experiment over the nine-temperature grid.

Runs the full sanitize -> answer -> score loop on synthetic questions with the
deterministic mock model: the group-rewriting pipeline (NDP release) next to
the single-rewrite paraphrasing baseline, five repeats each, and writes the
aggregate CSV. The question-similarity columns fall as temperature rises,
which is the trade-off curve this toolkit exists to navigate.
"""

import argparse
import time

from promptsan.client import MockChatModel
from promptsan.evaluation import (
    TEMPERATURE_GRID,
    aggregate,
    emit_report,
    run_experiment,
    synthetic_qa_records,
)
from promptsan.mechanisms import ClipBounds
from promptsan.pipeline import PipelineConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="mock_experiment.csv")
    parser.add_argument("--items", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--epsilon2", type=float, default=None,
                        help="also run the DP keyword release at this budget")
    parser.add_argument("--audit", default=None, help="per-item JSONL audit path")
    args = parser.parse_args()

    records = synthetic_qa_records(args.items, seed=args.seed)
    config = PipelineConfig(
        bounds=ClipBounds(0.0, 8.0), m=10, k=10, seed=args.seed, epsilon2=args.epsilon2
    )
    methods = ["group-ndp", "paraphrase"]
    if args.epsilon2 is not None:
        methods.insert(1, "group-dp")

    started = time.monotonic()
    rows = run_experiment(
        records,
        config,
        MockChatModel(seed=0),
        methods=methods,
        temperatures=TEMPERATURE_GRID,
        repeats=args.repeats,
        seed=args.seed,
        audit_path=args.audit,
    )
    elapsed = time.monotonic() - started

    aggregates = aggregate(rows)
    emit_report(aggregates, args.out)
    print(f"{len(rows)} rows in {elapsed:.1f}s -> {args.out}")
    print(f"{'method':<12} {'T':>5} {'q_rouge1':>9} {'q_rougeL':>9} {'q_bleu':>8} {'utility':>8}")
    for entry in aggregates:
        print(
            f"{entry['method']:<12} {entry['temperature']:>5.2f} "
            f"{entry['q_rouge1_mean']:>9.4f} {entry['q_rougeL_mean']:>9.4f} "
            f"{entry['q_bleu_mean']:>8.4f} {entry['utility_mean']:>8.4f}"
        )


if __name__ == "__main__":
    main()
