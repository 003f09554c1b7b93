#!/usr/bin/env python3
"""Write synthetic QA dataset files in the formats the evaluate command reads.

Produces either a CSQA-style JSONL file (5-choice records) or a DocVQA-style
JSON file (OCR token context), so the full experiment loop can run without
downloading anything.
"""

import argparse

from promptsan.evaluation import synthetic_qa_records, write_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--dataset", choices=("csqa", "docvqa"), default="csqa")
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    write_dataset(synthetic_qa_records(args.n, seed=args.seed, dataset=args.dataset), args.out)
    print(f"wrote {args.n} {args.dataset} records to {args.out}")


if __name__ == "__main__":
    main()
