"""Operator command line: calibrate, sanitize, keywords, score, evaluate.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Configuration lives in a JSON file with unknown keys rejected; the API
credential is only ever read from an environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import fields, replace

from .client import EndpointConfig, HttpChatClient, MockChatModel
from .evaluation import (
    REPORT_COLUMNS,
    TEMPERATURE_GRID,
    aggregate,
    emit_report,
    load_dataset,
    run_experiment,
)
from .keywords import ReleaseMethod, tokenize_group
from .mechanisms import ClipBounds
from .metrics import all_metrics
from .pipeline import (
    PipelineConfig,
    PipelineStageError,
    budget_report,
    keyword_histogram,
    release_keywords,
    run_pipeline,
)
from .rewriting import calibrate_bounds, schedule_range


class ConfigError(ValueError):
    """A usage or configuration error; ``main`` prints it and exits 2."""


@contextlib.contextmanager
def _config_errors(
    prefix: str = "", kinds: tuple[type[Exception], ...] = (ValueError,)
) -> Iterator[None]:
    """Re-raise the given exceptions from the block as a ConfigError."""
    try:
        yield
    except kinds as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _reject_unknown(doc: dict, allowed: set[str], context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _parse_bounds(doc: dict) -> ClipBounds:
    if not isinstance(doc, dict):
        raise ConfigError("bounds must be a JSON object")
    _reject_unknown(doc, _BOUNDS_KEYS, "bounds")
    if "unit_epsilon" in doc and ("b_min" in doc or "b_max" in doc):
        raise ConfigError("bounds: give either unit_epsilon or b_min/b_max, not both")
    with _config_errors("bounds: ", (KeyError, ValueError)):
        if "unit_epsilon" in doc:
            return ClipBounds.from_unit_epsilon(doc["unit_epsilon"])
        return ClipBounds(doc["b_min"], doc["b_max"])


def parse_schedule(spec: str) -> tuple[float, ...]:
    try:
        low, high, step = (float(x) for x in str(spec).split(":"))
    except ValueError as exc:
        raise ConfigError(f"invalid schedule {spec!r} (expected low:high:step)") from exc
    with _config_errors(f"invalid schedule {spec!r}: "):
        return schedule_range(low, high, step)


# Each value goes as it is to the field of its name, whose type checks it; a
# config cannot set mode (white-box needs a step oracle) or template_id.
_CONFIG_FIELDS = {f.name for f in fields(PipelineConfig) if f.init} - {"bounds", "mode", "template_id"}
_TOP_KEYS = _CONFIG_FIELDS | {"temperature", "use_mock", "mock_seed", "bounds", "client"}
_CLIENT_KEYS = {f.name for f in fields(EndpointConfig)}
_BOUNDS_KEYS = {f.name for f in fields(ClipBounds)} | {"unit_epsilon"}


def load_cli_config(path: str) -> tuple[PipelineConfig, object]:
    """Read the JSON config file into a pipeline config plus chat client."""
    with _config_errors(f"cannot read config {path}: ", (OSError, ValueError)):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")

    if "bounds" not in doc:
        raise ConfigError("config requires bounds")
    bounds = _parse_bounds(doc["bounds"])
    settings = {key: doc[key] for key in _CONFIG_FIELDS & doc.keys()}
    if "epsilon2" in settings and settings["epsilon2"] is None:  # the library reads None as unset
        raise ConfigError("epsilon2 must be a number, got None")
    if "release_method" in settings:
        with _config_errors("release_method: "):
            settings["release_method"] = ReleaseMethod(str(settings["release_method"]).upper())
    if "schedule" in settings:
        if "temperature" in doc:
            raise ConfigError("give either temperature or schedule, not both")
        settings["schedule"] = parse_schedule(settings["schedule"])
        settings.setdefault("m", len(settings["schedule"]))
    elif "temperature" in doc:
        settings["schedule"] = doc["temperature"]
    with _config_errors():
        config = PipelineConfig(bounds=bounds, **settings)

    use_mock = doc.get("use_mock", False)
    if type(use_mock) is not bool:  # no library type holds use_mock
        raise ConfigError(f"use_mock must be true or false, got {use_mock!r}")
    mock = {"seed": doc["mock_seed"]} if "mock_seed" in doc else {}
    if use_mock:
        if "client" in doc:
            raise ConfigError("give either use_mock or a client section, not both")
        with _config_errors("mock_seed: "):
            return config, MockChatModel(**mock)
    if mock:
        raise ConfigError("mock_seed needs use_mock: true")
    client_doc = doc.get("client")
    if not isinstance(client_doc, dict):
        raise ConfigError("client must be a JSON object" if "client" in doc
                          else "config requires a client section unless use_mock is true")
    _reject_unknown(client_doc, _CLIENT_KEYS, "client")
    # TypeError: base_url or model missing
    with _config_errors("client config: ", (TypeError, ValueError)):
        endpoint = EndpointConfig(**client_doc)
        endpoint.api_key()  # a malformed key fails here, before any call
    return config, HttpChatClient(endpoint)


def _check_writable(path: str | None) -> None:
    """Fail with a ConfigError unless ``path`` can be written; truncates nothing.

    A file the check creates is removed again, so a refused or failed run
    leaves no empty output behind; an existing file is left as it is.
    """
    if path is not None:
        with _config_errors("cannot write output: ", (OSError,)):
            try:
                open(path, "x", encoding="utf-8").close()
            except FileExistsError:
                open(path, "a", encoding="utf-8").close()
            else:
                os.remove(path)


def cmd_calibrate(args: argparse.Namespace) -> int:
    with _config_errors("cannot read samples: ", (OSError, ValueError)):
        with open(args.samples, encoding="utf-8") as fh:
            samples = [float(line) for line in fh if line.strip()]
    with _config_errors():
        bounds = calibrate_bounds(samples)
    _check_writable(args.out)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"b_min": bounds.b_min, "b_max": bounds.b_max}, fh, indent=2)
        fh.write("\n")
    print(f"wrote bounds [{bounds.b_min:.6g}, {bounds.b_max:.6g}] to {args.out}")
    return 0


def _read_prompt(spec: str) -> str:
    if spec.startswith("@"):
        with _config_errors("cannot read prompt file: ", (OSError, ValueError)):
            with open(spec[1:], encoding="utf-8") as fh:
                return fh.read().strip()
    return spec


def _closing(client: object) -> contextlib.AbstractContextManager:
    """Close a loaded client on exit when it holds resources (the HTTP client)."""
    return contextlib.closing(client) if hasattr(client, "close") else contextlib.nullcontext()


def cmd_sanitize(args: argparse.Namespace) -> int:
    config, client = load_cli_config(args.config)
    with _closing(client):
        with _config_errors():  # PipelineConfig rejecting a flag
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.schedule is not None:
                schedule = parse_schedule(args.schedule)
                config = replace(config, schedule=schedule, m=len(schedule))
        prompt = _read_prompt(args.prompt)
        if not prompt:
            raise ConfigError("prompt is empty")
        _check_writable(args.audit)
        try:
            result = run_pipeline(prompt, config, client)
        except PipelineStageError as exc:
            digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=16).hexdigest()
            print(
                f"error: {exc}\n"
                f"completed before the failure: {', '.join(exc.completed) or 'nothing'}\n"
                f"budget charged before the failure: {exc.ledger.total():g}\n"
                f"prompt blake2b: {digest}",
                file=sys.stderr,
            )
            return 1
    doc = result.to_json_dict()
    if args.audit is not None:
        with open(args.audit, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")
    print(json.dumps(doc, indent=2, ensure_ascii=False))
    if args.report:
        print(budget_report(result), file=sys.stderr)
    return 0


def cmd_keywords(args: argparse.Namespace) -> int:
    method = ReleaseMethod(args.method.upper())
    if method is ReleaseMethod.DP and args.epsilon2 is None:
        raise ConfigError("--epsilon2 is required for the dp method")
    if method is ReleaseMethod.NDP and args.epsilon2 is not None:
        raise ConfigError("--epsilon2 is only used by the dp method")
    if method is ReleaseMethod.NDP and args.seed is not None:
        raise ConfigError("--seed is only used by the dp method")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    # ValueError: bad JSON too
    with _config_errors("cannot read group: ", (OSError, LookupError, TypeError, ValueError)):
        with open(args.group, encoding="utf-8") as fh:
            texts = [rewrite["text"] for rewrite in json.load(fh)["rewrites"]]
        if not texts or not all(isinstance(text, str) for text in texts):
            raise ValueError("rewrites must be a nonempty list of objects with a text string")
    hist = keyword_histogram(method, *tokenize_group(texts))
    with _config_errors():
        release = release_keywords(hist, method, args.k, args.epsilon2, args.seed or 0)
    print(
        json.dumps(
            {"histogram": hist.to_json_dict(), "release": release.to_json_dict()},
            indent=2,
            ensure_ascii=False,
        )
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    print(json.dumps(all_metrics(args.reference, args.hypothesis), indent=2))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.sample_seed is not None and args.sample_n is None:
        raise ConfigError("--sample-seed needs --sample-n")
    config, client = load_cli_config(args.config)
    with _closing(client):
        with _config_errors():
            methods = args.methods.split(",") if args.methods is not None else ["group-ndp"]
            temperatures = (
                tuple(float(t) for t in args.temperatures.split(","))
                if args.temperatures is not None
                else TEMPERATURE_GRID
            )
        sample = (args.sample_n, args.sample_seed or 0) if args.sample_n is not None else None
        with _config_errors("cannot load dataset: ", (OSError, ValueError)):
            load = load_dataset(args.dataset, args.format, sample=sample)
        for err in load.errors:
            print(f"dataset warning: {err}", file=sys.stderr)
        if load.error_fraction() > 0.01:
            print(
                f"error: {len(load.errors)} malformed records exceed the 1% threshold",
                file=sys.stderr,
            )
            return 1
        if not load.records:
            raise ConfigError("dataset is empty")
        _check_writable(args.out)
        _check_writable(args.audit)
        with _config_errors():  # every grid cell is built before the first call
            rows = run_experiment(
                load.records,
                config,
                client,
                methods=methods,
                temperatures=temperatures,
                repeats=args.repeats,
                seed=config.seed,
                audit_path=args.audit,
            )
    failed = sum(1 for r in rows if r.failed)
    if failed:
        print(f"warning: {failed} rows failed and were excluded", file=sys.stderr)
    emit_report(aggregate(rows), args.out)
    print(f"wrote {args.out} ({', '.join(REPORT_COLUMNS[:2])}, ... columns)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promptsan",
        description="Differentially private prompt sanitization via group text rewriting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="derive clip bounds from a logit sample file")
    p.add_argument("--samples", required=True, help="text file, one logit per line")
    p.add_argument("--out", required=True, help="output JSON path for the bounds")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sanitize", help="run the three-stage pipeline on one prompt")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--prompt", required=True, help="prompt text, or @file to read from disk")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--schedule", default=None, help="non-uniform schedule low:high:step")
    p.add_argument("--audit", default=None, help="append the result to this JSONL file")
    p.add_argument("--report", action="store_true", help="print the budget report to stderr")
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser("keywords", help="extract and release keywords from a group JSON")
    p.add_argument("--group", required=True, help="group JSON file; only rewrites[i].text is read")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--method", choices=("ndp", "dp"), default="ndp")
    p.add_argument("--epsilon2", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="dp method only; default 0")
    p.set_defaults(func=cmd_keywords)

    p = sub.add_parser("score", help="similarity metrics between two texts")
    p.add_argument("--reference", required=True)
    p.add_argument("--hypothesis", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="run the integrated QA evaluation experiment")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", required=True, choices=("csqa_jsonl", "docvqa_json"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--methods", default=None, help="comma-separated sanitizer names")
    p.add_argument("--temperatures", default=None, help="comma-separated grid override")
    p.add_argument("--sample-n", type=int, default=None)
    p.add_argument("--sample-seed", type=int, default=None, help="default 0")
    p.add_argument("--audit", default=None, help="per-item JSONL audit path")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
