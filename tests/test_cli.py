import contextlib
import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from promptsan import client as client_module
from promptsan.cli import load_cli_config, main
from promptsan.client import (
    REWRITE_HEADER,
    ChatRequest,
    EndpointConfig,
    HttpChatClient,
    Message,
    MockChatModel,
)
from promptsan.evaluation import Choice, QARecord, synthetic_qa_records, write_dataset
from promptsan.keywords import DELTA2, ReleaseMethod
from promptsan.mechanisms import ClipBounds
from promptsan.pipeline import PipelineConfig

from conftest import QuietHandler, completion_payload, loopback


@pytest.fixture
def mock_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "m": 6,
                "k": 8,
                "temperature": 1.0,
                "release_method": "ndp",
                "bounds": {"b_min": 0.0, "b_max": 8.0},
                "seed": 7,
                "max_tokens": 64,
                "use_mock": True,
            }
        )
    )
    return str(path)


def csqa_fixture(tmp_path, n=20, seed=5) -> str:
    path = str(tmp_path / "dev.jsonl")
    write_dataset(synthetic_qa_records(n, seed=seed), path)
    return path


class TestCalibrate:
    def test_two_point_fixture(self, tmp_path, capsys):
        samples = tmp_path / "logits.txt"
        samples.write_text("0.0\n2.0\n")
        out = tmp_path / "bounds.json"
        assert main(["calibrate", "--samples", str(samples), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc == {"b_min": 1.0, "b_max": 5.0}

    def test_rerun_overwrites_identically(self, tmp_path):
        samples = tmp_path / "logits.txt"
        samples.write_text("0.0\n2.0\n")
        out = tmp_path / "bounds.json"
        main(["calibrate", "--samples", str(samples), "--out", str(out)])
        first = out.read_bytes()
        main(["calibrate", "--samples", str(samples), "--out", str(out)])
        assert out.read_bytes() == first


PROMPT = "Where would the silver archive usually store a hidden journal during the harbor festival?"

TWO_QUESTIONS = (
    PROMPT + " Who will inspect the quiet lantern near the orchard pavilion before the parade?"
)

RESULT_KEYS = {
    "original", "group", "histogram", "released", "exemplar",
    "final_prompt", "sanitized", "leakage_flag", "exemplar_fallback", "ledger",
}
# Re-pinned with the golden digests when the ledger stopped recording free
# post-processing (no post_process rows or ledger_total; exemplar_fallback added).
AUDIT_SHA256 = "048583cdc7c88247942877f84436d8256f64cd1ac900e0315cf6711caf53e50b"


class TestSanitize:
    def test_stable_json_output(self, mock_config, capsys):
        assert main(["sanitize", "--config", mock_config, "--prompt", PROMPT]) == 0
        first = capsys.readouterr().out
        assert main(["sanitize", "--config", mock_config, "--prompt", PROMPT]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert set(json.loads(first)) == RESULT_KEYS

    def test_delta2_shows_only_on_dp_output(self, tmp_path, capsys):
        dp = write_config(tmp_path, {
            **BASE_CONFIG, "use_mock": True, "release_method": "dp", "epsilon2": 2.0,
        }, "dp.json")
        assert main(["sanitize", "--config", dp, "--prompt", PROMPT, "--report"]) == 0
        out, err = capsys.readouterr()
        result = json.loads(out)
        assert result["released"]["delta"] == DELTA2
        assert result["ledger"]["entries"][-1]["note"] == f"keyword release (K=8, δ={DELTA2:g})"
        assert f"+ ε₂ = 2.000000 at δ₂ = {DELTA2:g}" in err
        ndp = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True}, "ndp.json")
        assert main(["sanitize", "--config", ndp, "--prompt", PROMPT, "--report"]) == 0
        out, err = capsys.readouterr()
        assert set(json.loads(out)["released"]) == {"words", "method", "epsilon"}
        assert "δ" not in out + err

    def test_stage_failure_prints_no_prompt_text(self, tmp_path, capsys):
        prompt = "Alice Moreau lives at 12 Rue Cler"
        config = write_config(
            tmp_path,
            {**BASE_CONFIG, "use_mock": True, "release_method": "dp", "epsilon2": 1, "k": 500},
        )
        assert main(["sanitize", "--config", config, "--prompt", prompt]) == 1
        captured = capsys.readouterr()
        err = captured.err.lower()
        assert "pipeline failed in stage-2 control" in err
        assert "completed before the failure: group, histogram" in err
        assert hashlib.blake2b(prompt.encode(), digest_size=16).hexdigest() in err
        assert "moreau" not in err and "cler" not in err
        assert captured.out == ""

    def test_seed_changes_samples_not_schema(self, mock_config, capsys):
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--seed", "1"])
        first = json.loads(capsys.readouterr().out)
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--seed", "2"])
        second = json.loads(capsys.readouterr().out)
        assert set(first) == set(second) == RESULT_KEYS
        assert first["sanitized"] != second["sanitized"]

    def test_prompt_from_file(self, mock_config, tmp_path, capsys):
        prompt_file = tmp_path / "prompt.txt"
        prompt_file.write_text(PROMPT + "\n")
        assert main(["sanitize", "--config", mock_config, "--prompt", f"@{prompt_file}"]) == 0
        assert json.loads(capsys.readouterr().out)["original"] == PROMPT

    def test_audit_file_appended(self, mock_config, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--audit", str(audit)])
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--audit", str(audit)])
        capsys.readouterr()
        assert len(audit.read_text().splitlines()) == 2

    def test_audit_jsonl_appends(self, mock_config, tmp_path, capsys):
        # Each run appends the compact form of the JSON it prints; the digest
        # pins the bytes of both lines, so the audit format cannot drift.
        audit = tmp_path / "runs.jsonl"
        printed = []
        for flags in ([], ["--seed", "8"]):
            args = ["sanitize", "--config", mock_config, "--prompt", PROMPT, "--audit", str(audit)]
            assert main(args + flags) == 0
            printed.append(json.loads(capsys.readouterr().out))
        lines = audit.read_text(encoding="utf-8").splitlines()
        assert lines == [json.dumps(doc, ensure_ascii=False) for doc in printed]
        assert all(set(doc) == RESULT_KEYS for doc in printed)
        assert hashlib.sha256(audit.read_bytes()).hexdigest() == AUDIT_SHA256

    def test_schedule_flag(self, mock_config, capsys):
        assert (
            main(
                [
                    "sanitize", "--config", mock_config, "--prompt", PROMPT,
                    "--schedule", "0.5:1.5:0.1",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        temps = [r["temperature"] for r in doc["group"]["rewrites"]]
        assert len(temps) == 11
        assert temps == sorted(set(temps))


class MockServiceHandler(QuietHandler):
    """A chat-completions service answering as ``MockChatModel(seed=0)`` does.

    With ``refuse_final`` set it answers the Stage-3 generation request with
    HTTP 400 instead.
    """

    model = MockChatModel(seed=0)
    refuse_final = False

    def do_POST(self):
        self.answer(self.read_json())

    def answer(self, body: dict) -> None:
        if self.refuse_final and REWRITE_HEADER in body["messages"][-1]["content"]:
            self.send_error(400)
            return
        resp = self.model.complete(
            ChatRequest(
                model=body["model"],
                messages=tuple(Message(m["role"], m["content"]) for m in body["messages"]),
                temperature=body["temperature"],
                max_tokens=body["max_tokens"],
                seed=body.get("seed"),
            )
        )
        self.reply(200, completion_payload(resp.text, resp.tokens_generated))


@pytest.fixture
def mock_service():
    with loopback(MockServiceHandler) as (_, base_url):
        yield base_url


BASE_CONFIG = {"m": 10, "k": 8, "bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7}


def write_config(tmp_path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_json_integer_is_a_number(tmp_path):
    doc = {**BASE_CONFIG, "use_mock": True, "temperature": 1, "release_method": "dp", "epsilon2": 2}
    config, _ = load_cli_config(write_config(tmp_path, doc))
    assert [(type(s.temperature), s.temperature) for s in config.slots] == [(float, 1.0)] * 10
    assert type(config.epsilon2) is float and config.epsilon2 == 2.0
    # The library stores the same floats, so a result never depends on 2 against 2.0.
    library = PipelineConfig(
        bounds=ClipBounds(0, 8), m=10, k=8, seed=7, schedule=1, release_method=ReleaseMethod.DP, epsilon2=2
    )
    assert library == config
    assert type(library.epsilon2) is float and library.epsilon2 == 2.0
    assert type(library.schedule) is float and type(library.bounds.b_max) is float


class TestClientSection:
    def test_unset_keys_take_the_endpoint_defaults(self, tmp_path):
        doc = {**BASE_CONFIG, "client": {"base_url": "http://127.0.0.1:9", "model": "m"}}
        _, client = load_cli_config(write_config(tmp_path, doc))
        client.close()
        assert client.endpoint == EndpointConfig(base_url="http://127.0.0.1:9", model="m")

    def test_set_keys_reach_the_endpoint(self, tmp_path):
        section = {"timeout_s": 2.5, "max_inflight": 3, "api_key_env": "OTHER_KEY"}
        doc = {**BASE_CONFIG, "client": {"base_url": "http://127.0.0.1:9", "model": "m", **section}}
        _, client = load_cli_config(write_config(tmp_path, doc))
        client.close()
        assert client.endpoint == EndpointConfig(
            base_url="http://127.0.0.1:9", model="m", timeout_s=2.5, max_inflight=3,
            api_key_env="OTHER_KEY",
        )


class TestSanitizeOverHttp:
    def test_commands_close_the_http_client_they_built(self, tmp_path, capsys, mock_service, monkeypatch):
        closed = []
        close = HttpChatClient.close
        monkeypatch.setattr(HttpChatClient, "close", lambda self: closed.append(self) or close(self))
        config = write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": mock_service, "model": "mock"}})
        assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 0
        assert main(["sanitize", "--config", config, "--prompt", ""]) == 2
        assert main([
            "evaluate", "--dataset", csqa_fixture(tmp_path, n=2), "--format", "csqa_jsonl",
            "--config", config, "--out", str(tmp_path / "r.csv"), "--repeats", "1",
            "--methods", "paraphrase", "--temperatures", "1.0",
        ]) == 0
        assert len(closed) == 3

    def test_every_request_carries_the_endpoint_model(self, tmp_path, capsys, mock_service, monkeypatch):
        # Rewrites, the final generation and the answerer's calls alike.
        models = []
        answer = MockServiceHandler.answer
        monkeypatch.setattr(
            MockServiceHandler, "answer", lambda self, body: models.append(body["model"]) or answer(self, body)
        )
        config = write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": mock_service, "model": "gpt-test"}})
        assert main([
            "evaluate", "--dataset", csqa_fixture(tmp_path, n=1), "--format", "csqa_jsonl",
            "--config", config, "--out", str(tmp_path / "r.csv"), "--repeats", "1",
            "--methods", "group-ndp,paraphrase", "--temperatures", "1.0",
        ]) == 0
        # m rewrites and one final generation for group-ndp, one rewrite for
        # paraphrase, and at least one answer call per row.
        assert len(models) >= BASE_CONFIG["m"] + 4
        assert set(models) == {"gpt-test"}

    def test_stage_failure_exits_one_and_reports_the_budget_charged(
        self, tmp_path, capsys, mock_service, monkeypatch
    ):
        local = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True}, "local.json")
        assert main(["sanitize", "--config", local, "--prompt", PROMPT]) == 0
        charged = json.loads(capsys.readouterr().out)["ledger"]["total"]
        assert charged > 0
        monkeypatch.setattr(MockServiceHandler, "refuse_final", True)
        config = write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": mock_service, "model": "mock"}})
        audit = tmp_path / "runs.jsonl"
        assert main(["sanitize", "--config", config, "--prompt", PROMPT, "--audit", str(audit)]) == 1
        err = capsys.readouterr().err
        assert "pipeline failed in stage-3 generation" in err
        assert f"budget charged before the failure: {charged:g}\n" in err
        assert not audit.exists()

    def test_a_malformed_api_key_exits_two_before_any_request(self, tmp_path, capsys, mock_service, monkeypatch):
        monkeypatch.setenv("PROMPTSAN_API_KEY", "sk-secret-123\r")
        seen = []
        answer = MockServiceHandler.answer
        monkeypatch.setattr(MockServiceHandler, "answer", lambda self, body: seen.append(body) or answer(self, body))
        config = write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": mock_service, "model": "mock"}})
        audits = [tmp_path / "sanitize.jsonl", tmp_path / "evaluate.jsonl"]
        assert main(["sanitize", "--config", config, "--prompt", PROMPT, "--audit", str(audits[0])]) == 2
        assert main([
            "evaluate", "--dataset", csqa_fixture(tmp_path, n=2), "--format", "csqa_jsonl",
            "--config", config, "--out", str(tmp_path / "r.csv"), "--repeats", "1",
            "--methods", "paraphrase", "--temperatures", "1.0", "--audit", str(audits[1]),
        ]) == 2
        err = capsys.readouterr().err
        message = "error: client config: the API key in PROMPTSAN_API_KEY must hold only visible ASCII characters\n"
        assert err == message * 2
        assert seen == [] and not any(audit.exists() for audit in audits)

    def test_output_is_identical_at_max_inflight_one_and_eight(self, tmp_path, capsys, mock_service):
        # None leaves max_inflight out, so all ten slots go out in one wave.
        outputs = []
        for max_inflight in (1, 8, None):
            client = {"base_url": mock_service, "model": "mock"}
            if max_inflight is not None:
                client["max_inflight"] = max_inflight
            doc = {**BASE_CONFIG, "schedule": "0.5:1.4:0.1", "client": client}
            config = write_config(tmp_path, doc, f"inflight{max_inflight}.json")
            assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 0
            outputs.append(capsys.readouterr().out)
        local = write_config(tmp_path, {**BASE_CONFIG, "schedule": "0.5:1.4:0.1", "use_mock": True})
        assert main(["sanitize", "--config", local, "--prompt", PROMPT]) == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


class TestKeywords:
    def test_release_from_group_json(self, tmp_path, mock_config, capsys):
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT])
        result = json.loads(capsys.readouterr().out)
        group_path = tmp_path / "group.json"
        group_path.write_text(json.dumps(result["group"]))
        assert main(["keywords", "--group", str(group_path), "--k", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["release"]["words"]) == 5
        assert doc["release"]["method"] == "NDP"
        assert all(isinstance(v, int) for v in doc["histogram"].values())
        assert doc["histogram"] == result["histogram"]

    def test_dp_ranks_presence_counts(self, tmp_path, capsys):
        group_path = tmp_path / "group.json"
        group_path.write_text(json.dumps({"rewrites": [{"text": "zebra zebra zebra"}, {"text": "zebra lion"}]}))
        dp = ["keywords", "--group", str(group_path), "--k", "1", "--method", "dp", "--epsilon2", "1.0"]
        assert main(dp) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["histogram"] == {"zebra": 2, "lion": 1}
        assert doc["release"]["delta"] == DELTA2
        assert main(["keywords", "--group", str(group_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["histogram"] == {"zebra": 4, "lion": 1} and "delta" not in doc["release"]

    @pytest.mark.parametrize("temperature, seed", [(0.5, 11), (0.75, 11), (0.75, 12)])
    def test_reproduces_the_sanitize_dp_release(self, tmp_path, capsys, temperature, seed):
        config = write_config(tmp_path, {
            "m": 10, "k": 10, "temperature": temperature, "release_method": "dp", "epsilon2": 1000.0,
            "bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": seed, "use_mock": True,
        })
        assert main(["sanitize", "--config", config, "--prompt", TWO_QUESTIONS]) == 0
        result = json.loads(capsys.readouterr().out)
        group_path = tmp_path / "group.json"
        group_path.write_text(json.dumps(result["group"]))
        argv = ["keywords", "--group", str(group_path), "--k", "10", "--method", "dp",
                "--epsilon2", "1000", "--seed", str(seed)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(result["released"]["words"]) >= 3
        assert doc["release"] == result["released"]
        assert doc["histogram"] == result["histogram"]


@pytest.fixture
def service_calls(monkeypatch):
    """Every request the mock or an HTTP client is asked to complete."""
    calls = []
    complete = MockChatModel.complete
    monkeypatch.setattr(MockChatModel, "complete", lambda self, req: calls.append(req) or complete(self, req))
    monkeypatch.setattr(HttpChatClient, "complete", lambda self, req: calls.append(req) or pytest.fail("called"))
    return calls


EVALUATE = [
    "evaluate", "--dataset", "{dataset}", "--format", "csqa_jsonl", "--config", "{config}",
    "--out", "{out}", "--repeats", "1", "--temperatures", "1.0",
]


@pytest.fixture
def cli_paths(tmp_path):
    """The files the ``{name}`` fields of the commands below stand for."""
    files = {
        "samples": ("logits.txt", "0.0\n2.0\n"),
        "empty": ("empty.txt", ""),
        "same": ("same.txt", "5.0\n5.0\n5.0\n"),
        "group": ("group.json", json.dumps({"rewrites": [{"text": "zebra lion"}]})),
        "list": ("list.json", "[]"),
        "object": ("object.json", "{}"),
        "no_rewrites": ("no_rewrites.json", '{"rewrites": []}'),
        "text5": ("text5.json", '{"rewrites": [{"text": 5}]}'),
        "not_json": ("not_json.json", "not json"),
    }
    for name, text in files.values():
        (tmp_path / name).write_text(text)
    (tmp_path / "latin1.txt").write_bytes("Où est le café ?".encode("latin-1"))
    return {
        **{key: str(tmp_path / name) for key, (name, _) in files.items()},
        "config": write_config(tmp_path, {**BASE_CONFIG, "use_mock": True}),
        "dataset": csqa_fixture(tmp_path, n=2),
        "out": str(tmp_path / "report.csv"),
        "missing": str(tmp_path / "absent" / "out.jsonl"),
        "latin1": str(tmp_path / "latin1.txt"),
    }


SANITIZE = ["sanitize", "--config", "{config}", "--prompt", PROMPT]
KEYWORDS = ["keywords", "--group", "{group}"]
NOT_FINITE = "ex-ante budget m·max_tokens·ε₁ (+ε₂) is not a finite number"


def client_section(**settings) -> dict:
    """Config overrides for a client section with ``settings`` and no mock."""
    return {"use_mock": False, "client": {"base_url": "http://127.0.0.1:9", "model": "m", **settings}}


class TestExitTwoBeforeAnyCall:
    # Each row's config is BASE_CONFIG with use_mock, updated by the row's overrides.
    @pytest.mark.parametrize(
        "argv, config, message",
        [
            # Config values; each type checks its own fields.
            (SANITIZE, {"oops": 1}, "unknown config keys: ['oops']"),
            (SANITIZE, {"audit_path": "cfg_audit.jsonl"}, "unknown config keys: ['audit_path']"),
            (SANITIZE, {"model": "gpt-test"}, "unknown config keys: ['model']"),
            # White-box rewriting needs a step oracle, which a config cannot supply.
            (SANITIZE, {"mode": "whitebox"}, "unknown config keys: ['mode']"),
            (SANITIZE, {"m": 2.9}, "m must be an integer, got 2.9"),
            (SANITIZE, {"m": math.inf}, "m must be an integer, got inf"),
            (SANITIZE, {"m": 10**12}, "at most 1000 rewrite slots"),
            (SANITIZE, {"k": True}, "k must be an integer, got True"),
            (SANITIZE, {"seed": "3"}, "seed must be an integer, got '3'"),
            (SANITIZE, {"seed": -1}, "seed must be nonnegative, got -1"),
            (SANITIZE, {"max_tokens": 64.0}, "max_tokens must be an integer, got 64.0"),
            (SANITIZE, {"max_tokens": 0}, "max_tokens must be positive"),
            (SANITIZE, {"retry_on_leakage": False}, "retry_on_leakage must be an integer, got False"),
            (SANITIZE, {"retry_on_leakage": 9}, "retry_on_leakage must be 0 to 2, got 9"),
            (SANITIZE, {"retry_on_leakage": -1}, "retry_on_leakage must be 0 to 2, got -1"),
            (SANITIZE, {"fallback_to_exemplar": "false"}, "fallback_to_exemplar must be a bool, got 'false'"),
            (SANITIZE, {"fallback_to_exemplar": 1}, "fallback_to_exemplar must be a bool, got 1"),
            (SANITIZE, {"prompt_template": 5}, "prompt_template must be a string, got 5"),
            (SANITIZE, {"prompt_template": "no placeholder"}, "prompt_template must contain {prompt}"),
            (SANITIZE, {"prompt_template": "{"}, "prompt_template must contain {prompt}"),
            (SANITIZE, {"temperature": 0}, "rewrite temperature must be positive"),
            (SANITIZE, {"temperature": float("inf")}, "rewrite temperature must be positive"),
            (SANITIZE, {"temperature": "hot"}, "rewrite temperature must be a number, got 'hot'"),
            (SANITIZE, {"temperature": False}, "rewrite temperature must be a number, got False"),
            (SANITIZE, {"temperature": 1.0, "schedule": "0.5:0.8:0.1"}, "give either temperature or schedule"),
            (SANITIZE, {"schedule": 5}, "invalid schedule 5"),
            (SANITIZE, {"schedule": "0.5:1.5:nan"}, "invalid schedule '0.5:1.5:nan'"),
            (SANITIZE, {"schedule": "0.5:inf:0.1"}, "invalid schedule '0.5:inf:0.1'"),
            (SANITIZE, {"release_method": "topk"}, "release_method: 'TOPK' is not a valid ReleaseMethod"),
            (SANITIZE, {"release_method": "dp"}, "DP keyword release requires a positive finite epsilon2"),
            (SANITIZE, {"release_method": "dp", "epsilon2": math.nan},
             "DP keyword release requires a positive finite epsilon2"),
            (SANITIZE, {"release_method": "dp", "epsilon2": math.inf},
             "DP keyword release requires a positive finite epsilon2"),
            (SANITIZE, {"release_method": "dp", "epsilon2": True}, "epsilon2 must be a number, got True"),
            (SANITIZE, {"release_method": "dp", "epsilon2": "1.0"}, "epsilon2 must be a number, got '1.0'"),
            # The library reads a None epsilon2 as unset; a JSON null is no number.
            (SANITIZE, {"epsilon2": None}, "epsilon2 must be a number, got None"),
            (SANITIZE, {"bounds": [0, 8]}, "bounds must be a JSON object"),
            (SANITIZE, {"bounds": {"b_min": False, "b_max": "8"}}, "bounds: b_min must be a number, got False"),
            (SANITIZE, {"bounds": {"b_min": 0, "b_max": "8"}}, "bounds: b_max must be a number, got '8'"),
            (SANITIZE, {"bounds": {"unit_epsilon": True}}, "bounds: unit_epsilon must be a number, got True"),
            (SANITIZE, {"bounds": {"unit_epsilon": -1}}, "bounds: epsilon at unit temperature must be positive"),
            # An ex-ante budget that is not a finite float: one slot overflows,
            # or the finite slots (plus epsilon2) sum past the largest float.
            (SANITIZE, {"bounds": {"b_min": 0, "b_max": 1e308}, "temperature": 0.5, "m": 2}, NOT_FINITE),
            (SANITIZE, {"bounds": {"b_min": 0, "b_max": 1e306}, "temperature": 1, "m": 10}, NOT_FINITE),
            (SANITIZE, {"bounds": {"b_min": 0, "b_max": 1e305}, "release_method": "dp", "epsilon2": 1e308},
             NOT_FINITE),
            (SANITIZE + ["--schedule", "1.0:1.9:0.1"], {"bounds": {"b_min": 0, "b_max": 1e306}, "m": 1},
             NOT_FINITE),
            (EVALUATE, {"bounds": {"b_min": 0, "b_max": 1e306}, "temperature": 4, "m": 2}, NOT_FINITE),
            (EVALUATE + ["--methods", "paraphrase", "--temperatures", "0.5"],
             {"bounds": {"b_min": 0, "b_max": 1e306}, "temperature": 4, "m": 1}, NOT_FINITE),
            # The mock or the client section.
            (SANITIZE, {"use_mock": "false"}, "use_mock must be true or false, got 'false'"),
            (SANITIZE, {"mock_seed": "x"}, "mock_seed: seed must be an integer, got 'x'"),
            (SANITIZE, {"mock_seed": 1.5}, "mock_seed: seed must be an integer, got 1.5"),
            (SANITIZE, {"mock_seed": -math.inf}, "mock_seed: seed must be an integer, got -inf"),
            (SANITIZE, {"use_mock": False, "mock_seed": 1}, "mock_seed needs use_mock: true"),
            (SANITIZE, {"client": {"bogus": 1}}, "give either use_mock or a client section, not both"),
            (SANITIZE, {"client": {"base_url": "http://127.0.0.1:9", "model": "m"}},
             "give either use_mock or a client section, not both"),
            (SANITIZE, {"use_mock": False, "client": [1]}, "client must be a JSON object"),
            (SANITIZE, {"use_mock": False, "client": {"base_url": "http://127.0.0.1:9"}},
             "client config: EndpointConfig.__init__() missing 1 required positional argument: 'model'"),
            (SANITIZE, client_section(model=""), "client config: model must be a non-empty string"),
            (SANITIZE, client_section(model=None), "client config: model must be a non-empty string, got None"),
            (SANITIZE, client_section(base_url=5),
             "client config: base_url must be an http:// or https:// URL with a host"),
            (SANITIZE, client_section(base_url="localhost:9/v1"),
             "client config: base_url must be an http:// or https:// URL with a host"),
            (SANITIZE, client_section(base_url="http://127.0.0.1:9/v1#frag"),
             "client config: base_url must not carry a #fragment"),
            (SANITIZE, client_section(timeout_s=0), "client config: timeout_s must be positive and finite, got 0"),
            (SANITIZE, client_section(timeout_s=float("inf")),
             "client config: timeout_s must be positive and finite, got inf"),
            (SANITIZE, client_section(timeout_s="2.5"), "client config: timeout_s must be a number, got '2.5'"),
            (SANITIZE, client_section(timeout_s=True), "client config: timeout_s must be a number, got True"),
            (SANITIZE, client_section(max_inflight=0), "client config: max_inflight must be at least 1"),
            (SANITIZE, client_section(max_inflight=1001),
             "client config: max_inflight must be at least 1 and at most 1000, got 1001"),
            (SANITIZE, client_section(max_inflight="x"),
             "client config: max_inflight must be an integer, got 'x'"),
            (SANITIZE, client_section(max_inflight=True),
             "client config: max_inflight must be an integer, got True"),
            (SANITIZE, client_section(max_inflight=2.9),
             "client config: max_inflight must be an integer, got 2.9"),
            (SANITIZE, client_section(api_key_env=5), "client config: api_key_env must be a non-empty string"),
            # sanitize flags, prompt and output.
            (SANITIZE + ["--seed", "-1"], {}, "seed must be nonnegative, got -1"),
            (SANITIZE + ["--schedule", "0:1:0.5"], {},
             "invalid schedule '0:1:0.5': rewrite temperature must be positive and finite, got 0.0"),
            (SANITIZE + ["--schedule", "0.5:inf:0.1"], {},
             "invalid schedule '0.5:inf:0.1': schedule range must be finite"),
            (SANITIZE + ["--schedule", "0.5:1.5:1e-300"], {},
             "invalid schedule '0.5:1.5:1e-300': schedule range gives more than 1000 rewrite slots"),
            (SANITIZE + ["--schedule", "1.5:0.5:0.1"], {}, "invalid schedule '1.5:0.5:0.1': invalid schedule range"),
            (SANITIZE + ["--schedule", "0.5:1.5"], {}, "invalid schedule '0.5:1.5' (expected low:high:step)"),
            (SANITIZE + ["--schedule", "0.5:x:0.1"], {}, "invalid schedule '0.5:x:0.1' (expected low:high:step)"),
            (["sanitize", "--config", "{config}", "--prompt", "@{missing}"], {}, "cannot read prompt file: "),
            (["sanitize", "--config", "{config}", "--prompt", "@{latin1}"], {}, "cannot read prompt file: "),
            (SANITIZE + ["--audit", "{missing}"], {}, "cannot write output: "),
            # evaluate: the grid, the dataset and the outputs.
            (EVALUATE + ["--methods", "group-ndp,group-dp"], {}, "requires a positive finite epsilon2"),
            (EVALUATE + ["--methods", "bogus"], {}, "unknown sanitizer methods: ['bogus']"),
            (EVALUATE + ["--methods", ""], {}, "unknown sanitizer methods: ['']"),
            (EVALUATE + ["--methods", "group-ndp,group-ndp"], {},
             "methods must be a non-empty list without repeats, got ['group-ndp', 'group-ndp']"),
            (EVALUATE + ["--temperatures", "0"], {}, "rewrite temperature must be positive"),
            (EVALUATE + ["--methods", "paraphrase", "--temperatures", "0"], {}, "temperature must be positive"),
            (EVALUATE + ["--temperatures", "inf,1.0"], {}, "rewrite temperature must be positive"),
            (EVALUATE + ["--methods", "paraphrase", "--temperatures", "inf,1.0"], {},
             "rewrite temperature must be positive"),
            (EVALUATE + ["--temperatures", ""], {}, "could not convert string to float: ''"),
            (EVALUATE + ["--temperatures", "0.5,0.50"], {},
             "temperatures must be a non-empty list without repeats, got [0.5, 0.5]"),
            (EVALUATE + ["--repeats", "0"], {}, "repeats must be at least 1, got 0"),
            (EVALUATE + ["--sample-seed", "3"], {}, "--sample-seed needs --sample-n"),
            (EVALUATE + ["--format", "docvqa_json", "--dataset", "{list}"], {}, "must be an object with a data list"),
            (EVALUATE + ["--out", "{missing}"], {}, "cannot write output: "),
            (EVALUATE + ["--audit", "{missing}"], {}, "cannot write output: "),
            # keywords: the flags and the group file.
            (KEYWORDS + ["--k", "0"], {}, "k must be positive"),
            (KEYWORDS + ["--k", "0", "--method", "dp", "--epsilon2", "1"], {}, "k must be positive"),
            (KEYWORDS + ["--method", "dp"], {}, "--epsilon2 is required for the dp method"),
            (KEYWORDS + ["--epsilon2", "1"], {}, "--epsilon2 is only used by the dp method"),
            (KEYWORDS + ["--seed", "3"], {}, "--seed is only used by the dp method"),
            (KEYWORDS + ["--method", "ndp", "--seed", "0"], {}, "--seed is only used by the dp method"),
            *[
                (["keywords", "--group", f"{{{name}}}"], {}, "cannot read group: ")
                for name in ("missing", "list", "text5", "no_rewrites", "object", "not_json")
            ],
            # calibrate.
            (["calibrate", "--samples", "{empty}", "--out", "{out}"], {}, "calibration needs at least 2 samples"),
            (["calibrate", "--samples", "{same}", "--out", "{out}"], {}, "zero variance in logit samples"),
            (["calibrate", "--samples", "{samples}", "--out", "{missing}"], {}, "cannot write output: "),
            # Last, so the rows above keep their ids: slots is derived from schedule and m.
            (SANITIZE, {"slots": []}, "unknown config keys: ['slots']"),
            (KEYWORDS + ["--method", "dp", "--epsilon2", "1", "--seed", "-1"], {},
             "--seed must be nonnegative, got -1"),
        ],
    )
    def test_exits_two_with_no_service_call(
        self, tmp_path, capsys, cli_paths, service_calls, argv, config, message
    ):
        cli_paths["config"] = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True, **config}, "case.json")
        assert main([arg.format(**cli_paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert service_calls == []

    def test_the_counter_sees_a_valid_run(self, capsys, cli_paths, service_calls):
        assert main([arg.format(**cli_paths) for arg in EVALUATE]) == 0
        assert len(service_calls) > BASE_CONFIG["m"]

    def test_the_output_check_truncates_nothing(self, tmp_path, capsys, cli_paths, service_calls):
        audit = tmp_path / "runs.jsonl"
        audit.write_text("kept\n")
        argv = [arg.format(**cli_paths) for arg in EVALUATE]
        assert main(argv + ["--audit", str(audit), "--repeats", "0"]) == 2
        assert audit.read_text() == "kept\n"

    def test_a_refused_run_leaves_no_new_output_file(self, tmp_path, capsys, cli_paths, service_calls):
        out, audit = tmp_path / "new.csv", tmp_path / "new.jsonl"
        argv = [arg.format(**cli_paths) for arg in EVALUATE]
        assert main(argv + ["--out", str(out), "--audit", str(audit), "--repeats", "0"]) == 2
        assert not out.exists() and not audit.exists()


SECRET_PROMPT = "Alice Moreau lives at 12 Rue Cler"


def _leaks(text: str) -> bool:
    lowered = text.lower()
    return "moreau" in lowered or "cler" in lowered


class EchoingServiceHandler(MockServiceHandler):
    """Answers with ``status`` and the request body echoed back.

    With ``odd_seeds_only`` set it echoes only the Stage-1 requests whose
    slot seed is odd, every attempt of them, and answers the rest as the mock.
    """

    status = 400
    odd_seeds_only = False
    echoed: list = []

    def do_POST(self):
        raw = self.read_body()
        body = json.loads(raw)
        if self.odd_seeds_only and body.get("seed", 0) % 2 == 0:
            self.answer(body)
            return
        type(self).echoed.append(raw)
        self.reply(self.status, raw)


@pytest.fixture
def echoing_service(monkeypatch):
    monkeypatch.setattr(client_module, "BASE_DELAY_S", 0.0)
    EchoingServiceHandler.echoed = []
    with loopback(EchoingServiceHandler) as (_, base_url):
        yield base_url
    assert any(b"Moreau" in raw for raw in EchoingServiceHandler.echoed)


@pytest.mark.parametrize("status", [400, 503])
class TestErrorBodiesStayOutOfTelemetry:
    """A service echoing the request in its error body must not leak the prompt."""

    def config(self, tmp_path, service: str) -> str:
        return write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": service, "model": "mock"}})

    def test_sanitize_stderr(self, tmp_path, capsys, echoing_service, monkeypatch, status):
        monkeypatch.setattr(EchoingServiceHandler, "status", status)
        config = self.config(tmp_path, echoing_service)
        assert main(["sanitize", "--config", config, "--prompt", SECRET_PROMPT]) == 1
        err = capsys.readouterr().err
        assert f"HTTP {status}: " in err and "-byte body, blake2b " in err
        assert not _leaks(err)

    def test_group_warnings(self, tmp_path, capsys, echoing_service, monkeypatch, status):
        monkeypatch.setattr(EchoingServiceHandler, "status", status)
        monkeypatch.setattr(EchoingServiceHandler, "odd_seeds_only", True)
        config = self.config(tmp_path, echoing_service)
        assert main(["sanitize", "--config", config, "--prompt", SECRET_PROMPT]) == 0
        captured = capsys.readouterr()
        warnings = json.loads(captured.out)["group"]["warnings"]
        assert 0 < len(warnings) < BASE_CONFIG["m"]
        assert all(f"HTTP {status}: " in w for w in warnings)
        assert not _leaks("\n".join(warnings)) and not _leaks(captured.err)

    def test_evaluate_audit(self, tmp_path, capsys, echoing_service, monkeypatch, status):
        monkeypatch.setattr(EchoingServiceHandler, "status", status)
        dataset = tmp_path / "dev.jsonl"
        choices = tuple(Choice(label, f"place {label}") for label in "ABCDE")
        write_dataset([QARecord("q0", SECRET_PROMPT, "A", "csqa", choices=choices)], dataset)
        audit = tmp_path / "rows.jsonl"
        assert main([
            "evaluate", "--dataset", str(dataset), "--format", "csqa_jsonl",
            "--config", self.config(tmp_path, echoing_service), "--out", str(tmp_path / "r.csv"),
            "--repeats", "1", "--methods", "paraphrase,group-ndp", "--temperatures", "1.0",
            "--audit", str(audit),
        ]) == 0
        rows = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(rows) == 2 and all(row["failed"] for row in rows)
        assert all(f"HTTP {status}: " in row["note"] for row in rows)
        assert not _leaks(audit.read_text()) and not _leaks(capsys.readouterr().err)


# Values no config key expects. The bounded ones leave out finite floats so
# large that int() of them would ask for a huge group, token budget or
# regeneration count.
BOUNDED_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["b_min", "x"]), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -0.5, "3", "1e3"]),
)
ODD_VALUES = st.one_of(BOUNDED_ODD_VALUES, st.floats(allow_nan=True, allow_infinity=True))
SMALL_INT = st.integers(min_value=-3, max_value=8)
SMALL_FLOAT = st.floats(min_value=-2.0, max_value=4.0)
SCHEDULES = st.builds(
    lambda low, high, step: f"{low}:{high}:{step}",
    st.sampled_from([-0.5, 0.0, 0.5, 1.0, "x"]),
    st.sampled_from([0.5, 1.0, 2.0, "nan"]),
    st.sampled_from([0.0, -0.5, 0.25, 0.5, "inf"]),
)
# A config that loads; group size, tokens and regenerations stay small, so
# every example runs fast.
VALID_CONFIG = st.fixed_dictionaries(
    {
        "use_mock": st.just(True),
        "bounds": st.one_of(
            st.builds(lambda lo, width: {"b_min": lo, "b_max": lo + width},
                      st.floats(-1.0, 1.0), st.floats(0.5, 10.0)),
            st.builds(lambda eps: {"unit_epsilon": eps}, st.floats(0.5, 20.0)),
        ),
        "m": st.integers(1, 5),
        "max_tokens": st.integers(1, 24),
    },
    optional={
        "k": st.integers(0, 8),
        "temperature": st.floats(0.1, 3.0),
        "release_method": st.sampled_from(["ndp", "dp"]),
        "epsilon2": st.floats(0.1, 5.0),
        "seed": st.integers(0, 2**31),
        "mock_seed": st.integers(0, 2**31),
        "retry_on_leakage": st.integers(0, 2),
        "fallback_to_exemplar": st.booleans(),
    },
)
# Values that replace up to two keys of a valid config.
MUTATIONS = {
    "m": st.one_of(SMALL_INT, BOUNDED_ODD_VALUES),
    "k": st.one_of(SMALL_INT, BOUNDED_ODD_VALUES),
    "max_tokens": st.one_of(st.integers(min_value=-2, max_value=24), BOUNDED_ODD_VALUES),
    "retry_on_leakage": st.one_of(st.integers(min_value=-1, max_value=2), BOUNDED_ODD_VALUES),
    "temperature": st.one_of(SMALL_FLOAT, ODD_VALUES),
    "schedule": st.one_of(SCHEDULES, ODD_VALUES),
    "release_method": st.one_of(st.sampled_from(["DP", "topk"]), ODD_VALUES),
    "epsilon2": st.one_of(SMALL_FLOAT, ODD_VALUES),
    "bounds": st.one_of(
        st.fixed_dictionaries(
            {}, optional={key: st.one_of(SMALL_FLOAT, ODD_VALUES) for key in ("b_min", "b_max", "unit_epsilon")},
        ),
        ODD_VALUES,
    ),
    "seed": st.one_of(st.integers(), ODD_VALUES),
    "mock_seed": st.one_of(st.integers(), ODD_VALUES),
    "prompt_template": st.one_of(st.sampled_from(["{prompt}", "Say: {prompt}", "{other}", "{", "}"]), ODD_VALUES),
    "model": ODD_VALUES,
    "fallback_to_exemplar": ODD_VALUES,
    "unexpected": ODD_VALUES,
}


class TestFuzzedConfig:
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(
        doc=VALID_CONFIG,
        mutated=st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=2, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({key: MUTATIONS[key] for key in keys})
        ),
        prompt=st.sampled_from([PROMPT, "", "   ", "a", "{prompt}"]),
    )
    def test_sanitize_exits_cleanly_on_any_config(self, tmp_path_factory, doc, mutated, prompt):
        path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
        path.write_text(json.dumps({**doc, **mutated}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sanitize", "--config", str(path), "--prompt", prompt])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestScore:
    def test_metric_json(self, capsys):
        assert main(["score", "--reference", "a b c d", "--hypothesis", "a b c d"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"rouge1": 1.0, "rougeL": 1.0, "bleu": 1.0}


class TestEvaluate:
    def test_nine_rows_per_method(self, tmp_path, mock_config, capsys):
        dataset = csqa_fixture(tmp_path)
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate", "--dataset", dataset, "--format", "csqa_jsonl",
                "--config", mock_config, "--out", str(out), "--repeats", "1",
                "--methods", "group-ndp,paraphrase",
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        for method in ("group-ndp", "paraphrase"):
            assert sum(1 for r in rows if r["method"] == method) == 9

    def test_single_repeat_std_zero(self, tmp_path, mock_config):
        dataset = csqa_fixture(tmp_path, n=8)
        out = tmp_path / "report.csv"
        main(
            [
                "evaluate", "--dataset", dataset, "--format", "csqa_jsonl",
                "--config", mock_config, "--out", str(out), "--repeats", "1",
                "--temperatures", "0.5,1.0",
            ]
        )
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["q_rouge1_std"]) == 0.0 for r in rows)
        assert all(float(r["utility_std"]) == 0.0 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path, mock_config):
        dataset = csqa_fixture(tmp_path, n=6)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        args = [
            "evaluate", "--dataset", dataset, "--format", "csqa_jsonl",
            "--config", mock_config, "--repeats", "2", "--temperatures", "0.25,1.25",
        ]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_dataset_aborts(self, tmp_path, mock_config):
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text("\n".join([json.dumps({"id": "x"})] * 3))
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate", "--dataset", str(dataset), "--format", "csqa_jsonl",
                "--config", mock_config, "--out", str(out), "--repeats", "1",
            ]
        )
        assert code in (1, 2)

    def test_docvqa_format_end_to_end(self, tmp_path, mock_config):
        records = synthetic_qa_records(5, seed=9, dataset="docvqa")
        dataset = tmp_path / "dev.json"
        write_dataset(records, dataset)
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate", "--dataset", str(dataset), "--format", "docvqa_json",
                "--config", mock_config, "--out", str(out), "--repeats", "1",
                "--temperatures", "0.5", "--methods", "group-ndp",
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert 0.0 <= float(rows[0]["utility_mean"]) <= 1.0

    def test_audit_rows_written(self, tmp_path, mock_config):
        dataset = csqa_fixture(tmp_path, n=4)
        out = tmp_path / "report.csv"
        audit = tmp_path / "rows.jsonl"
        main(
            [
                "evaluate", "--dataset", dataset, "--format", "csqa_jsonl",
                "--config", mock_config, "--out", str(out), "--repeats", "1",
                "--temperatures", "1.0", "--audit", str(audit),
            ]
        )
        rows = [json.loads(l) for l in audit.read_text().splitlines()]
        assert len(rows) == 4
        assert set(rows[0]["privacy"]) == {"rouge1", "rougeL", "bleu"}


def strict_json(text: str) -> object:
    """``json.loads`` that refuses NaN, Infinity and -Infinity, as RFC 8259 parsers do."""

    def refuse(constant: str) -> None:
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Everything a command writes as JSON parses without the non-standard constants."""

    @pytest.mark.parametrize(
        "extra",
        [
            {"bounds": {"b_min": 0, "b_max": 4}, "m": 4, "k": 3},
            {"release_method": "dp", "epsilon2": 2.0, "k": 5},
            {"release_method": "dp", "epsilon2": 1e9},
        ],
        ids=["ndp", "dp", "dp-certain"],
    )
    def test_sanitize_output_and_audit_line(self, tmp_path, capsys, extra):
        config = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True, **extra})
        audit = tmp_path / "runs.jsonl"
        assert main(["sanitize", "--config", config, "--prompt", TWO_QUESTIONS, "--audit", str(audit)]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert strict_json(audit.read_text(encoding="utf-8")) == doc
        assert doc["ledger"]["total"] > 0 and doc["exemplar_fallback"] is False

    @pytest.mark.parametrize("method", ["ndp", "dp"])
    def test_keywords(self, tmp_path, capsys, method):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"rewrites": [{"text": "zebra lion otter"}, {"text": "zebra lion"}]}))
        dp = ["--epsilon2", "1"] if method == "dp" else []
        assert main(["keywords", "--group", str(group), "--k", "2", "--method", method] + dp) == 0
        assert strict_json(capsys.readouterr().out)["release"]["method"] == method.upper()

    @pytest.mark.parametrize("reference, hypothesis", [("alpha beta", "gamma delta"), ("", "something"), ("a", "")])
    def test_score(self, capsys, reference, hypothesis):
        assert main(["score", "--reference", reference, "--hypothesis", hypothesis]) == 0
        assert set(strict_json(capsys.readouterr().out)) == {"rouge1", "rougeL", "bleu"}

    def test_evaluate_audit_rows(self, tmp_path, capsys):
        config = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True, "epsilon2": 2.0})
        audit = tmp_path / "rows.jsonl"
        assert main([
            "evaluate", "--dataset", csqa_fixture(tmp_path, n=2), "--format", "csqa_jsonl",
            "--config", config, "--out", str(tmp_path / "report.csv"), "--repeats", "1",
            "--methods", "group-ndp,group-dp,paraphrase", "--temperatures", "1.0", "--audit", str(audit),
        ]) == 0
        rows = [strict_json(line) for line in audit.read_text(encoding="utf-8").splitlines()]
        assert [row["method"] for row in rows] == ["group-ndp"] * 2 + ["group-dp"] * 2 + ["paraphrase"] * 2
