import csv
import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from promptsan.cli import load_cli_config, main
from promptsan.client import (
    REWRITE_HEADER,
    ChatRequest,
    EndpointConfig,
    HttpChatClient,
    Message,
    MockChatModel,
)
from promptsan.evaluation import synthetic_qa_records


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
    path = tmp_path / "dev.jsonl"
    lines = []
    for record in synthetic_qa_records(n, seed=seed):
        lines.append(
            json.dumps(
                {
                    "id": record.id,
                    "answerKey": record.gold,
                    "question": {
                        "stem": record.question,
                        "choices": [{"label": c.label, "text": c.text} for c in record.choices],
                    },
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestCalibrate:
    def test_two_point_fixture(self, tmp_path, capsys):
        samples = tmp_path / "logits.txt"
        samples.write_text("0.0\n2.0\n")
        out = tmp_path / "bounds.json"
        assert main(["calibrate", "--samples", str(samples), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc == {"b_min": 1.0, "b_max": 5.0}

    def test_empty_file_exits_two(self, tmp_path):
        samples = tmp_path / "empty.txt"
        samples.write_text("")
        assert main(["calibrate", "--samples", str(samples), "--out", str(tmp_path / "o.json")]) == 2

    def test_degenerate_samples_exit_two(self, tmp_path):
        samples = tmp_path / "same.txt"
        samples.write_text("5.0\n5.0\n5.0\n")
        assert main(["calibrate", "--samples", str(samples), "--out", str(tmp_path / "o.json")]) == 2

    def test_rerun_overwrites_identically(self, tmp_path):
        samples = tmp_path / "logits.txt"
        samples.write_text("0.0\n2.0\n")
        out = tmp_path / "bounds.json"
        main(["calibrate", "--samples", str(samples), "--out", str(out)])
        first = out.read_bytes()
        main(["calibrate", "--samples", str(samples), "--out", str(out)])
        assert out.read_bytes() == first


PROMPT = "Where would the silver archive usually store a hidden journal during the harbor festival?"

RESULT_KEYS = {
    "original", "group", "histogram", "released", "exemplar",
    "final_prompt", "sanitized", "leakage_flag", "ledger_total", "ledger",
}


class TestSanitize:
    def test_stable_json_output(self, mock_config, capsys):
        assert main(["sanitize", "--config", mock_config, "--prompt", PROMPT]) == 0
        first = capsys.readouterr().out
        assert main(["sanitize", "--config", mock_config, "--prompt", PROMPT]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert set(json.loads(first)) == RESULT_KEYS

    def test_missing_epsilon2_with_dp_release_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "release_method": "dp",
                    "bounds": {"b_min": 0.0, "b_max": 8.0},
                    "use_mock": True,
                }
            )
        )
        assert main(["sanitize", "--config", str(path), "--prompt", PROMPT]) == 2

    def test_unknown_config_key_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bounds": {"b_min": 0, "b_max": 1}, "use_mock": True, "oops": 1}))
        assert main(["sanitize", "--config", str(path), "--prompt", PROMPT]) == 2

    def test_whitebox_mode_is_a_config_error(self, tmp_path, capsys):
        # White-box rewriting needs a step oracle, which a config cannot supply.
        path = tmp_path / "whitebox.json"
        path.write_text(
            json.dumps({"bounds": {"b_min": 0, "b_max": 8}, "use_mock": True, "mode": "whitebox"})
        )
        assert main(["sanitize", "--config", str(path), "--prompt", PROMPT]) == 2
        assert "unknown config keys: ['mode']" in capsys.readouterr().err

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

    def test_missing_prompt_file_exits_two(self, mock_config, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        assert main(["sanitize", "--config", mock_config, "--prompt", f"@{missing}"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read prompt file:")

    def test_audit_file_appended(self, mock_config, tmp_path, capsys):
        audit = tmp_path / "audit.jsonl"
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--audit", str(audit)])
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT, "--audit", str(audit)])
        capsys.readouterr()
        assert len(audit.read_text().splitlines()) == 2

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


class MockServiceHandler(BaseHTTPRequestHandler):
    """A chat-completions service answering as ``MockChatModel(seed=0)`` does.

    With ``refuse_final`` set it answers the Stage-3 generation request with
    HTTP 400 instead.
    """

    model = MockChatModel(seed=0)
    refuse_final = False

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
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
        data = json.dumps(
            {
                "choices": [{"message": {"role": "assistant", "content": resp.text}}],
                "usage": {"completion_tokens": resp.tokens_generated},
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_service():
    server = ThreadingHTTPServer(("127.0.0.1", 0), MockServiceHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


BASE_CONFIG = {"m": 10, "k": 8, "bounds": {"b_min": 0.0, "b_max": 8.0}, "seed": 7}


def write_config(tmp_path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigErrors:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"bounds": {"unit_epsilon": -1}}, "bounds: epsilon at unit temperature must be positive"),
            ({"schedule": 5}, "invalid schedule 5"),
            ({"temperature": 0}, "rewrite temperature must be positive"),
            ({"temperature": "hot"}, "could not convert string to float"),
            ({"bounds": [0, 8]}, "bounds must be a JSON object"),
            ({"mock_seed": "x"}, "mock_seed"),
        ],
    )
    def test_bad_value_exits_two_with_message(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True, **overrides})
        assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "client, message",
        [
            ({"max_inflight": 0}, "max_inflight must be at least 1"),
            ({"max_inflight": "x"}, "invalid literal for int()"),
            ({"timeout_s": 0}, "timeout_s must be positive"),
            ({"api_key_env": 5}, "api_key_env must be a non-empty string"),
        ],
    )
    def test_bad_client_value_exits_two(self, tmp_path, capsys, client, message):
        doc = {**BASE_CONFIG, "client": {"base_url": "http://127.0.0.1:9", "model": "m", **client}}
        config = write_config(tmp_path, doc)
        assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: client config: ") and message in err


class TestClientSection:
    def test_unset_keys_take_the_endpoint_defaults(self, tmp_path):
        doc = {**BASE_CONFIG, "client": {"base_url": "http://127.0.0.1:9", "model": "m"}}
        _, client, _ = load_cli_config(write_config(tmp_path, doc))
        client.close()
        assert client.endpoint == EndpointConfig(base_url="http://127.0.0.1:9", model="m")

    def test_set_keys_reach_the_endpoint(self, tmp_path):
        section = {"timeout_s": "2.5", "max_inflight": 3, "api_key_env": "OTHER_KEY"}
        doc = {**BASE_CONFIG, "client": {"base_url": "http://127.0.0.1:9", "model": "m", **section}}
        _, client, _ = load_cli_config(write_config(tmp_path, doc))
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

    def test_stage_failure_exits_one_and_reports_the_budget_charged(
        self, tmp_path, capsys, mock_service, monkeypatch
    ):
        local = write_config(tmp_path, {**BASE_CONFIG, "use_mock": True}, "local.json")
        assert main(["sanitize", "--config", local, "--prompt", PROMPT]) == 0
        charged = json.loads(capsys.readouterr().out)["ledger_total"]
        assert charged > 0
        monkeypatch.setattr(MockServiceHandler, "refuse_final", True)
        config = write_config(tmp_path, {**BASE_CONFIG, "client": {"base_url": mock_service, "model": "mock"}})
        assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 1
        err = capsys.readouterr().err
        assert "pipeline failed in stage-3 generation" in err
        assert f"budget charged before the failure: {charged:g}\n" in err

    def test_output_is_identical_at_max_inflight_one_and_eight(self, tmp_path, capsys, mock_service):
        outputs = []
        for max_inflight in (1, 8):
            doc = {
                **BASE_CONFIG,
                "schedule": "0.5:1.4:0.1",
                "client": {"base_url": mock_service, "model": "mock", "max_inflight": max_inflight},
            }
            config = write_config(tmp_path, doc, f"inflight{max_inflight}.json")
            assert main(["sanitize", "--config", config, "--prompt", PROMPT]) == 0
            outputs.append(capsys.readouterr().out)
        local = write_config(tmp_path, {**BASE_CONFIG, "schedule": "0.5:1.4:0.1", "use_mock": True})
        assert main(["sanitize", "--config", local, "--prompt", PROMPT]) == 0
        outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]


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

    def test_dp_requires_epsilon2(self, tmp_path, mock_config, capsys):
        main(["sanitize", "--config", mock_config, "--prompt", PROMPT])
        result = json.loads(capsys.readouterr().out)
        group_path = tmp_path / "group.json"
        group_path.write_text(json.dumps(result["group"]))
        assert main(["keywords", "--group", str(group_path), "--method", "dp"]) == 2
        assert (
            main(
                ["keywords", "--group", str(group_path), "--method", "dp", "--epsilon2", "1.0"]
            )
            == 0
        )

    def test_missing_group_file_exits_two(self, tmp_path):
        assert main(["keywords", "--group", str(tmp_path / "nope.json")]) == 2


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
        dataset.write_text(
            json.dumps(
                {
                    "data": [
                        {
                            "questionId": r.id,
                            "question": r.question,
                            "answers": [r.gold],
                            "ocr_tokens": list(r.context),
                        }
                        for r in records
                    ]
                }
            )
        )
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
