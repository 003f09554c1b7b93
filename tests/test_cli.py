import csv
import json

import pytest

from promptsan.cli import main
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
