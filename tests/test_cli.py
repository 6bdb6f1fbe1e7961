"""End-to-end CLI runs with mock-backend config files."""

from __future__ import annotations

import json
import re

import pytest

from rmoa.cli import main
from rmoa.config import build_backends, load_config
from rmoa.errors import ConfigError
from rmoa.mockbackend import MockChatBackend, MockEmbeddingBackend


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )


# (key path, malformed value): each must end in a ConfigError naming the key.
BAD_VALUES = [
    ("execution.item_parallelism", "four"),
    ("backends.embedding.dim", "big"),
    ("run.sampling.max_tokens", "lots"),
    ("params_per_model.m", "7B"),
    ("run.layers", "x"),
    ("run.capture_layer_answers", "false"),
    ("backends.chat.timeout_s", "slow"),
    ("run.termination.m", None),
    ("run.layers", 2.9),
    ("run.layers", True),
    ("run.sampling.temperature", True),
    ("execution.item_parallelism", 1.5),
    ("execution.item_parallelism", 0),
    ("execution.item_parallelism", -3),
    ("execution.proposer_parallelism", 0),
    ("execution.proposer_parallelism", -3),
]
# A number or boolean shares its key path with a string case, so its id names the value.
BAD_IDS = [
    f"{key_path}={json.dumps(value)}" if isinstance(value, (bool, int, float)) else key_path
    for key_path, value in BAD_VALUES
]


def set_key(config_path, key_path, value):
    """Rewrite the config file with ``key_path`` set to ``value``."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    if key_path.startswith("backends.chat."):
        # the chat keys under test are HTTP settings; building the client sends nothing
        config["backends"]["chat"] = {
            "kind": "http", "base_url": "http://127.0.0.1:1/v1", "model": "m"
        }
    *parents, leaf = key_path.split(".")
    node = config
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")


@pytest.fixture
def workspace(tmp_path):
    questions = {
        f"ex{i}": f"Example question {i}: what is marker {i}?" for i in range(3)
    }
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(
        dataset,
        [
            {"id": item_id, "question": question, "answer": f"answer-{item_id}",
             "grader": "exact_match"}
            for item_id, question in questions.items()
        ],
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "run": {
                    "layers": 2,
                    "proposers_per_layer": 3,
                    "select_k": 2,
                    "mode": "rmoa",
                    "benchmark": "generic",
                    "sampling": {"temperature": 0.7, "max_tokens": 256},
                    "termination": {"policy": "none"},
                },
                "backends": {
                    "chat": {
                        "kind": "mock",
                        "behavior": "template_answer",
                        "answers": {
                            question: f"answer-{item_id}"
                            for item_id, question in questions.items()
                        },
                    },
                    "embedding": {"kind": "mock", "seed": 7, "dim": 32},
                },
                "pricing": {"price_per_million_tokens": "0.30"},
                "params_per_model": {"mock-chat": 7000000000},
                "execution": {"item_parallelism": 2},
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    return tmp_path, dataset, config


class TestRunCommand:
    def test_run_writes_artifacts_and_reports_accuracy(self, workspace, capsys):
        tmp_path, dataset, config = workspace
        out = tmp_path / "out"
        code = main(
            ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy:     1.0000" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["aggregates"]["correct"] == 3
        assert report["aggregates"]["total_tflops"] is not None
        for item_id in ("ex0", "ex1", "ex2"):
            transcript = json.loads((out / item_id / "transcript.json").read_text())
            assert transcript["stop_reason"] == "max_layers"
            assert transcript["config"]["mode"] == "rmoa"

    def test_mode_override(self, workspace):
        tmp_path, dataset, config = workspace
        out = tmp_path / "out-moa"
        code = main(
            ["run", "--dataset", str(dataset), "--config", str(config),
             "--mode", "moa", "--out", str(out)]
        )
        assert code == 0
        transcript = json.loads((out / "ex0" / "transcript.json").read_text())
        assert transcript["config"]["mode"] == "moa"
        ledger = json.loads((out / "ex0" / "ledger.json").read_text())
        kinds = {entry["kind"] for entry in ledger["entries"]}
        assert "embedding" not in kinds

    def test_run_rejects_bad_dataset(self, workspace, capsys):
        tmp_path, _, config = workspace
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code = main(
            ["run", "--dataset", str(bad), "--config", str(config),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_ids_sharing_a_directory_exit_2(self, workspace, capsys):
        tmp_path, _, config = workspace
        set_key(config, "execution.item_parallelism", 4)
        dataset = tmp_path / "clash.jsonl"
        write_jsonl(
            dataset,
            [
                {"id": item_id, "question": f"Question {n}?", "grader": "none"}
                for n, item_id in enumerate(["q 1", "q_1", "q/1"])
            ],
        )
        out = tmp_path / "out"
        code = main(
            ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: items 'q 1' and 'q_1' share the directory {out / 'q_1'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("item_id", ["report.json", "report.json.tmp"])
    def test_id_taking_a_report_file_name_exits_2(self, workspace, capsys, item_id):
        tmp_path, _, config = workspace
        dataset = tmp_path / "reserved.jsonl"
        write_jsonl(
            dataset,
            [
                {"id": "a", "question": "Question a?", "grader": "none"},
                {"id": item_id, "question": "Question b?", "grader": "none"},
            ],
        )
        out = tmp_path / "out"
        code = main(
            ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: item {item_id!r} would use {out / item_id}, "
            "a name kept for the report files\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key_path, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_config_value_exits_2_naming_the_key(
        self, workspace, capsys, key_path, value
    ):
        tmp_path, dataset, config = workspace
        set_key(config, key_path, value)
        code = main(
            ["run", "--dataset", str(dataset), "--config", str(config),
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert err.count(key_path) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestGradeCommand:
    def test_grades_answers_file(self, workspace, capsys):
        tmp_path, dataset, _ = workspace
        answers = tmp_path / "answers.jsonl"
        write_jsonl(
            answers,
            [
                {"id": "ex0", "answer": "answer-ex0"},
                {"id": "ex1", "answer": "wrong"},
                {"id": "missing", "answer": "x"},
            ],
        )
        code = main(["grade", "--answers", str(answers), "--dataset", str(dataset)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ex0: correct" in stdout
        assert "ex1: incorrect" in stdout
        assert "accuracy: 1/2 = 0.5000" in stdout
        assert "unknown ids: 1" in stdout

    def test_grades_boxed_math(self, tmp_path, capsys):
        dataset = tmp_path / "math.jsonl"
        write_jsonl(
            dataset,
            [
                {"id": f"m{i}", "question": f"Math question {i}?", "answer": "\\frac{1}{2}",
                 "grader": "boxed_math"}
                for i in range(2)
            ],
        )
        answers = tmp_path / "answers.jsonl"
        write_jsonl(
            answers,
            [
                {"id": "m0", "answer": "So the answer is $\\boxed{ \\frac{1}{2} }$."},
                {"id": "m1", "answer": "\\boxed{\\frac{1}{2}} or rather \\boxed{2}"},
            ],
        )
        assert main(["grade", "--answers", str(answers), "--dataset", str(dataset)]) == 0
        stdout = capsys.readouterr().out
        assert "m0: correct" in stdout
        assert "m1: incorrect" in stdout
        assert "accuracy: 1/2 = 0.5000" in stdout


# (command, file, damage): each must end in one error line naming the file and exit 2.
BAD_INPUT_FILES = [
    ("run", "dataset", "missing"),
    ("run", "dataset", "directory"),
    ("run", "dataset", "not-utf8"),
    ("grade", "dataset", "missing"),
    ("grade", "answers", "missing"),
    ("grade", "answers", "directory"),
    ("grade", "answers", "not-utf8"),
    ("grade", "answers", "invalid-json"),
    ("grade", "answers", "not-an-object"),
]


def damage_file(path, damage):
    if damage == "missing":
        path.unlink()
    elif damage == "directory":
        path.unlink()
        path.mkdir()
    elif damage == "not-utf8":
        path.write_bytes(b"\xff\xfe{}\n")
    else:
        # a good first line, so an error after it must still print no grades
        bad = "{not json" if damage == "invalid-json" else '["ex1", "answer-ex1"]'
        path.write_text(
            json.dumps({"id": "ex0", "answer": "answer-ex0"}) + "\n" + bad + "\n",
            encoding="utf-8",
        )


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "command, role, damage", BAD_INPUT_FILES, ids=["-".join(case) for case in BAD_INPUT_FILES]
    )
    def test_bad_input_file_is_one_error_line(self, workspace, capsys, command, role, damage):
        tmp_path, dataset, config = workspace
        answers = tmp_path / "answers.jsonl"
        write_jsonl(answers, [{"id": "ex0", "answer": "answer-ex0"}])
        target = dataset if role == "dataset" else answers
        damage_file(target, damage)
        if command == "run":
            argv = ["run", "--dataset", str(dataset), "--config", str(config),
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["grade", "--answers", str(answers), "--dataset", str(dataset)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {target}: ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_rerenders_existing_run(self, workspace, capsys):
        tmp_path, dataset, config = workspace
        out = tmp_path / "out"
        assert main(
            ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        ) == 0
        capsys.readouterr()
        csv_before = (out / "report.csv").read_text()
        assert main(["report", "--run-dir", str(out)]) == 0
        assert "accuracy" in capsys.readouterr().out
        assert (out / "report.csv").read_text() == csv_before

    def test_missing_report_is_an_error(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        assert "report.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "empty-object"])
    def test_bad_report_is_an_error_and_writes_nothing(self, workspace, capsys, damage):
        tmp_path, dataset, config = workspace
        out = tmp_path / "out"
        assert main(
            ["run", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        ) == 0
        report = out / "report.json"
        text = report.read_text()
        report.write_text(text[: len(text) // 2] if damage == "truncated" else "{}")
        before = {name: (out / name).read_bytes() for name in ("report.csv", "report.txt")}
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {report}")
        assert "Traceback" not in err
        assert {name: (out / name).read_bytes() for name in before} == before


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        stdout = capsys.readouterr().out
        assert "all checks passed" in stdout
        assert "FAIL" not in stdout


class TestConfigLoading:
    def test_backend_kinds(self, workspace):
        _, _, config_path = workspace
        config = load_config(config_path)
        backends = build_backends(config)
        assert isinstance(backends.chat, MockChatBackend)
        assert isinstance(backends.embedding, MockEmbeddingBackend)
        assert config.item_parallelism == 2
        assert config.run.sampling.max_tokens == 256

    def test_http_backend_requires_env_token(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "run": {"layers": 1, "proposers_per_layer": 1, "select_k": 1},
                    "backends": {
                        "chat": {
                            "kind": "http",
                            "base_url": "http://127.0.0.1:1/v1",
                            "model": "m",
                            "auth_token_env": "RMOA_TEST_TOKEN",
                        },
                        "embedding": {"kind": "mock"},
                    },
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.delenv("RMOA_TEST_TOKEN", raising=False)
        with pytest.raises(ConfigError, match="RMOA_TEST_TOKEN"):
            build_backends(load_config(config_path))
        monkeypatch.setenv("RMOA_TEST_TOKEN", "tok")
        backends = build_backends(load_config(config_path))
        assert backends.chat.api_key == "tok"

    @pytest.mark.parametrize(
        "content, message",
        [(None, "cannot read config"), ("{not json", "is not valid JSON"),
         ("[1, 2]", "must contain a JSON object")],
        ids=["missing", "invalid-json", "not-an-object"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, content, message):
        config_path = tmp_path / "config.json"
        if content is not None:
            config_path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(config_path)

    def test_invalid_run_shape_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"run": {"layers": 2, "proposers_per_layer": 2, "select_k": 5}}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError):
            load_config(config_path)

    def test_script_entries_parse_yes_no(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "run": {"layers": 1, "proposers_per_layer": 1, "select_k": 1},
                    "backends": {
                        "chat": {
                            "kind": "mock",
                            "behavior": "residual_script",
                            "script": ["Yes", "no", True],
                        },
                        "embedding": {"kind": "mock"},
                    },
                }
            ),
            encoding="utf-8",
        )
        backends = build_backends(load_config(config_path))
        assert backends.chat.rule.script == (True, False, True)

    def test_unknown_backend_kind(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "run": {"layers": 1, "proposers_per_layer": 1, "select_k": 1},
                    "backends": {"chat": {"kind": "quantum"}, "embedding": {"kind": "mock"}},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="quantum"):
            build_backends(load_config(config_path))

    @pytest.mark.parametrize("key_path, value", BAD_VALUES, ids=BAD_IDS)
    def test_bad_value_is_config_error(self, workspace, key_path, value):
        _, _, config_path = workspace
        set_key(config_path, key_path, value)
        with pytest.raises(ConfigError, match=re.escape(key_path)):
            build_backends(load_config(config_path))

    @pytest.mark.parametrize("key, value", [("timeout_s", 0), ("max_attempts", 0)])
    def test_out_of_range_http_setting_is_config_error(self, workspace, key, value):
        _, _, config_path = workspace
        set_key(config_path, f"backends.chat.{key}", value)
        with pytest.raises(ConfigError, match=f"backends.chat: {key}"):
            build_backends(load_config(config_path))

    @pytest.mark.parametrize(
        "key_path", ["run.layer", "run.termination.window", "run.sampling.top_p"]
    )
    def test_unknown_run_key_rejected(self, workspace, key_path):
        _, _, config_path = workspace
        set_key(config_path, key_path, 12)
        with pytest.raises(ConfigError, match=re.escape(f"{key_path}: unknown key")):
            load_config(config_path)

    def test_null_means_unset_where_documented(self, workspace):
        _, _, config_path = workspace
        for key_path in (
            "execution.proposer_parallelism",
            "backends.embedding.max_input_chars",
            "prompts.directory",
            "run.sampling",
        ):
            set_key(config_path, key_path, None)
        config = load_config(config_path)
        backends = build_backends(config)
        assert config.proposer_parallelism is None
        assert config.prompt_dir is None
        assert config.run.sampling.max_tokens == 1024
        assert backends.embedding.max_input_chars is None

    def test_booleans_are_json_true_false(self, workspace):
        _, _, config_path = workspace
        set_key(config_path, "run.capture_layer_answers", True)
        assert load_config(config_path).run.capture_layer_answers is True
