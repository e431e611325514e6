"""Command-line interface: help snapshots, exit codes, and the closure
property that every emitted file is re-readable by its loader."""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import re
import shutil

import numpy as np
import pytest

import qvuln.trainer
import checkpoint_codec
from checkpoint_codec import array_entry, encode, entry_values, index_entry
from qvuln import cli
from qvuln.cli import (
    load_encoded_dataset,
    load_vocab_file,
    main,
    run_gradcheck,
)
from qvuln.corpus import balance
from qvuln.embedding import MODES, build_embedding_matrix
from qvuln.errors import DataError
from qvuln.trainer import (
    TASKS, _record_keys, evaluate, load_checkpoint, load_curves, load_metrics, sine_task,
)

TOP_HELP = """\
usage: qvuln [-h] {preprocess,train,eval,sine-demo,gradcheck,census} ...

Classical and quantum LSTM pipeline for function-level vulnerability
classification and sine regression.

positional arguments:
  {preprocess,train,eval,sine-demo,gradcheck,census}
    preprocess          encode CSV corpora into fixed-length index sequences
    train               train a model and write a checkpoint
    eval                evaluate a checkpoint on a dataset
    sine-demo           train on the sine task and dump prediction curves
    gradcheck           verify analytic gradients against finite differences
    census              compare runtime parameter count with the analytic
                        formula

options:
  -h, --help            show this help message and exit
"""

PREPROCESS_HELP = """\
usage: qvuln preprocess [-h] --data-dir DATA_DIR [--max-len MAX_LEN]
                        [--max-vocab MAX_VOCAB] [--balance | --no-balance]
                        [--seed SEED] --out OUT

options:
  -h, --help            show this help message and exit
  --data-dir DATA_DIR   directory holding train.csv, validation.csv, test.csv
  --max-len MAX_LEN     sequence length after padding (default: 100)
  --max-vocab MAX_VOCAB
                        vocabulary size cap (default: 10000)
  --balance, --no-balance
                        down-sample the majority class in every split
                        (default: True)
  --seed SEED           balancing seed (default: 42)
  --out OUT             output directory for encoded files
"""

TRAIN_HELP = """\
usage: qvuln train [-h] --model {lstm,qlstm} --task {classify,sine}
                   [--embedding {basic,glove,fasttext,glove+fasttext}]
                   [--vectors FILE] [--data DATA] [--eval-data EVAL_DATA]
                   [--vocab VOCAB] [--epochs EPOCHS] [--batch BATCH] [--lr LR]
                   [--seed SEED] [--threshold THRESHOLD] [--hidden HIDDEN]
                   [--d-basic D_BASIC] [--n-points N_POINTS] [--window WINDOW]
                   [--sigma-hidden | --no-sigma-hidden] --out OUT
                   [--metrics METRICS] [--curves CURVES]

options:
  -h, --help            show this help message and exit
  --model {lstm,qlstm}  model kind
  --task {classify,sine}
                        training task
  --embedding {basic,glove,fasttext,glove+fasttext}
                        input representation (default: basic)
  --vectors FILE        pretrained vector file (repeat for glove+fasttext)
  --data DATA           encoded training split (classify)
  --eval-data EVAL_DATA
                        encoded split for the metrics report
  --vocab VOCAB         vocabulary file (classify)
  --epochs EPOCHS       epochs (default: 30 sine, 10 classify)
  --batch BATCH         mini-batch size (default: 16)
  --lr LR               learning rate (default: 0.01 sine, 0.001 classify)
  --seed SEED           seed for init and shuffling (default: 42)
  --threshold THRESHOLD
                        decision threshold, classify only (default: 0.5)
  --hidden HIDDEN       classical hidden units, lstm only (default: 50)
  --d-basic D_BASIC     trainable embedding dimension, basic mode only
                        (default: 50)
  --n-points N_POINTS   sine task sample count (default: 100)
  --window WINDOW       sine task input window (default: 4)
  --sigma-hidden, --no-sigma-hidden
                        wrap the quantum hidden-state block in a sigmoid,
                        qlstm only (default: True)
  --out OUT             checkpoint output path
  --metrics METRICS     metrics report output path
  --curves CURVES       prediction curve output path
"""

EVAL_HELP = """\
usage: qvuln eval [-h] --ckpt CKPT [--data DATA] [--threshold THRESHOLD]
                  [--metrics METRICS]

options:
  -h, --help            show this help message and exit
  --ckpt CKPT           checkpoint path
  --data DATA           encoded dataset (classify checkpoints)
  --threshold THRESHOLD
                        decision threshold, the checkpoint's if unset
  --metrics METRICS     metrics report output path
"""

SINE_DEMO_HELP = """\
usage: qvuln sine-demo [-h] --model {lstm,qlstm} [--epochs EPOCHS]
                       [--seed SEED] --curves CURVES

options:
  -h, --help            show this help message and exit
  --model {lstm,qlstm}  model kind
  --epochs EPOCHS       training epochs (default: 30)
  --seed SEED           seed for init and shuffling (default: 42)
  --curves CURVES       curve output path
"""

GRADCHECK_HELP = """\
usage: qvuln gradcheck [-h] [--seed SEED] [--trials TRIALS]

options:
  -h, --help       show this help message and exit
  --seed SEED      seed for random instances (default: 42)
  --trials TRIALS  random circuit draws (default: 20)
"""

CENSUS_HELP = """\
usage: qvuln census [-h] --ckpt CKPT

options:
  -h, --help   show this help message and exit
  --ckpt CKPT  checkpoint path
"""


SINE_TRAIN = [
    "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
    "--n-points", "8", "--window", "2", "--hidden", "2",
]


@pytest.fixture(autouse=True)
def fixed_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")



def _set_token(doc: dict, row: int, col: int, value: int) -> None:
    """Write `value` at (row, col) of an `encoded.v3` split's sequences,
    stored as `checkpoint_codec.index_entry` stores them."""
    seqs = entry_values(doc["sequences"]).astype(np.int64)
    seqs[row, col] = value
    doc["sequences"] = index_entry(seqs)

class TestHelpSnapshots:
    @pytest.mark.parametrize(
        "argv,snapshot",
        [
            (["--help"], TOP_HELP),
            (["preprocess", "--help"], PREPROCESS_HELP),
            (["train", "--help"], TRAIN_HELP),
            (["eval", "--help"], EVAL_HELP),
            (["sine-demo", "--help"], SINE_DEMO_HELP),
            (["gradcheck", "--help"], GRADCHECK_HELP),
            (["census", "--help"], CENSUS_HELP),
        ],
        ids=["top", "preprocess", "train", "eval", "sine-demo", "gradcheck", "census"],
    )
    def test_snapshot(self, argv, snapshot, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == snapshot

    @pytest.mark.parametrize(
        "command", ["preprocess", "train", "eval", "sine-demo", "gradcheck", "census"])
    def test_each_stated_default_is_the_one_the_handler_applies(
            self, command, monkeypatch, tiny_corpus_dir, tmp_path, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert not [line for line in text.splitlines() if "(default: None)" in line]
        # each flag's help entry, joined onto one line: its defaults
        stated = {}
        for entry in re.split(r"\n(?=  -)", text.split("\noptions:\n", 1)[1]):
            entry = " ".join(entry.split())
            stated[entry.split()[0].rstrip(",")] = re.findall(r"\(default: ([^)]*)\)", entry)
        assert {flag: found for flag, found in stated.items() if len(found) > 1} == {}
        resolved = _resolved_defaults(command, monkeypatch, tiny_corpus_dir, tmp_path)
        for flag, found in stated.items():
            for default in found:
                # "30 sine, 10 classify" states one default per task
                parts = [part.rsplit(" ", 1) for part in default.split(", ")]
                if all(len(part) == 2 and part[1] in TASKS for part in parts):
                    expected = {task: value for value, task in parts}
                else:
                    expected = {task: default for task, run in resolved.items() if flag in run}
                assert expected, f"no run of {command} reads {flag}"
                assert {task: str(resolved[task][flag]) for task in expected} == expected, flag


class _Built(Exception):
    """Raised in place of `train`, carrying the settings and inputs the
    handler built for it."""


def _resolved_defaults(command, monkeypatch, corpus_dir, tmp_path) -> dict:
    """{task (None for a command without one): {flag: the value that the
    handler applies when the flag is unset}}, read from the calls the
    handler makes: `train`'s settings and inputs (the table's width and
    mode, the sine task's sizes), `run_gradcheck`'s arguments and the seed
    `balance` is called with."""

    def no_training(config, data, matrix=None, **_):
        raise _Built(config, data, matrix)

    def built(argv) -> dict:
        monkeypatch.setattr(cli, "train", no_training)
        with pytest.raises(_Built) as info:
            main([*argv, "--model", "lstm"])
        config, data, matrix = info.value.args
        run = {"--epochs": config.epochs, "--batch": config.batch_size, "--lr": config.lr,
               "--seed": config.seed, "--threshold": config.threshold,
               "--hidden": config.hidden, "--sigma-hidden": config.sigma_hidden}
        if matrix is None:
            run.update({"--n-points": len(data), "--window": data.sequences.shape[1]})
        else:
            run.update({"--d-basic": matrix.rows.shape[1], "--embedding": matrix.source})
        return run

    if command in ("train", "sine-demo"):
        out, curves = ["--out", str(tmp_path / "ck.json")], ["--curves", str(tmp_path / "c.txt")]
        if command == "sine-demo":
            return {"sine": built(["sine-demo", *curves])}
        enc = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(corpus_dir), "--max-len", "6",
                     "--out", str(enc)]) == 0
        return {"sine": built(["train", "--task", "sine", *out]),
                "classify": built(["train", "--task", "classify", "--data", str(enc / "train.json"),
                                   "--vocab", str(enc / "vocab.json"), *out])}
    if command == "gradcheck":
        calls = []

        @functools.wraps(run_gradcheck)  # the parser reads its defaults too
        def recording(**kwargs):
            bound = inspect.signature(run_gradcheck).bind(**kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return dict.fromkeys(("vqc", "lstm", "qlstm"), 0.0)

        monkeypatch.setattr(cli, "run_gradcheck", recording)
        assert main(["gradcheck"]) == 0
        return {None: {"--seed": calls[0]["seed"], "--trials": calls[0]["trials"]}}
    if command == "preprocess":  # argparse's own defaults, and the seed `balance` applies
        seeds = []

        @functools.wraps(balance)  # the parser reads its defaults too
        def balancing(corpus, **kwargs):
            bound = inspect.signature(balance).bind(corpus, **kwargs)
            bound.apply_defaults()
            seeds.append(bound.arguments["seed"])
            return balance(corpus, **kwargs)

        monkeypatch.setattr(cli, "balance", balancing)
        assert main(["preprocess", "--data-dir", str(corpus_dir),
                     "--out", str(tmp_path / "enc")]) == 0
        assert len(set(seeds)) == 1, seeds
        args = cli.build_parser().parse_args(["preprocess", "--data-dir", "in", "--out", "out"])
        return {None: {"--max-len": args.max_len, "--max-vocab": args.max_vocab,
                       "--balance": args.balance, "--seed": seeds[0]}}
    return {}  # eval and census state no default


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "required" in capsys.readouterr().err

    def test_invalid_choice_names_value(self, capsys):
        assert main(["train", "--model", "tcn", "--task", "sine", "--out", "x"]) == 1
        assert "tcn" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gradcheck", "--fast"]) == 1
        assert "--fast" in capsys.readouterr().err

    def test_missing_checkpoint_file_is_data_error(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_classify_train_requires_data_and_vocab(self, tmp_path, capsys):
        code = main([
            "train", "--model", "lstm", "--task", "classify",
            "--out", str(tmp_path / "ckpt.json"),
        ])
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_census_mismatch_exits_three(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2",
            "--out", str(ckpt_path),
        ]) == 0
        capsys.readouterr()
        assert main(["census", "--ckpt", str(ckpt_path)]) == 0
        assert "ok" in capsys.readouterr().out

        doc = checkpoint_codec.load(ckpt_path)
        doc["params"]["smuggled"] = [1.0, 2.0, 3.0]
        checkpoint_codec.save(ckpt_path, doc)
        assert main(["census", "--ckpt", str(ckpt_path)]) == 3
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("sizes", [[], ["--hidden", "2"]], ids=["logits", "mse"])
    def test_divergence_at_the_last_step_exits_three(self, tmp_path, capsys, sizes):
        # no loss reads the last Adam step's parameters; the closing
        # evaluation does, and the run that made them diverged
        ckpt_path = tmp_path / "ckpt.json"
        code = main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--lr", "1e308", *sizes,
            "--out", str(ckpt_path),
        ])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: training diverged: ") and err.count("\n") == 1
        assert not ckpt_path.exists()

    def test_census_without_model_array_is_checkpoint_error(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2",
            "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        del doc["params"]["w_f"]
        checkpoint_codec.save(ckpt_path, doc)
        capsys.readouterr()
        assert main(["census", "--ckpt", str(ckpt_path)]) == 2
        err = capsys.readouterr().err
        assert "w_f" in err and err.count("\n") == 1


    def test_unknown_model_or_task_in_checkpoint_is_checkpoint_error(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "qlstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--out", str(ckpt_path),
        ]) == 0
        good = checkpoint_codec.load(ckpt_path)
        for key, value in (("model", "gru"), ("task", "regress")):
            capsys.readouterr()
            checkpoint_codec.save(ckpt_path, {**good, key: value})
            assert main(["eval", "--ckpt", str(ckpt_path)]) == 2
            assert value in capsys.readouterr().err

    def test_negative_token_index_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        ckpt_path = tmp_path / "ckpt.json"

        def train_argv(data):
            return [
                "train", "--model", "lstm", "--task", "classify", "--data", str(data),
                "--vocab", str(enc_dir / "vocab.json"), "--epochs", "1", "--hidden", "2",
                "--d-basic", "2", "--out", str(ckpt_path),
            ]

        assert main(train_argv(enc_dir / "train.json")) == 0
        doc = json.loads((enc_dir / "test.json").read_text())
        _set_token(doc, 0, -1, -1)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        capsys.readouterr()
        eval_argv = ["eval", "--ckpt", str(ckpt_path), "--data", str(bad_path)]
        # no dtype a split may use holds a negative index
        for argv in (train_argv(bad_path), eval_argv):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "dtype must be one of '<u2', '<u4', got '<i8'" in err, err


    def test_token_index_past_vocabulary_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        doc = json.loads((enc_dir / "train.json").read_text())
        _set_token(doc, 0, -1, 1_000_000)
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        good_path = enc_dir / "train.json"
        for data, eval_data in ((bad_path, good_path), (good_path, bad_path)):
            capsys.readouterr()
            assert main([
                "train", "--model", "lstm", "--task", "classify", "--data", str(data),
                "--eval-data", str(eval_data), "--vocab", str(enc_dir / "vocab.json"),
                "--epochs", "1", "--hidden", "2", "--d-basic", "2",
                "--out", str(tmp_path / "ckpt.json"),
            ]) == 2
            assert "outside" in capsys.readouterr().err
        assert not (tmp_path / "ckpt.json").exists()

    def test_malformed_encoded_split_or_vocabulary_is_data_error(
        self, tiny_corpus_dir, tmp_path, capsys
    ):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        split = json.loads((enc_dir / "train.json").read_text())
        vocab = json.loads((enc_dir / "vocab.json").read_text())
        without = lambda doc, key: {k: v for k, v in doc.items() if k != key}
        seqs, labels = entry_values(split["sequences"]), entry_values(split["labels"])
        index = split["sequences"]["dtype"]
        bad_splits = [
            [split["sequences"]],
            without(split, "max_len"),
            {**split, "max_len": "two"},
            # rows one token shorter than max_len
            {**split, "sequences": array_entry(seqs[:, :-1], index)},
            {**split, "labels": ["x", "y"]},
            # one sample whose labels shape is [true]: a JSON boolean is not a count
            {**split, "sequences": array_entry(seqs[:1], index),
             "labels": {"shape": [True], "dtype": "|u1", "data": encode(labels[:1], "|u1")}},
            {**split, "vocab_digest": None},
        ]
        bad_vocabs = [vocab["tokens"], without(vocab, "tokens"), {**vocab, "tokens": [1, 2]}]
        cases = [(doc, vocab) for doc in bad_splits] + [(split, doc) for doc in bad_vocabs]
        data_path, vocab_path = tmp_path / "split.json", tmp_path / "vocab.json"
        for k, (split_doc, vocab_doc) in enumerate(cases):
            data_path.write_text(json.dumps(split_doc))
            vocab_path.write_text(json.dumps(vocab_doc))
            capsys.readouterr()
            assert main([
                "train", "--model", "lstm", "--task", "classify", "--data", str(data_path),
                "--vocab", str(vocab_path), "--epochs", "1", "--hidden", "2",
                "--d-basic", "2", "--out", str(tmp_path / "ckpt.json"),
            ]) == 2, k
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_sine_eval_reads_checked_task_sizes(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0
        good = checkpoint_codec.load(ckpt_path)
        for key in ("n_points", "window"):
            # 10**12 would allocate terabytes of sine windows
            for value in ("abc", None, [1], 10**12):
                hp = {**good["hyperparameters"], key: value}
                checkpoint_codec.save(ckpt_path, {**good, "hyperparameters": hp})
                capsys.readouterr()
                assert main(["eval", "--ckpt", str(ckpt_path)]) == 2
                err = capsys.readouterr().err
                assert key in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("value, max_len", [(None, 6), ("6", 6), (True, 1), (0, 6)],
                             ids=["missing", "string", "true", "zero"])
    def test_classify_eval_reads_a_checked_max_len(self, value, max_len, tiny_corpus_dir,
                                                   tmp_path, capsys):
        # None drops the key; a JSON true equals a 1-token split's max_len,
        # so it must not evaluate that split
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", str(max_len),
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        ckpt_path = tmp_path / "ckpt.json"
        assert main(["train", "--model", "lstm", "--task", "classify", "--epochs", "1",
                     "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                     "--hidden", "2", "--d-basic", "2", "--out", str(ckpt_path)]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        hp = {k: v for k, v in doc["hyperparameters"].items() if k != "max_len"}
        if value is not None:
            hp["max_len"] = value
        checkpoint_codec.save(ckpt_path, {**doc, "hyperparameters": hp})
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(enc_dir / "test.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "checkpoint hyperparameter 'max_len' must be a positive integer" in captured.err
        assert captured.err.count("\n") == 1, captured.err

    def test_sine_eval_without_task_sizes_is_checkpoint_error(self, tmp_path, capsys):
        # train always records both sizes; a default would evaluate on
        # another task than the one trained
        ckpt_path = self._sine_checkpoint(tmp_path)
        good = checkpoint_codec.load(ckpt_path)
        for key in ("n_points", "window"):
            hp = {k: v for k, v in good["hyperparameters"].items() if k != key}
            checkpoint_codec.save(ckpt_path, {**good, "hyperparameters": hp})
            capsys.readouterr()
            assert main(["eval", "--ckpt", str(ckpt_path)]) == 2, key
            captured = capsys.readouterr()
            assert captured.out == "", key
            assert repr(key) in captured.err and captured.err.count("\n") == 1, captured.err

    def test_negative_max_len_is_data_error(self, monkeypatch, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"

        def no_read(*args, **kwargs):
            raise AssertionError("the sizes are checked before any CSV is read")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        for flag, value in (("--max-len", "0"), ("--max-len", "-2"), ("--max-vocab", "0")):
            capsys.readouterr()
            assert main([
                "preprocess", "--data-dir", str(tiny_corpus_dir), flag, value,
                "--out", str(enc_dir),
            ]) == 2, value
            err = capsys.readouterr().err
            name = flag[2:].replace("-", "_")
            assert err.startswith("error: ") and name in err and err.count("\n") == 1, err
            assert not enc_dir.exists()

    def test_no_balance_refuses_a_seed(self, monkeypatch, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"

        def no_read(*args, **kwargs):
            raise AssertionError("the flags are checked before any CSV is read")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        argv = ["preprocess", "--data-dir", str(tiny_corpus_dir), "--no-balance", "--out",
                str(enc_dir)]
        assert main([*argv, "--seed", "7"]) == 1
        assert capsys.readouterr().err == "error: --no-balance takes no --seed\n"
        assert not enc_dir.exists()
        # the seed's range is checked first, as train checks its settings first
        assert main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: 'seed' must be an integer >= 0, got -1\n"
        assert not enc_dir.exists()

    def test_sine_train_refuses_classify_inputs(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        sine = ["train", "--model", "lstm", "--task", "sine", "--out", str(ckpt_path)]
        given = [[flag, str(tmp_path / "unused.json")]
                 for flag in ("--data", "--vocab", "--eval-data", "--vectors")]
        # the basic table's width and any embedding mode, basic given
        # explicitly too, with or without its --vectors file, are
        # classify-only too (an out-of-range width is refused first, by the
        # settings' range check)
        given += [["--d-basic", "7"], ["--embedding", "glove"], ["--embedding", "basic"],
                  ["--embedding", "glove", "--d-basic", "7"]]
        for args in given:
            capsys.readouterr()
            assert main([*sine, *args]) == 1, args
            err = capsys.readouterr().err
            assert err.startswith("error: --task sine takes no ") and err.count("\n") == 1, err
            assert all(flag in err for flag in args if flag.startswith("--")), err
        assert not ckpt_path.exists()

    @pytest.mark.parametrize("model, task, flags, owner", [
        ("qlstm", "sine", ["--hidden", "7"], "--model qlstm"),
        ("lstm", "sine", ["--sigma-hidden"], "--model lstm"),
        ("lstm", "sine", ["--no-sigma-hidden"], "--model lstm"),
        ("lstm", "classify", ["--n-points", "8"], "--task classify"),
        ("lstm", "classify", ["--window", "2"], "--task classify"),
        ("qlstm", "sine", ["--threshold", "0.7"], "--task sine"),
    ], ids=["hidden", "sigma-hidden", "no-sigma-hidden", "n-points", "window", "threshold"])
    def test_flag_the_run_does_not_read_is_usage_error(self, model, task, flags, owner,
                                                       tmp_path, capsys):
        # the flag is refused, not dropped, before any input is read
        ckpt_path = tmp_path / "ckpt.json"
        inputs = (["--data", str(tmp_path / "absent.json"), "--vocab", str(tmp_path / "v.json")]
                  if task == "classify" else [])
        capsys.readouterr()
        assert main(["train", "--model", model, "--task", task, *inputs, *flags,
                     "--out", str(ckpt_path)]) == 1
        err = capsys.readouterr().err
        taken = "--sigma-hidden/--no-sigma-hidden" if "sigma" in flags[0] else flags[0]
        assert err == f"error: {owner} takes no {taken}\n", err
        assert not ckpt_path.exists()

    def test_unset_flags_take_their_documented_values(self, tmp_path):
        for model, sizes in (("lstm", []), ("qlstm", ["--n-points", "8", "--window", "2"])):
            ckpt_path = tmp_path / f"{model}.json"
            assert main(["train", "--model", model, "--task", "sine", "--epochs", "1", *sizes,
                         "--out", str(ckpt_path)]) == 0
            hp = load_checkpoint(ckpt_path).hyperparameters
            assert (hp.get("hidden"), hp.get("sigma_hidden")) == (
                (50, None) if model == "lstm" else (None, True)), model
            assert (hp["n_points"], hp["window"]) == ((100, 4) if model == "lstm" else (8, 2))

    def test_eval_split_of_another_max_len_exits_before_training(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        for max_len in ("6", "8"):
            assert main([
                "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", max_len,
                "--max-vocab", "30", "--out", str(tmp_path / max_len),
            ]) == 0

        def no_forward(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(qvuln.trainer, "lstm_forward", no_forward)
        capsys.readouterr()
        assert main([
            "train", "--model", "lstm", "--task", "classify",
            "--data", str(tmp_path / "6" / "train.json"),
            "--eval-data", str(tmp_path / "8" / "validation.json"),
            "--vocab", str(tmp_path / "6" / "vocab.json"), "--hidden", "2", "--d-basic", "2",
            "--out", str(tmp_path / "ckpt.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_len" in err and err.count("\n") == 1, err
        assert not (tmp_path / "ckpt.json").exists()

    def test_split_of_another_vocabulary_exits_before_training(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        # B's vocabulary holds A's 30 tokens and 10 more, so A's indices fit
        # B's embedding rows and only the digest tells the two apart
        for name, max_vocab in (("a", "30"), ("b", "40")):
            assert main([
                "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                "--max-vocab", max_vocab, "--out", str(tmp_path / name),
            ]) == 0

        def no_forward(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(qvuln.trainer, "lstm_forward", no_forward)
        a, b = tmp_path / "a", tmp_path / "b"
        cases = ((a / "train.json", None), (b / "train.json", a / "validation.json"))
        for data, eval_data in cases:
            capsys.readouterr()
            argv = [
                "train", "--model", "lstm", "--task", "classify", "--data", str(data),
                "--vocab", str(b / "vocab.json"), "--hidden", "2", "--d-basic", "2",
                "--out", str(tmp_path / "ckpt.json"),
            ]
            if eval_data is not None:
                argv += ["--eval-data", str(eval_data)]
            assert main(argv) == 2, eval_data
            err = capsys.readouterr().err
            assert err.startswith("error: vocabulary digest mismatch"), err
            assert err.count("\n") == 1, err
            assert not (tmp_path / "ckpt.json").exists()

    def test_eval_of_a_split_of_another_vocabulary_exits_two(
        self, tiny_corpus_dir, tmp_path, capsys
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        for enc_dir, max_vocab in ((a, "30"), (b, "40")):
            assert main([
                "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                "--max-vocab", max_vocab, "--out", str(enc_dir),
            ]) == 0
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "classify", "--data", str(a / "train.json"),
            "--vocab", str(a / "vocab.json"), "--epochs", "1", "--hidden", "2",
            "--d-basic", "2", "--out", str(ckpt_path),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(b / "test.json"),
                     "--metrics", str(tmp_path / "metrics.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vocabulary digest mismatch") and err.count("\n") == 1, err
        assert not (tmp_path / "metrics.json").exists()

        # the recorded digest is checkpoint input: a number is a schema error
        doc = checkpoint_codec.load(ckpt_path)
        doc["vocab_digest"] = 5
        checkpoint_codec.save(ckpt_path, doc)
        assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(a / "test.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab_digest" in err and err.count("\n") == 1, err

    def test_v1_split_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        split = load_encoded_dataset(enc_dir / "train.json")
        v1_path = tmp_path / "v1.json"
        v1_path.write_text(json.dumps({
            "format": "encoded.v1", "split": "train", "max_len": 6,
            "vocab_digest": split.vocab_digest, "labels": split.labels.tolist(),
            "sequences": split.sequences.tolist(),
        }))
        capsys.readouterr()
        assert main([
            "train", "--model", "lstm", "--task", "classify", "--data", str(v1_path),
            "--vocab", str(enc_dir / "vocab.json"), "--epochs", "1", "--hidden", "2",
            "--d-basic", "2", "--out", str(tmp_path / "ckpt.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {v1_path}: unsupported format 'encoded.v1', "
                       "expected 'encoded.v3'\n"), err
        assert not (tmp_path / "ckpt.json").exists()

    def test_malformed_later_csv_writes_no_file(self, tiny_corpus_dir, tmp_path, capsys):
        data_dir = tmp_path / "csv"
        shutil.copytree(tiny_corpus_dir, data_dir)
        (data_dir / "test.csv").write_text("code,label\nint f() { return 0; },2\n",
                                           encoding="utf-8")
        enc_dir = tmp_path / "encoded"
        capsys.readouterr()
        assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(enc_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "test.csv" in err and err.count("\n") == 1, err
        assert list(enc_dir.iterdir()) == []

    def test_empty_split_is_data_error(self, monkeypatch, tiny_corpus_dir, tmp_path, capsys):
        data_dir = tmp_path / "csv"
        shutil.copytree(tiny_corpus_dir, data_dir)
        (data_dir / "validation.csv").write_text("code,label\n", encoding="utf-8")
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(data_dir), "--no-balance", "--max-len", "6",
            "--out", str(enc_dir),
        ]) == 0
        train = ["train", "--model", "lstm", "--task", "classify",
                 "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                 "--epochs", "1", "--hidden", "2", "--d-basic", "2"]
        assert main([*train, "--out", str(tmp_path / "ckpt.json")]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--ckpt", str(tmp_path / "ckpt.json"),
            "--data", str(enc_dir / "validation.json"), "--metrics", str(tmp_path / "m.json"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "m.json").exists()
        assert captured.err.startswith("error: ") and "no samples" in captured.err
        assert captured.err.count("\n") == 1, captured.err

        def no_forward(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(qvuln.trainer, "lstm_forward", no_forward)
        assert main([*train, "--eval-data", str(enc_dir / "validation.json"),
                     "--out", str(tmp_path / "ckpt2.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no samples" in err and err.count("\n") == 1, err
        assert not (tmp_path / "ckpt2.json").exists()

    def test_sine_eval_refuses_data(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(tmp_path / "x.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("error: ") and "--data" in captured.err

    def test_memory_exhaustion_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        # whether a huge allocation fails at once depends on the host's
        # overcommit policy, so the failure is injected, not requested
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(qvuln.trainer, "init_lstm_params", exhausted)
        capsys.readouterr()
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--hidden", "100000",
            "--out", str(tmp_path / "ckpt.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array\n"
        assert not (tmp_path / "ckpt.json").exists()

    def test_non_finite_vector_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        vectors = tmp_path / "vectors.txt"
        for value in ("nan", "inf", "-inf", "1e400"):
            vectors.write_text(f"char 0.3 0.2\nint {value} 0.1\n")
            capsys.readouterr()
            assert main([
                "train", "--model", "lstm", "--task", "classify",
                "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                "--embedding", "glove", "--vectors", str(vectors), "--epochs", "1",
                "--hidden", "2", "--out", str(tmp_path / "ckpt.json"),
            ]) == 2, value
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "line 2" in err and err.count("\n") == 1, err
        assert not (tmp_path / "ckpt.json").exists()

    def test_d_basic_applies_to_basic_mode_only(self, tiny_corpus_dir, tmp_path, capsys):
        # a vector mode takes its width from its vector files, so a given
        # --d-basic is a usage error like every flag a run does not read;
        # basic mode checks its range and defaults to 50
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        tokens = load_vocab_file(enc_dir / "vocab.json").tokens
        (tmp_path / "v.txt").write_text("".join(f"{token} 0.5 -0.25\n" for token in tokens))
        ckpt_path = tmp_path / "ckpt.json"
        common = ["train", "--model", "lstm", "--task", "classify",
                  "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                  "--epochs", "1", "--hidden", "2", "--out", str(ckpt_path)]
        for mode in ("glove", "fasttext", "glove+fasttext"):
            vectors = ["--vectors", str(tmp_path / "v.txt")] * (2 if "+" in mode else 1)
            capsys.readouterr()
            assert main([*common, "--embedding", mode, *vectors, "--d-basic", "7"]) == 1, mode
            assert capsys.readouterr().err == f"error: --embedding {mode} takes no --d-basic\n"
            assert not ckpt_path.exists()
        assert main([*common, "--d-basic", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d_basic" in err and err.count("\n") == 1, err
        assert main(common) == 0
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.hyperparameters["d_in"] == 50
        assert ckpt.arrays["embedding.rows"].shape == (len(tokens) + 2, 50)

    def test_gradcheck_without_trials_is_data_error(self, capsys):
        for trials in ("0", "-1"):
            capsys.readouterr()
            assert main(["gradcheck", "--trials", trials]) == 2, trials
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_train_settings_are_data_errors(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        for flags in (["--hidden", "0"], ["--hidden", "-3"], ["--d-basic", "-1"],
                      ["--lr", "-1"], ["--lr", "nan"], ["--lr", "inf"],
                      ["--n-points", str(10**12)]):
            capsys.readouterr()
            assert main([
                "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
                "--n-points", "8", "--window", "2", *flags, "--out", str(ckpt_path),
            ]) == 2, flags
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not ckpt_path.exists()

    def test_negative_seed_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        probes = [
            ["train", "--model", "lstm", "--task", "sine", "--epochs", "1",
             "--n-points", "8", "--window", "2", "--out", str(tmp_path / "ckpt.json")],
            ["sine-demo", "--model", "lstm", "--epochs", "1",
             "--curves", str(tmp_path / "curves.txt")],
            ["preprocess", "--data-dir", str(tiny_corpus_dir), "--out", str(tmp_path / "enc")],
            ["gradcheck", "--trials", "1"],
        ]
        for argv in probes:
            capsys.readouterr()
            assert main([*argv, "--seed", "-1"]) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            err = captured.err
            assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1, err
        assert not any(tmp_path.iterdir())

    def test_unwritable_output_path_is_data_error(self, monkeypatch, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0

        def no_work(*args, **kwargs):
            raise AssertionError("the output paths are checked before any work")

        monkeypatch.setattr(cli, "train", no_work)
        monkeypatch.setattr(cli, "load_checkpoint", no_work)
        missing, a_dir = str(tmp_path / "absent" / "out.json"), str(tmp_path)
        sine = ["train", "--model", "lstm", "--task", "sine", "--epochs", "1"]
        probes = [
            ([*sine, "--out", missing], "does not exist"),
            ([*sine, "--out", a_dir], "is a directory"),
            ([*sine, "--out", str(tmp_path / "new.json"), "--metrics", missing], "does not exist"),
            ([*sine, "--out", str(tmp_path / "new.json"), "--curves", a_dir], "is a directory"),
            (["sine-demo", "--model", "lstm", "--curves", missing], "does not exist"),
            (["eval", "--ckpt", str(ckpt_path), "--metrics", missing], "does not exist"),
        ]
        for argv, reason in probes:
            capsys.readouterr()
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and reason in err and err.count("\n") == 1, err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ckpt.json"]

    def _refuses_same_file(self, argv: list[str], kept: list, capsys) -> None:
        """`argv` exits 2 with one error line and leaves the `kept` files as they were."""
        before = [path.read_bytes() for path in kept]
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err
        assert err.startswith("error: ") and "same file" in err and err.count("\n") == 1, err
        assert [path.read_bytes() for path in kept] == before

    def _sine_checkpoint(self, tmp_path):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([*SINE_TRAIN, "--out", str(ckpt_path)]) == 0
        return ckpt_path

    def test_train_out_and_metrics_of_one_file_is_data_error(self, tmp_path, capsys):
        ckpt_path = self._sine_checkpoint(tmp_path)
        argv = [*SINE_TRAIN, "--out", str(ckpt_path), "--metrics", str(ckpt_path)]
        self._refuses_same_file(argv, [ckpt_path], capsys)

    def test_train_curves_and_out_of_one_file_is_data_error(self, tmp_path, capsys):
        ckpt_path = self._sine_checkpoint(tmp_path)
        (tmp_path / "sub").mkdir()
        alias = tmp_path / "sub" / ".." / "ckpt.json"
        argv = [*SINE_TRAIN, "--curves", str(ckpt_path), "--out", str(alias)]
        self._refuses_same_file(argv, [ckpt_path], capsys)

    def test_eval_metrics_over_its_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt_path = self._sine_checkpoint(tmp_path)
        argv = ["eval", "--ckpt", str(ckpt_path), "--metrics", str(ckpt_path)]
        self._refuses_same_file(argv, [ckpt_path], capsys)
        assert main(["eval", "--ckpt", str(ckpt_path)]) == 0

    def test_train_out_over_its_training_split_is_data_error(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", "enc",
        ]) == 0
        argv = [
            "train", "--model", "lstm", "--task", "classify", "--epochs", "1",
            "--data", "enc/train.json", "--vocab", "enc/vocab.json", "--hidden", "2",
            "--d-basic", "2", "--out", str(tmp_path / "enc" / "train.json"),
        ]
        self._refuses_same_file(argv, sorted((tmp_path / "enc").iterdir()), capsys)

    def test_preprocess_out_existing_file_is_data_error(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")

        def no_read(*args, **kwargs):
            raise AssertionError("the output directory is made before any CSV is read")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1, err
        assert taken.read_text() == "keep\n"

    def test_preprocess_output_that_is_a_directory_writes_nothing(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        def no_read(*args, **kwargs):
            raise AssertionError("the output files are checked before any CSV is read")

        monkeypatch.setattr(cli, "load_dataset", no_read)
        for name in ("vocab", "train", "test"):
            enc_dir = tmp_path / name
            (enc_dir / f"{name}.json").mkdir(parents=True)
            capsys.readouterr()
            assert main(["preprocess", "--data-dir", str(tiny_corpus_dir),
                         "--out", str(enc_dir)]) == 2, name
            captured = capsys.readouterr()
            assert captured.out == "", name
            err = captured.err
            assert err == f"error: output path is a directory: {enc_dir / name}.json\n", err
            assert [path.name for path in enc_dir.iterdir()] == [f"{name}.json"]

    def test_vector_file_count_is_checked_before_any_is_read(
        self, monkeypatch, tiny_corpus_dir, tmp_path, capsys
    ):
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0

        def no_read(*args, **kwargs):
            raise AssertionError("a vector file was read")

        monkeypatch.setattr(cli, "load_vectors", no_read)
        common = ["train", "--model", "lstm", "--task", "classify",
                  "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                  "--epochs", "1", "--hidden", "2", "--out", str(tmp_path / "ckpt.json")]
        for mode, given in (("glove", 0), ("glove", 2), ("glove+fasttext", 1)):
            capsys.readouterr()
            vectors = ["--vectors", str(tmp_path / "v.txt")] * given
            assert main([*common, "--embedding", mode, *vectors]) == 2, (mode, given)
            err = capsys.readouterr().err
            needed = MODES[mode]
            assert err == (f"error: embedding mode {mode!r} requires {needed} vector "
                           f"table(s), got {given}\n"), err
        assert not (tmp_path / "ckpt.json").exists()

    def test_csv_field_past_the_csv_limit_is_data_error(self, tiny_corpus_dir, tmp_path, capsys):
        data_dir = tmp_path / "corpus"
        shutil.copytree(tiny_corpus_dir, data_dir)
        train_csv = data_dir / "train.csv"
        n_lines = len(train_csv.read_text().splitlines())
        long_function = "int f(void) { return " + "1 + " * 50_000 + "1; }"  # 200,000+ characters
        train_csv.write_text(train_csv.read_text() + f"{long_function},1\n")
        assert main(["preprocess", "--data-dir", str(data_dir), "--out", str(tmp_path / "enc")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{train_csv}: line {n_lines + 1}: field larger than field limit" in err, err

    def test_eval_threshold_outside_unit_interval_is_data_error(self, tiny_corpus_dir, tmp_path,
                                                               capsys):
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        ckpt_path, split = tmp_path / "ckpt.json", enc_dir / "test.json"
        assert main([
            "train", "--model", "lstm", "--task", "classify", "--epochs", "1",
            "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
            "--hidden", "2", "--d-basic", "2", "--out", str(ckpt_path),
        ]) == 0
        for threshold in ("2", "nan", "0", "1", "-0.5", "inf"):
            capsys.readouterr()
            assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(split),
                         "--threshold", threshold]) == 2
            captured = capsys.readouterr()
            assert captured.out == "", threshold
            err = captured.err
            assert err.startswith("error: ") and "threshold" in err and err.count("\n") == 1, err
        with pytest.raises(DataError, match="'threshold' must lie in"):
            evaluate(load_checkpoint(ckpt_path), load_encoded_dataset(split), threshold=2.0)

    def test_sine_eval_takes_no_threshold(self, tmp_path, capsys):
        # sine is scored by MSE, which reads no threshold: a given one is
        # refused, not dropped, as --data is
        ckpt_path = tmp_path / "ckpt.json"
        assert main([*SINE_TRAIN, "--out", str(ckpt_path)]) == 0
        for threshold in ("0.7", "2"):
            capsys.readouterr()
            assert main(["eval", "--ckpt", str(ckpt_path), "--threshold", threshold]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: eval of a sine checkpoint takes no --threshold\n"
        with pytest.raises(DataError, match="takes no threshold"):
            evaluate(load_checkpoint(ckpt_path), threshold=0.7)


def _tampered_eval(tmp_path, capsys, tamper, entries: bool = False) -> tuple[int, str]:
    """Train a small sine checkpoint, apply `tamper` to its params (the
    arrays, or with `entries` the header's array entries, the payload left
    as it is), and evaluate it with a metrics file; returns the exit code
    and stderr."""
    ckpt_path = tmp_path / "ckpt.json"
    assert main([
        "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
        "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
    ]) == 0
    if entries:
        header, payload = checkpoint_codec.unpack(ckpt_path.read_bytes())
        tamper(header["params"])
        ckpt_path.write_bytes(checkpoint_codec.pack(header, payload))
    else:
        doc = checkpoint_codec.load(ckpt_path)
        tamper(doc["params"])
        checkpoint_codec.save(ckpt_path, doc)
    capsys.readouterr()
    metrics_path = tmp_path / "metrics.json"
    code = main(["eval", "--ckpt", str(ckpt_path), "--metrics", str(metrics_path)])
    assert metrics_path.is_file() == (code == 0)
    return code, capsys.readouterr().err


# each maps an array's header entry (head_b holds 8 bytes, head_w 16) to a
# damaged one; the payload stays as it is
DAMAGED_ENTRIES = [
    ("head_b", lambda e: {**e, "dtype": ">f8"}),
    ("head_b", lambda e: {**e, "dtype": "<f4"}),
    ("head_w", lambda e: {**e, "shape": None}),
    ("head_b", lambda e: {**e, "offsets": [e["offsets"][0], e["offsets"][1] - 1]}),
    ("head_w", lambda e: {**e, "shape": [2, True]}),
    ("head_w", lambda e: {**e, "shape": [-1]}),
    ("head_w", lambda e: {**e, "shape": [1]}),
    ("head_w", lambda e: {**e, "shape": [3]}),
    ("head_w", lambda e: {**e, "shape": [2.0]}),
    ("head_w", lambda e: {**e, "shape": 2}),
    ("head_w", lambda e: {**e, "offsets": [*e["offsets"], e["offsets"][1]]}),
    ("head_w", lambda e: {**e, "offsets": [float(v) for v in e["offsets"]]}),
    ("head_w", lambda e: {**e, "offsets": [v + 8 for v in e["offsets"]]}),
    ("head_b", lambda e: {**e, "offsets": None}),
    ("head_b", lambda e: {**e, "dtype": None}),
    ("head_b", lambda e: {k: v for k, v in e.items() if k != "offsets"}),
    ("head_b", lambda e: [0.5]),
]


class TestCheckpointSchema:
    def test_missing_array_is_checkpoint_error(self, tmp_path, capsys):
        code, err = _tampered_eval(tmp_path, capsys, lambda params: params.pop("head_w"))
        assert code == 2
        assert "head_w" in err and "Traceback" not in err

    @pytest.mark.parametrize("shape", [[1, 2], [3]])
    def test_wrong_shape_is_checkpoint_error(self, shape, tmp_path, capsys):
        # [1, 2] holds the two values of a hidden-2 head_w; [3] does not
        def reshape(params):
            params["head_w"]["shape"] = shape

        code, err = _tampered_eval(tmp_path, capsys, reshape, entries=True)
        assert code == 2
        assert "head_w" in err or "reshape" in err
        assert "Traceback" not in err

    def test_non_finite_value_is_checkpoint_error(self, tmp_path, capsys):
        for bad in (float("nan"), float("inf"), -float("inf")):
            def poison(params):
                params["head_b"] = bad

            code, err = _tampered_eval(tmp_path, capsys, poison)
            assert code == 2, bad
            assert "head_b" in err and "non-finite" in err, err

    def test_overflowing_result_is_checkpoint_error(self, tmp_path, capsys):
        # finite parameters whose predictions overflow the squared error
        def inflate(params):
            params["head_b"] = 1e200

        code, err = _tampered_eval(tmp_path, capsys, inflate)
        assert code == 2
        assert "non-finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, entry", DAMAGED_ENTRIES,
        ids=[f"{name}-entry{k}" for k, (name, _) in enumerate(DAMAGED_ENTRIES)])
    def test_non_numeric_entry_is_checkpoint_error(self, name, entry, tmp_path, capsys):
        # ">f8" and "<f4" are not the one dtype, and a list is no entry; numpy
        # would take a null shape as "keep the shape" (head_w holds 2 values),
        # true as 1 and -1 as "infer it", so shapes are checked before any
        # reshape; a shape one value short or over does not fill its offsets;
        # and the offsets must be two integers that start where the last
        # array ended and span 8 bytes a value: one byte short, a third
        # number, floats and a gap of 8 bytes are refused
        code, err = _tampered_eval(tmp_path, capsys,
                                   lambda params: params.update({name: entry(params[name])}),
                                   entries=True)
        assert code == 2
        assert f"malformed parameter array {name!r}" in err and err.count("\n") == 1, err

    def test_huge_finite_payload_is_checkpoint_error(self, tmp_path, capsys):
        # a finite 1e308 in every weight overflows the forward pass, which
        # must end in one error line, not a traceback
        def inflate(params):
            for name, values in params.items():
                params[name] = np.full_like(values, 1e308)

        code, err = _tampered_eval(tmp_path, capsys, inflate)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_checkpoint_v1_is_refused_by_format(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        # the v1 layout: one JSON document, a flat list of decimal numbers per array
        doc["params"] = {name: {"shape": list(values.shape), "data": values.ravel().tolist()}
                         for name, values in doc["params"].items()}
        doc.update(format="checkpoint.v1", version=1)
        ckpt_path.write_text(json.dumps(doc))
        for command in ("eval", "census"):
            capsys.readouterr()
            assert main([command, "--ckpt", str(ckpt_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "'checkpoint.v1'" in err and "'checkpoint.v4'" in err, err

    def test_recorded_size_past_stored_arrays_is_checkpoint_error(self, tmp_path, capsys):
        # fresh parameters at d_in 10**12 would need terabytes; the size is
        # refused before any allocation
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        doc["hyperparameters"]["d_in"] = 10**12
        checkpoint_codec.save(ckpt_path, doc)
        for command in ("eval", "census"):
            capsys.readouterr()
            assert main([command, "--ckpt", str(ckpt_path)]) == 2, command
            err = capsys.readouterr().err
            assert "record more parameters" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("shape", [[3], [], [3, 2], [0, 1], [1, 1], [3, 1]])
    def test_embedding_of_wrong_shape_is_checkpoint_error(self, shape, tmp_path, capsys):
        # a sine checkpoint has no embedding, so eval refuses one; census lets
        # arrays the model does not have through to count them, but one named
        # embedding.rows must still be (n_rows, d_in), with at least the
        # padding and out-of-vocabulary rows.  The one right-shaped (3, 1)
        # table counts in full on the runtime side only: a census mismatch
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "8", "--window", "2", "--hidden", "2", "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        doc["hyperparameters"]["embedding_trainable"] = True
        doc["params"]["embedding.rows"] = np.full(shape, 0.5)
        checkpoint_codec.save(ckpt_path, doc)
        right_shaped = shape == [3, 1]
        capsys.readouterr()
        assert main(["census", "--ckpt", str(ckpt_path)]) == (3 if right_shaped else 2)
        captured = capsys.readouterr()
        if right_shaped:
            assert captured.out == "model=lstm runtime=38 analytic=35 MISMATCH\n", captured
        else:
            assert "embedding.rows" in captured.err and captured.err.count("\n") == 1, captured
        assert main(["eval", "--ckpt", str(ckpt_path)]) == 2
        err = capsys.readouterr().err
        assert "embedding.rows" in err and err.count("\n") == 1, err

    def test_sine_checkpoint_of_another_width_is_checkpoint_error(
        self, tiny_corpus_dir, tmp_path, capsys
    ):
        # a classify checkpoint relabelled as sine records d_in 6; the sine
        # table is 1 wide
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
            "--max-vocab", "30", "--out", str(enc_dir),
        ]) == 0
        ckpt_path = tmp_path / "ckpt.json"
        assert main([
            "train", "--model", "lstm", "--task", "classify", "--epochs", "1",
            "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
            "--hidden", "2", "--d-basic", "6", "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        doc["task"] = "sine"
        del doc["params"]["embedding.rows"]
        doc["hyperparameters"].update(n_points=20, window=4)
        checkpoint_codec.save(ckpt_path, doc)
        for command in ("eval", "census"):
            capsys.readouterr()
            assert main([command, "--ckpt", str(ckpt_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "d_in 6" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("model, key, value", [
        ("qlstm", "sigma_hidden", "false"),
        ("qlstm", "sigma_hidden", [0]),
        ("qlstm", "sigma_hidden", None),
        ("lstm", "embedding_trainable", "true"),
        ("lstm", "embedding_trainable", 1),
    ])
    def test_recorded_flag_that_is_not_a_boolean_is_checkpoint_error(
        self, model, key, value, tiny_corpus_dir, tmp_path, capsys
    ):
        # only classify reads the embedding's trainable flag
        ckpt_path, enc_dir = tmp_path / "ckpt.json", tmp_path / "encoded"
        if key == "embedding_trainable":
            assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                         "--max-vocab", "30", "--out", str(enc_dir)]) == 0
            task = ["--task", "classify", "--data", str(enc_dir / "train.json"),
                    "--vocab", str(enc_dir / "vocab.json"), "--d-basic", "2"]
        else:
            task = ["--task", "sine", "--n-points", "8", "--window", "2"]
        assert main([
            "train", "--model", model, *task, "--epochs", "1",
            *(["--hidden", "2"] if model == "lstm" else []), "--out", str(ckpt_path),
        ]) == 0
        doc = checkpoint_codec.load(ckpt_path)
        doc["hyperparameters"][key] = value
        checkpoint_codec.save(ckpt_path, doc)
        data = ["--data", str(enc_dir / "test.json")] if key == "embedding_trainable" else []
        for argv in (["eval", "--ckpt", str(ckpt_path), *data],
                     ["census", "--ckpt", str(ckpt_path)]):
            capsys.readouterr()
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"{key!r} must be true or false" in err and err.count("\n") == 1, err


# every (model, task) pair, and the keys a run of each task records but never reads
PAIRS = [(model, task) for model in ("lstm", "qlstm") for task in ("classify", "sine")]
WRITTEN_ONLY = {"classify": {"batch_size", "epochs", "lr", "seed", "embedding_mode"},
                "sine": {"batch_size", "epochs", "lr", "seed"}}


class TestRecordKeys:
    """`trainer._record_keys` is the one list of the settings each model and
    task read: `train` records exactly those and the keys it only writes
    down, the check requires every one of them, and any other recorded key
    is ignored."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_corpus_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("record")
        enc_dir = root / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        for model, task in PAIRS:
            inputs = (["--data", str(enc_dir / "train.json"),
                       "--vocab", str(enc_dir / "vocab.json"), "--d-basic", "2"]
                      if task == "classify" else ["--n-points", "8", "--window", "2"])
            assert main(["train", "--model", model, "--task", task, *inputs, "--epochs", "1",
                         *(["--hidden", "2"] if model == "lstm" else []),
                         "--out", str(root / f"{model}-{task}.json")]) == 0
        return root

    @staticmethod
    def _eval_and_census(trained, ckpt_path, task, capsys) -> list[tuple[int, str, str]]:
        """The exit code, stdout and stderr of `eval` and of `census`."""
        data = ["--data", str(trained / "encoded" / "test.json")] if task == "classify" else []
        results = []
        for argv in (["eval", "--ckpt", str(ckpt_path), *data],
                     ["census", "--ckpt", str(ckpt_path)]):
            capsys.readouterr()
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    @pytest.mark.parametrize("model, task", PAIRS)
    def test_train_records_the_keys_the_run_reads(self, model, task, trained):
        hp = load_checkpoint(trained / f"{model}-{task}.json").hyperparameters
        assert set(hp) == set(_record_keys(model, task)) | WRITTEN_ONLY[task]
        if task == "classify":
            # the split's max_len, not TrainConfig's default of 100
            assert hp["max_len"] == 6

    @pytest.mark.parametrize("model, task", PAIRS)
    def test_each_recorded_key_is_required(self, model, task, trained, tmp_path, capsys):
        doc = checkpoint_codec.load(trained / f"{model}-{task}.json")
        ckpt_path = tmp_path / "ckpt.json"
        for key in _record_keys(model, task):
            hp = {k: v for k, v in doc["hyperparameters"].items() if k != key}
            checkpoint_codec.save(ckpt_path, {**doc, "hyperparameters": hp})
            for code, out, err in self._eval_and_census(trained, ckpt_path, task, capsys):
                assert code == 2 and out == "", (key, err)
                assert err.startswith(f"error: checkpoint hyperparameter {key!r} must "), err
                assert err.endswith(", got None\n") and err.count("\n") == 1, err

    @pytest.mark.parametrize("model, task", PAIRS)
    def test_keys_the_run_does_not_read_are_ignored(self, model, task, trained, tmp_path, capsys):
        # every key another model or task reads, each "x"; and a sine record
        # that still holds a threshold, as sine runs once recorded
        source = trained / f"{model}-{task}.json"
        expected = self._eval_and_census(trained, source, task, capsys)
        assert [code for code, _, _ in expected] == [0, 0]
        doc = checkpoint_codec.load(source)
        reads = set(_record_keys(model, task))
        others = {key for pair in PAIRS for key in _record_keys(*pair)} - reads
        extras = [dict.fromkeys(others, "x"), *([{"threshold": 0.5}] if task == "sine" else [])]
        ckpt_path = tmp_path / "ckpt.json"
        for extra in extras:
            hp = {**doc["hyperparameters"], **extra}
            checkpoint_codec.save(ckpt_path, {**doc, "hyperparameters": hp})
            assert self._eval_and_census(trained, ckpt_path, task, capsys) == expected, extra


def _sine_embedding(doc: dict) -> None:
    doc["params"]["embedding.rows"] = np.full((3, 1), 0.5)


def _sine_trainable_embedding(doc: dict) -> None:
    _sine_embedding(doc)
    doc["hyperparameters"]["embedding_trainable"] = True


def _relabelled_without_table(doc: dict) -> None:
    doc["task"] = "sine"
    doc["hyperparameters"].update(n_points=20, window=4)
    del doc["params"]["embedding.rows"]


# name: (the checkpoint it damages, the damage); a sine checkpoint of
# SINE_TRAIN or an LSTM classify checkpoint at --max-len 6 and --d-basic 2
DAMAGED_RECORDS = {
    "sine-embedding": ("sine", _sine_embedding),
    "sine-trainable-embedding": ("sine", _sine_trainable_embedding),
    "threshold-string": ("classify", lambda doc: doc["hyperparameters"].update(threshold="x")),
    "sine-without-n-points": ("sine", lambda doc: doc["hyperparameters"].pop("n_points")),
    "sine-window-past-limit": ("sine", lambda doc: doc["hyperparameters"].update(window=10**8)),
    "max-len-zero": ("classify", lambda doc: doc["hyperparameters"].update(max_len=0)),
    "classify-relabelled-sine": ("classify", lambda doc: doc.update(task="sine")),
    "relabelled-with-sizes-without-table": ("classify", _relabelled_without_table),
}


class TestOneCheckpointCheck:
    """`census` refuses every checkpoint `eval` refuses: both run one check,
    and only an array the model does not have is a census mismatch (exit
    3) where `eval` exits 2."""

    @pytest.fixture(scope="class")
    def trained(self, tiny_corpus_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        enc_dir = root / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        assert main([*SINE_TRAIN, "--out", str(root / "sine.json")]) == 0
        assert main(["train", "--model", "lstm", "--task", "classify", "--epochs", "1",
                     "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                     "--hidden", "2", "--d-basic", "2", "--out", str(root / "classify.json")]) == 0
        return root

    @pytest.mark.parametrize("name", DAMAGED_RECORDS)
    def test_census_and_eval_refuse_a_damaged_checkpoint(self, name, trained, tmp_path, capsys):
        source, damage = DAMAGED_RECORDS[name]
        doc = checkpoint_codec.load(trained / f"{source}.json")
        damage(doc)
        ckpt_path = tmp_path / "ckpt.json"
        checkpoint_codec.save(ckpt_path, doc)
        classify = doc["task"] == "classify"
        data = ["--data", str(trained / "encoded" / "test.json")] if classify else []
        capsys.readouterr()
        code = main(["census", "--ckpt", str(ckpt_path)])
        captured = capsys.readouterr()
        if name in ("sine-embedding", "sine-trainable-embedding"):
            assert code == 3 and "MISMATCH" in captured.out, captured
        else:
            assert code == 2 and captured.out == "", captured
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured
        runs = [data, [*data, "--threshold", "0.5"]] if name == "threshold-string" else [data]
        for flags in runs:
            assert main(["eval", "--ckpt", str(ckpt_path), *flags]) == 2, flags
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), captured
            assert captured.err.count("\n") == 1, captured


class TestEvalReadsTheRecord:
    """`eval` of a classify checkpoint: the split comes from --data, the
    decision threshold from the checkpoint unless --threshold is given."""

    CLASSIFY_FIELDS = ("accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn")

    def _trained(self, corpus_dir, tmp_path, threshold: str):
        """A one-epoch LSTM checkpoint trained at `threshold`, with its
        metrics over the test split; returns (checkpoint, test split, metrics)."""
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        ckpt_path, metrics_path = tmp_path / "ckpt.json", tmp_path / "train-metrics.json"
        assert main(["train", "--model", "lstm", "--task", "classify", "--epochs", "1",
                     "--data", str(enc_dir / "train.json"), "--vocab", str(enc_dir / "vocab.json"),
                     "--eval-data", str(enc_dir / "test.json"), "--hidden", "2",
                     "--d-basic", "2", "--threshold", threshold, "--out", str(ckpt_path),
                     "--metrics", str(metrics_path)]) == 0
        return ckpt_path, enc_dir / "test.json", metrics_path

    def _eval_fields(self, ckpt_path, split, metrics_path, *flags) -> dict:
        assert main(["eval", "--ckpt", str(ckpt_path), "--data", str(split),
                     "--metrics", str(metrics_path), *flags]) == 0
        doc = load_metrics(metrics_path)
        return {key: doc[key] for key in self.CLASSIFY_FIELDS}

    def test_eval_uses_the_threshold_the_run_recorded(self, tiny_corpus_dir, tmp_path, capsys):
        ckpt_path, split, trained = self._trained(tiny_corpus_dir, tmp_path, "0.9")
        expected = {key: load_metrics(trained)[key] for key in self.CLASSIFY_FIELDS}
        assert self._eval_fields(ckpt_path, split, tmp_path / "m.json") == expected
        # --threshold overrides the record, and here it moves the counts
        at_half = self._eval_fields(ckpt_path, split, tmp_path / "m.json", "--threshold", "0.5")
        report = evaluate(load_checkpoint(ckpt_path), load_encoded_dataset(split), 0.5)
        cm = report.confusion
        assert at_half == {"accuracy": report.accuracy, "precision": report.precision,
                           "recall": report.recall, "f1": report.f1,
                           "tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn}
        assert at_half != expected

    def test_recorded_threshold_is_checked(self, tiny_corpus_dir, tmp_path, capsys):
        ckpt_path, split, _ = self._trained(tiny_corpus_dir, tmp_path, "0.5")
        doc = checkpoint_codec.load(ckpt_path)
        for value in ("x", True, 1.5):
            doc["hyperparameters"]["threshold"] = value
            checkpoint_codec.save(ckpt_path, doc)
            for argv in (["eval", "--ckpt", str(ckpt_path), "--data", str(split)],
                         ["census", "--ckpt", str(ckpt_path)]):
                capsys.readouterr()
                assert main(argv) == 2, (argv[0], value)
                captured = capsys.readouterr()
                assert captured.out == "", (argv[0], value)
                assert captured.err == ("error: checkpoint hyperparameter 'threshold' must lie "
                                        f"in (0, 1), got {value!r}\n"), captured.err

    def test_classify_eval_requires_data(self, tiny_corpus_dir, tmp_path, capsys):
        ckpt_path, _, _ = self._trained(tiny_corpus_dir, tmp_path, "0.5")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eval of a classify checkpoint requires --data\n"


class TestSineCommands:
    def test_train_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "2",
            "--n-points", "12", "--window", "2", "--hidden", "3", "--seed", "7",
            "--out", str(ckpt_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "task=sine" in out and "mse=" in out
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.model == "lstm" and ckpt.task == "sine"
        doc = load_metrics(metrics_path)
        assert "mse" in doc and len(doc["loss_curve"]) == 2

    def test_sine_demo_prints_epoch_mses(self, tmp_path, capsys):
        curves_path = tmp_path / "curves.txt"
        code = main([
            "sine-demo", "--model", "lstm", "--epochs", "3", "--seed", "3",
            "--curves", str(curves_path),
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("model=")]
        assert len(lines) == 2
        assert lines[0].startswith("model=lstm epoch=1 mse=")
        assert lines[1].startswith("model=lstm epoch=3 mse=")
        blocks = load_curves(curves_path)
        assert set(blocks) == {1, 3}
        for _, (x, actual, predicted) in blocks.items():
            assert x.shape == actual.shape == predicted.shape == (100,)

    def test_eval_regenerates_sine_data(self, tmp_path, capsys):
        ckpt_path = tmp_path / "ckpt.json"
        main([
            "train", "--model", "lstm", "--task", "sine", "--epochs", "1",
            "--n-points", "10", "--window", "2", "--hidden", "2",
            "--out", str(ckpt_path),
        ])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt_path)]) == 0
        assert capsys.readouterr().out.startswith("mse=")


class TestGradcheckCommand:
    def test_small_run_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        for suite in ("vqc", "lstm", "qlstm"):
            assert suite in out

    def test_run_gradcheck_reports_suites(self):
        worst = run_gradcheck(seed=9, trials=1)
        assert set(worst) == {"vqc", "lstm", "qlstm"}
        for value in worst.values():
            assert np.isfinite(value)


class TestClassifyClosure:
    def test_preprocess_train_eval_round_trip(self, tiny_corpus_dir, tmp_path, capsys):
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(tiny_corpus_dir),
            "--max-len", "8", "--max-vocab", "50", "--seed", "11",
            "--out", str(enc_dir),
        ]) == 0

        vocab = load_vocab_file(enc_dir / "vocab.json")
        assert vocab.tokens
        splits = {}
        for split in ("train", "validation", "test"):
            splits[split] = load_encoded_dataset(enc_dir / f"{split}.json")
            assert splits[split].vocab_digest == vocab.digest()
            assert splits[split].max_len == 8
        labels = splits["train"].labels
        assert int(labels.sum()) * 2 == len(labels)  # balanced

        ckpt_path = tmp_path / "ckpt.json"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "train", "--model", "lstm", "--task", "classify",
            "--data", str(enc_dir / "train.json"),
            "--eval-data", str(enc_dir / "validation.json"),
            "--vocab", str(enc_dir / "vocab.json"),
            "--epochs", "2", "--hidden", "4", "--d-basic", "4", "--seed", "11",
            "--out", str(ckpt_path), "--metrics", str(metrics_path),
        ])
        assert code == 0
        assert "task=classify" in capsys.readouterr().out

        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.vocab_digest == vocab.digest()
        doc = load_metrics(metrics_path)
        assert set(("accuracy", "precision", "recall", "f1", "tp")) <= set(doc)

        eval_metrics = tmp_path / "eval_metrics.json"
        assert main([
            "eval", "--ckpt", str(ckpt_path), "--data", str(enc_dir / "test.json"),
            "--metrics", str(eval_metrics),
        ]) == 0
        assert capsys.readouterr().out.startswith("accuracy=")
        assert "accuracy" in load_metrics(eval_metrics)

        assert main(["census", "--ckpt", str(ckpt_path)]) == 0

    @pytest.mark.parametrize("model", ["lstm", "qlstm"])
    def test_frozen_table_trains_end_to_end(self, model, monkeypatch, tiny_corpus_dir, tmp_path,
                                            capsys):
        # each vector mode reads one vector file per table, so the table is
        # frozen: it stays outside the vector Adam updates and is stored as
        # it was built
        enc_dir = tmp_path / "encoded"
        assert main(["preprocess", "--data-dir", str(tiny_corpus_dir), "--max-len", "6",
                     "--max-vocab", "30", "--out", str(enc_dir)]) == 0
        tokens = load_vocab_file(enc_dir / "vocab.json").tokens
        rng = np.random.default_rng(17)
        built = []

        def recording(*args, **kwargs):
            matrix = build_embedding_matrix(*args, **kwargs)
            built.append(matrix.rows.copy())
            return matrix

        monkeypatch.setattr(cli, "build_embedding_matrix", recording)
        for mode, widths in (("glove", [3]), ("fasttext", [2]), ("glove+fasttext", [3, 2])):
            vectors = []
            for k, width in enumerate(widths):
                path = tmp_path / f"{mode}-{k}.txt"
                # every other token has a vector; the rest share the OOV row
                path.write_text("".join(
                    " ".join([token, *map(repr, rng.normal(size=width).tolist())]) + "\n"
                    for token in tokens[k::2]))
                vectors += ["--vectors", str(path)]
            ckpt_path, metrics_path = tmp_path / f"{mode}.json", tmp_path / f"{mode}-metrics.json"
            built.clear()
            assert main([
                "train", "--model", model, "--task", "classify",
                "--data", str(enc_dir / "train.json"),
                "--eval-data", str(enc_dir / "validation.json"),
                "--vocab", str(enc_dir / "vocab.json"), "--embedding", mode, *vectors,
                "--epochs", "1", *(["--hidden", "3"] if model == "lstm" else []),
                "--out", str(ckpt_path), "--metrics", str(metrics_path),
            ]) == 0, mode
            doc = load_metrics(metrics_path)
            assert len(doc["loss_curve"]) == 1
            assert all(np.isfinite(doc[key]) for key in ("accuracy", "precision", "recall", "f1"))
            assert np.all(np.isfinite(doc["loss_curve"]))
            ckpt = load_checkpoint(ckpt_path)
            assert ckpt.hyperparameters["embedding_trainable"] is False
            assert len(built) == 1 and built[0].shape == (len(tokens) + 2, sum(widths))
            assert ckpt.arrays["embedding.rows"].tobytes() == built[0].tobytes()
            capsys.readouterr()
            assert main(["census", "--ckpt", str(ckpt_path)]) == 0
            assert capsys.readouterr().out.rstrip().endswith(" ok")

    def test_empty_split_round_trips(self, tiny_corpus_dir, tmp_path):
        data_dir = tmp_path / "csv"
        shutil.copytree(tiny_corpus_dir, data_dir)
        (data_dir / "validation.csv").write_text("code,label\n", encoding="utf-8")
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(data_dir), "--no-balance", "--max-len", "12",
            "--out", str(enc_dir),
        ]) == 0
        doc = json.loads((enc_dir / "validation.json").read_text())
        assert doc["sequences"] == {"shape": [0, 12], "dtype": "<u2", "data": ""}
        assert doc["labels"] == {"shape": [0], "dtype": "|u1", "data": ""}
        split = load_encoded_dataset(enc_dir / "validation.json")
        assert split.sequences.shape == (0, 12) and split.sequences.dtype == np.int64
        assert split.labels.shape == (0,) and split.max_len == 12

    def test_preprocess_files_are_pinned(self, corpus_dir, tmp_path):
        # `vocab.json` and the decoded arrays are what the character-loop
        # tokenizer wrote for this corpus (the arrays were then decimal
        # `encoded.v1` lists); the split files are pinned as `encoded.v3`
        enc_dir = tmp_path / "encoded"
        assert main([
            "preprocess", "--data-dir", str(corpus_dir), "--max-len", "24",
            "--max-vocab", "200", "--seed", "7", "--out", str(enc_dir),
        ]) == 0
        digests = {
            name: hashlib.sha256((enc_dir / name).read_bytes()).hexdigest()
            for name in ("vocab.json", "train.json", "validation.json", "test.json")
        }
        assert digests == {
            "vocab.json": "7604990349b5084c6f18f8aa6cb06f780e206bafcedc0f9857ba0c8c57544e71",
            "train.json": "d77033e6a151efe9565fd6ae6b109459a61135890dd0adff2550f75a7695172f",
            "validation.json": "ff075dc1d8b37a7f7075395ebcd52285a118cb6518948347b375c6abb65f7eb7",
            "test.json": "d4bf8a6160eb8be8ab53ab129fd6a3f0a33c3edbea8563b8359506a7b370f52f",
        }
        arrays = {}
        for split in ("train", "validation", "test"):
            data = load_encoded_dataset(enc_dir / f"{split}.json")
            assert data.sequences.dtype == data.labels.dtype == np.int64
            arrays[split] = tuple(
                hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest()
                for arr in (data.sequences, data.labels)
            ) + (data.sequences.shape,)
        assert arrays == {
            "train": ("43e070ad70526c5eca74192acbcb359f99982014d1cc48cde55f7503856cc5f3",
                      "91dc936e9c0c8b5d0e3547e3d5effb46fb88310542290bc9f72533bde49a5753",
                      (200, 24)),
            "validation": ("2e9ff273dc6426310352d4682bb1655ba557918e825f34a63ecd3cf0bb1046b2",
                           "944188a8d6682eae7d96e1fa66f7b11d918650e0126d67527c207483c916dda6",
                           (50, 24)),
            "test": ("da7c16dc6c572dd192609c59f7f35405f57a73dee43fc419dedfa2105e9733a6",
                     "c8f5d0bf6c44d69cf3adb4536b04501951c02b8662892f8306c099f7228e67d3",
                     (50, 24)),
        }

    def test_identical_argv_identical_outputs(self, tiny_corpus_dir, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            enc_dir = tmp_path / f"enc_{tag}"
            main([
                "preprocess", "--data-dir", str(tiny_corpus_dir),
                "--max-len", "6", "--max-vocab", "30", "--seed", "5",
                "--out", str(enc_dir),
            ])
            ckpt_path = tmp_path / f"ckpt_{tag}.json"
            main([
                "train", "--model", "lstm", "--task", "classify",
                "--data", str(enc_dir / "train.json"),
                "--vocab", str(enc_dir / "vocab.json"),
                "--epochs", "1", "--hidden", "3", "--d-basic", "3", "--seed", "5",
                "--out", str(ckpt_path),
            ])
            outputs.append((
                (enc_dir / "vocab.json").read_bytes(),
                (enc_dir / "train.json").read_bytes(),
                ckpt_path.read_bytes(),
            ))
        capsys.readouterr()
        assert outputs[0] == outputs[1]
