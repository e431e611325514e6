"""Training loops, metrics, parameter census, and checkpoint/report
persistence."""
from __future__ import annotations

import json
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import qvuln.trainer
import checkpoint_codec
from qvuln.corpus import PAD_INDEX, Vocabulary
from qvuln.embedding import build_embedding_matrix
from qvuln.errors import DataError, DivergenceError
from qvuln.neural import init_lstm_params
from qvuln.qlstm import init_qlstm_params
from qvuln.trainer import (
    Checkpoint,
    ClassifyDataset,
    ConfusionMatrix,
    TrainConfig,
    census,
    embedding_census,
    evaluate,
    load_checkpoint,
    load_curves,
    load_metrics,
    lstm_census,
    metrics,
    predictions_over,
    qlstm_census,
    runtime_census,
    save_checkpoint,
    save_curves,
    save_metrics,
    sine_task,
    train,
    _embedding_gradient,
)


def brute_metrics(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total > 0 else 0.0
    return accuracy, precision, recall, f1


def tiny_classify_dataset(n_per_class: int = 5, max_len: int = 3) -> tuple[Vocabulary, ClassifyDataset]:
    vocab = Vocabulary(tokens=["hot", "cold"])
    rows = []
    labels = []
    for _ in range(n_per_class):
        rows.append([2, 2, 0][:max_len])
        labels.append(1)
        rows.append([3, 3, 0][:max_len])
        labels.append(0)
    return vocab, ClassifyDataset(
        sequences=np.array(rows, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        max_len=max_len,
        vocab_digest=vocab.digest(),
    )


class TestMetrics:
    def test_textbook_example(self):
        report = metrics(ConfusionMatrix(tp=9, fp=1, tn=8, fn=2))
        assert report.precision == 0.9
        assert abs(report.recall - 9 / 11) < 1e-15
        assert report.accuracy == 0.85
        assert abs(report.f1 - 6 / 7) < 1e-15
        assert report.warnings == []

    def test_degenerate_denominators(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, tn=10, fn=0))
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.accuracy == 1.0
        assert "precision" in report.warnings
        assert "recall" in report.warnings

    def test_exhaustive_against_brute_force(self):
        for tp in range(6):
            for fp in range(6):
                for tn in range(6):
                    for fn in range(6):
                        report = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
                        accuracy, precision, recall, f1 = brute_metrics(tp, fp, tn, fn)
                        assert report.accuracy == accuracy
                        assert report.precision == precision
                        assert report.recall == recall
                        assert report.f1 == f1

    def test_total(self):
        assert ConfusionMatrix(tp=1, fp=2, tn=3, fn=4).total == 10


class TestSineTask:
    def test_quarter_period_values(self):
        data = sine_task(n_points=4, window=1)
        np.testing.assert_allclose(data.targets, [0.0, 1.0, 0.0, -1.0], atol=1e-12)
        # input of sample j is the previous point, wrapping at the start
        assert data.sequences.tolist() == [[3], [0], [1], [2]]
        np.testing.assert_allclose(data.table[data.sequences][:, 0, 0], [-1.0, 0.0, 1.0, 0.0],
                                   atol=1e-12)
        assert data.table.shape == (4, 1)

    def test_targets_bounded(self):
        data = sine_task(n_points=50, window=5)
        assert np.all(np.abs(data.targets) <= 1.0)

    def test_reproducible(self):
        a = sine_task(100, 4)
        b = sine_task(100, 4)
        assert np.array_equal(a.sequences, b.sequences)
        assert np.array_equal(a.table, b.table)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.xs, b.xs)

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            sine_task(4, 4)
        with pytest.raises(DataError):
            sine_task(10, 0)
        # each size passes its own rule first: a float or a bool is no size
        for n_points, window in ((2.5, 1), (8, True)):
            with pytest.raises(DataError, match="must be a positive integer"):
                sine_task(n_points, window)
        # refused before any allocation: these would need terabytes
        for n_points, window in ((10**12, 4), (10**6, 10**6 - 1)):
            with pytest.raises(DataError, match="input values"):
                sine_task(n_points, window)

    @pytest.mark.parametrize("n_points, window", [(2, 1), (9, 8), (100, 4), (37, 5)])
    def test_windows_match_point_loop(self, n_points, window):
        data = sine_task(n_points, window)
        inputs = data.table[data.sequences]
        for j in range(n_points):
            expected = data.targets[np.arange(j - window, j) % n_points]
            assert inputs[j, :, 0].tobytes() == expected.tobytes()
        assert inputs.shape == (n_points, window, 1)


class TestTrainConfig:
    def test_task_defaults(self):
        sine = TrainConfig(model="qlstm", task="sine")
        assert sine.epochs == 30 and sine.lr == 1e-2
        classify = TrainConfig(model="lstm", task="classify")
        assert classify.epochs == 10 and classify.lr == 1e-3

    def test_validation(self):
        with pytest.raises(DataError):
            TrainConfig(model="gru", task="sine")
        with pytest.raises(DataError):
            TrainConfig(model="lstm", task="regress")
        with pytest.raises(DataError):
            TrainConfig(model="lstm", task="sine", epochs=0)
        with pytest.raises(DataError):
            TrainConfig(model="lstm", task="sine", batch_size=0)
        with pytest.raises(DataError):
            TrainConfig(model="lstm", task="sine", threshold=1.0)
        # past the range, or of a type train cannot use (a bool is no number)
        for bad in (dict(hidden=0), dict(d_basic=0), dict(lr=-1e-3), dict(lr=math.nan),
                    dict(lr=math.inf), dict(seed=-1), dict(sigma_hidden=1), dict(epochs=2.5),
                    dict(batch_size=2.5), dict(seed=1.5), dict(hidden=2.5), dict(lr="0.1"),
                    dict(epochs=True), dict(max_len=0)):
            with pytest.raises(DataError):
                TrainConfig(model="lstm", task="sine", **bad)
        assert TrainConfig(model="lstm", task="sine", lr=0.0).lr == 0.0


class TestTrain:
    def test_zero_lr_is_a_no_op(self):
        data = sine_task(n_points=12, window=2)
        config = dict(model="lstm", task="sine", lr=0.0, batch_size=1000, seed=3, hidden=4)
        one, report_one = train(TrainConfig(epochs=1, **config), data)
        five, report_five = train(TrainConfig(epochs=5, **config), data)
        for name, arr in one.arrays.items():
            np.testing.assert_array_equal(arr, five.arrays[name])
        assert len(report_five.loss_curve) == 5
        # per-epoch means differ only by shuffled summation order
        first = report_five.loss_curve[0]
        assert all(math.isclose(v, first, rel_tol=1e-12) for v in report_five.loss_curve)
        assert report_one.loss_curve[0] == first

    def test_loss_curve_deterministic(self):
        data = sine_task(n_points=16, window=2)
        config = TrainConfig(model="qlstm", task="sine", epochs=2, seed=11, batch_size=4)
        _, first = train(config, data)
        _, second = train(TrainConfig(model="qlstm", task="sine", epochs=2, seed=11, batch_size=4), data)
        assert first.loss_curve == second.loss_curve

    def test_divergence_guard(self):
        data = sine_task(n_points=12, window=2)
        config = TrainConfig(model="lstm", task="sine", epochs=10, lr=1e160, seed=1, hidden=4)
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            train(config, data)

    def test_classify_training_moves_loss(self):
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=5, d_basic=4)
        config = TrainConfig(
            model="lstm", task="classify", epochs=8, batch_size=4, seed=5, hidden=6, lr=0.05
        )
        ckpt, report = train(config, data, matrix=matrix, vocab_digest=data.vocab_digest)
        assert report.loss_curve[-1] < report.loss_curve[0]
        assert "embedding.rows" in ckpt.arrays
        assert ckpt.vocab_digest == data.vocab_digest
        assert report.accuracy == 1.0
        # padding row stays pinned through trainable-embedding updates
        np.testing.assert_array_equal(ckpt.arrays["embedding.rows"][0], np.zeros(4))

    def test_training_leaves_the_callers_embedding_alone(self, tmp_path):
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=5, d_basic=4)
        rows = matrix.rows.copy()
        config = TrainConfig(model="lstm", task="classify", epochs=2, batch_size=4, seed=5,
                             hidden=3, lr=0.05)
        first, first_report = train(config, data, matrix=matrix)
        kept = first.arrays["embedding.rows"].copy()
        assert not np.array_equal(kept, rows)
        second, second_report = train(config, data, matrix=matrix)
        assert matrix.rows.tobytes() == rows.tobytes()
        assert first.arrays["embedding.rows"].tobytes() == kept.tobytes()
        assert first_report.loss_curve == second_report.loss_curve
        save_checkpoint(first, tmp_path / "first.json")
        save_checkpoint(second, tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    @pytest.mark.parametrize("model", ["lstm", "qlstm"])
    def test_training_forward_reads_the_trained_table(self, model, tmp_path):
        # the table Adam trains is a view of theta; a forward that read the
        # copy made before the layout would give the last epoch's curve
        # other probabilities than the checkpoint gives
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=5, d_basic=4)
        config = TrainConfig(model=model, task="classify", epochs=2, batch_size=4, seed=5,
                             hidden=3, lr=0.05)
        ckpt, report = train(config, data, matrix=matrix, curves_path=tmp_path / "curves.txt")
        assert not np.array_equal(ckpt.arrays["embedding.rows"], matrix.rows)
        _, _, last = load_curves(tmp_path / "curves.txt")[2]
        assert last.tobytes() == report.predictions.tobytes()

    @pytest.mark.parametrize("model", ["lstm", "qlstm"])
    def test_adam_state_is_freed_before_the_closing_evaluate(self, model, monkeypatch):
        # the checkpoint's arrays are views of theta, so Adam's rows must be
        # an allocation of their own, freed with the optimizer
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=5, d_basic=4)
        adam, evaluate = qvuln.trainer.adam_step, qvuln.trainer.evaluate
        rows, alive_at_evaluate = [], []

        def spy(opt, theta, grad):
            rows.append(weakref.ref(opt.rows))
            return adam(opt, theta, grad)

        def checked(*args, **kwargs):
            alive_at_evaluate.extend(ref() is not None for ref in rows)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(qvuln.trainer, "adam_step", spy)
        monkeypatch.setattr(qvuln.trainer, "evaluate", checked)
        config = TrainConfig(model=model, task="classify", epochs=2, batch_size=4, seed=5,
                             hidden=3, lr=0.05)
        ckpt, _ = train(config, data, matrix=matrix)
        # 10 samples in batches of 4: three optimizer steps an epoch
        assert len(rows) == 6
        assert alive_at_evaluate == [False] * 6
        assert all(ref() is None for ref in rows)
        assert ckpt.arrays["embedding.rows"].shape == matrix.rows.shape

    def test_embedding_gradient_equals_add_at_over_rows(self):
        # repeated rows and padding tokens, with terms from 1e-8 to 1e8 so
        # that another summation order shows in the bits
        rng = np.random.default_rng(8)
        sequences = rng.integers(0, 6, size=(5, 7))
        sequences[:, -2:] = PAD_INDEX
        dx = rng.normal(size=(5, 7, 3)) * 10.0 ** rng.uniform(-8, 8, size=(5, 7, 3))
        want = np.zeros((9, 3))
        np.add.at(want, sequences, dx)
        want[PAD_INDEX] = 0.0
        got = _embedding_gradient(sequences, dx, (9, 3))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flaw", ["max_len", "kind", "index"])
    def test_bad_eval_split_refused_before_any_forward_call(self, flaw, monkeypatch):
        vocab, data = tiny_classify_dataset()
        _, eval_data = tiny_classify_dataset()
        if flaw == "max_len":
            _, eval_data = tiny_classify_dataset(max_len=2)
        elif flaw == "kind":
            eval_data = sine_task(10, 3)
        else:
            eval_data.sequences[-1, -1] = len(vocab.tokens) + 2
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            raise AssertionError("a forward call ran")

        monkeypatch.setattr(qvuln.trainer, "lstm_forward", counted)
        matrix = build_embedding_matrix(vocab, [], "basic", seed=0, d_basic=2)
        config = TrainConfig(model="lstm", task="classify", epochs=1, hidden=2)
        with pytest.raises(DataError, match={"max_len": "max_len mismatch",
                                             "kind": "ClassifyDataset", "index": "outside"}[flaw]):
            train(config, data, matrix=matrix, eval_data=eval_data)
        assert calls == []

    def test_split_of_the_other_task_or_embedding_refused(self):
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=0, d_basic=2)
        with pytest.raises(DataError, match="SineDataset"):
            train(TrainConfig(model="lstm", task="sine", hidden=2), data)
        with pytest.raises(DataError, match="takes no embedding"):
            train(TrainConfig(model="lstm", task="sine", hidden=2), sine_task(10, 2), matrix=matrix)
        with pytest.raises(DataError, match="outside the 10-row sine table"):
            bad = sine_task(10, 2)
            bad.sequences[0, 0] = 10
            train(TrainConfig(model="lstm", task="sine", hidden=2), bad)

    @pytest.mark.parametrize("model", ["lstm", "qlstm"])
    def test_input_the_checkpoint_check_would_refuse_is_refused_before_any_epoch(
            self, model, monkeypatch):
        # each of these once trained every epoch and then failed as a
        # divergence in the closing evaluation, or failed with a traceback
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward call ran")

        monkeypatch.setattr(qvuln.trainer, f"{model}_forward", no_forward)
        sine = sine_task(10, 4)
        three_windows = replace(sine, sequences=sine.sequences[:3], targets=sine.targets[:3],
                                xs=sine.xs[:3])
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=0, d_basic=2)
        nan_rows = matrix.rows.copy()
        nan_rows[1, 0] = np.nan  # the out-of-vocabulary row, which no sample reads
        cases = [
            (three_windows, None, "need n_points > window, got n_points=3 window=4"),
            (replace(sine, table=np.hstack([sine.table] * 2)), None,
             "the sine table must be 1 column wide, got 2"),
            (replace(sine, table=sine.table[:, :0]), None,
             "the sine table must be 1 column wide, got 0"),
            (data, replace(matrix, rows=matrix.rows[:, :0]),
             "'d_in' must be a positive integer, got 0"),
            (replace(data, sequences=np.zeros_like(data.sequences)),
             replace(matrix, rows=matrix.rows[:1]),
             "the 1-row vocabulary lacks the padding and unknown rows"),
            (data, replace(matrix, rows=nan_rows, trainable=False),
             "the vocabulary holds non-finite values"),
            (data, replace(matrix, trainable=1),
             "'embedding_trainable' must be true or false, got 1"),
        ]
        for split, table, message in cases:
            config = TrainConfig(model=model, task="sine" if table is None else "classify",
                                 epochs=1, **({"hidden": 2} if model == "lstm" else {}))
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                train(config, split, matrix=table)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            train(
                TrainConfig(model="lstm", task="classify", hidden=2),
                ClassifyDataset(
                    sequences=np.zeros((0, 3), dtype=np.int64),
                    labels=np.zeros(0, dtype=np.int64),
                    max_len=3,
                    vocab_digest="",
                ),
                matrix=build_embedding_matrix(Vocabulary(tokens=["a"]), [], "basic", seed=0, d_basic=2),
            )


class TestCensus:
    def test_lstm_formula_matches_runtime(self):
        for hidden, d_in in ((3, 2), (6, 50)):
            params = init_lstm_params(hidden, d_in, np.random.default_rng(0))
            assert runtime_census(params.tree(), False) == lstm_census(hidden, d_in)
        assert lstm_census(6, 50) == 4 * (6 * 56 + 6) + 6 + 1

    def test_qlstm_formula_matches_runtime(self):
        for d_x in (1, 4, 50):
            params = init_qlstm_params(d_x, np.random.default_rng(0))
            assert runtime_census(params.tree(), False) == qlstm_census(d_x)
        assert qlstm_census(1) == 4 * (4 * 5 + 30) + 2 * (4 * 4 + 30) + 5

    def test_embedding_census_skips_padding_row(self):
        assert embedding_census(102, 50) == 101 * 50
        rows = np.zeros((10, 3))
        arrays = {"embedding.rows": rows, "w": np.zeros(7)}
        assert runtime_census(arrays, True) == 9 * 3 + 7
        assert runtime_census(arrays, False) == 7

    def test_analytic_matches_trained_checkpoints(self, tmp_path):
        vocab, data = tiny_classify_dataset()
        matrix = build_embedding_matrix(vocab, [], "basic", seed=2, d_basic=3)
        ckpt, report = train(
            TrainConfig(model="lstm", task="classify", epochs=1, seed=2, hidden=3),
            data, matrix=matrix, vocab_digest=data.vocab_digest,
        )
        assert census(ckpt) == (report.parameter_count, report.parameter_count)
        sine_ckpt, sine_report = train(
            TrainConfig(model="qlstm", task="sine", epochs=1, seed=2, batch_size=8),
            sine_task(10, 2),
        )
        assert census(sine_ckpt) == (sine_report.parameter_count, qlstm_census(1))
        assert sine_report.parameter_count == qlstm_census(1)


class TestCheckpointFiles:
    def make_checkpoint(self) -> Checkpoint:
        rng = np.random.default_rng(8)
        return Checkpoint(
            model="lstm",
            task="sine",
            hyperparameters={"hidden": 2, "d_in": 1, "lr": 0.01},
            vocab_digest=None,
            arrays={
                "w": rng.uniform(-1, 1, size=(2, 3)),
                "b": rng.uniform(-1, 1, size=2),
                "scalar": np.array(math.pi),
            },
        )

    def test_round_trip_bitwise(self, tmp_path):
        ckpt = self.make_checkpoint()
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        assert again.model == ckpt.model
        assert again.task == ckpt.task
        assert again.hyperparameters == ckpt.hyperparameters
        for name, arr in ckpt.arrays.items():
            assert again.arrays[name].shape == arr.shape
            assert np.array_equal(again.arrays[name], arr)

    def test_save_is_byte_stable(self, tmp_path):
        ckpt = self.make_checkpoint()
        save_checkpoint(ckpt, tmp_path / "a.json")
        save_checkpoint(ckpt, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_tampered_format_rejected(self, tmp_path):
        # the format tag is the one version mark, and a header holds it once
        path = tmp_path / "model.json"
        save_checkpoint(self.make_checkpoint(), path)
        header, payload = checkpoint_codec.unpack(path.read_bytes())
        assert header["format"] == "checkpoint.v4" and "version" not in header
        path.write_bytes(checkpoint_codec.pack({**header, "format": "checkpoint.v99"}, payload))
        message = f"{path}: unsupported format 'checkpoint.v99', expected 'checkpoint.v4'"
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(path)
        twice = b'{"format": "checkpoint.v4", ' + json.dumps(header).encode()[1:]
        path.write_bytes(len(twice).to_bytes(8, "little") + twice + payload)
        message = f"{path}: not valid JSON: key 'format' appears twice in one object"
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(path)

    def test_missing_and_malformed(self, tmp_path):
        absent = tmp_path / "absent.json"
        with pytest.raises(DataError, match=re.escape(f"checkpoint not found: {absent}")):
            load_checkpoint(absent)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match=re.escape(f"{bad}: not valid JSON: ")):
            load_checkpoint(bad)
        save_checkpoint(self.make_checkpoint(), bad)
        valid, payload = checkpoint_codec.unpack(bad.read_bytes())
        no_shape = checkpoint_codec.unpack(bad.read_bytes())[0]
        del no_shape["params"]["w"]["shape"]
        no_offsets = checkpoint_codec.unpack(bad.read_bytes())[0]
        del no_offsets["params"]["w"]["offsets"]
        malformed = f"{bad}: malformed parameter array 'w': "
        for header, message in (
            ([valid], f"{bad}: not a JSON object"),
            ({**valid, "params": []}, f"{bad}: params must be a JSON object"),
            ({**valid, "hyperparameters": []}, f"{bad}: hyperparameters must be a JSON object"),
            ({**valid, "params": {**valid["params"], "w": [1.0]}},
             f"{malformed}not a JSON object"),
            (no_shape, f"{malformed}shape must be a list of non-negative integers, got None"),
            (no_offsets, f"{malformed}offsets must be [24, 72], got None"),
        ):
            bad.write_bytes(checkpoint_codec.pack(header, payload))
            with pytest.raises(DataError, match=re.escape(message)):
                load_checkpoint(bad)

    def test_round_trip_bitwise_for_edge_arrays(self, tmp_path):
        rng = np.random.default_rng(9)
        arrays = {
            "scalar": np.array(-0.0),
            "empty": np.zeros((0, 3)),
            "fortran": np.asfortranarray(rng.uniform(-1, 1, size=(3, 4))),
            "signs": np.array([-0.0, 0.0, -1.5]),
            "subnormal": np.array([5e-324, -2.2250738585072e-310, np.nextafter(0.0, 1.0)]),
            "big_endian": rng.uniform(-1, 1, size=5).astype(">f8"),
        }
        ckpt = Checkpoint(model="lstm", task="sine", hyperparameters={},
                          vocab_digest=None, arrays=arrays)
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        # the stored bytes are the little-endian float64 bytes in C order, laid
        # out byte for byte as the independent codec lays them out
        doc = checkpoint_codec.load(path)
        for name, arr in arrays.items():
            assert doc["params"][name].shape == arr.shape, name
            assert doc["params"][name].tobytes() == arr.astype("<f8").tobytes(order="C"), name
        checkpoint_codec.save(tmp_path / "codec.json", {**doc, "params": arrays})
        assert (tmp_path / "codec.json").read_bytes() == path.read_bytes()
        again = load_checkpoint(path).arrays
        for name, arr in arrays.items():
            got = again[name]
            assert got.shape == arr.shape, name
            assert got.dtype == np.dtype(float) and got.dtype.isnative, name
            assert got.flags.writeable and got.flags.c_contiguous, name
            assert got.astype(float).tobytes() == arr.astype(float).tobytes(), name
        assert math.copysign(1.0, float(again["scalar"])) == -1.0

    def test_save_refuses_non_finite_and_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(self.make_checkpoint(), path)
        before = path.read_bytes()
        for bad in (np.nan, np.inf, -np.inf):
            ckpt = self.make_checkpoint()
            ckpt.arrays["b"][1] = bad
            with pytest.raises(ValueError, match="'b'"):
                save_checkpoint(ckpt, path)
            assert path.read_bytes() == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestEvaluate:
    def perfect_checkpoint(self) -> tuple[Checkpoint, ClassifyDataset]:
        _, data = tiny_classify_dataset(n_per_class=10, max_len=1)
        hidden = 1
        arrays = {
            "w_f": np.zeros((hidden, 2)),
            "w_i": np.zeros((hidden, 2)),
            "w_c": np.array([[0.0, 1.0]]),
            "w_o": np.zeros((hidden, 2)),
            "b_f": np.zeros(hidden),
            "b_i": np.array([20.0]),
            "b_c": np.zeros(hidden),
            "b_o": np.array([20.0]),
            "head_w": np.array([10.0]),
            "head_b": np.array(0.0),
            "embedding.rows": np.array([[0.0], [0.0], [10.0], [-10.0]]),
        }
        ckpt = Checkpoint(
            model="lstm",
            task="classify",
            hyperparameters={
                "hidden": hidden, "d_in": 1, "max_len": 1, "threshold": 0.5,
                "embedding_mode": "basic", "embedding_trainable": True,
            },
            vocab_digest=data.vocab_digest,
            arrays=arrays,
        )
        return ckpt, data

    def test_perfect_predictor(self):
        ckpt, data = self.perfect_checkpoint()
        report = evaluate(ckpt, data)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.confusion.total == 20

    def test_constant_half_predictor_threshold_rule(self):
        ckpt, data = self.perfect_checkpoint()
        for name in ("w_c", "b_i", "b_o", "head_w"):
            ckpt.arrays[name] = np.zeros_like(ckpt.arrays[name])
        # 12 positives, 8 negatives; probability is exactly 0.5 everywhere
        data.labels[:] = 0
        data.labels[:12] = 1
        report = evaluate(ckpt, data, threshold=0.5)
        assert report.recall == 1.0
        assert report.accuracy == 0.6
        assert report.confusion.fp == 8 and report.confusion.fn == 0

    def test_recorded_threshold_is_the_default(self):
        ckpt, data = self.perfect_checkpoint()
        for name in ("w_c", "b_i", "b_o", "head_w"):
            ckpt.arrays[name] = np.zeros_like(ckpt.arrays[name])
        # probability 0.5 everywhere: predicted 1 at a threshold of 0.5, 0 at 0.6
        hp = ckpt.hyperparameters
        assert hp["threshold"] == 0.5 and evaluate(ckpt, data).confusion.fn == 0
        hp["threshold"] = 0.6
        assert evaluate(ckpt, data).confusion.tp == 0
        assert evaluate(ckpt, data, 0.5).confusion.fn == 0
        for value in ("x", True, 1.5, 0, 1, float("nan"), float("inf"), None):
            hp["threshold"] = value
            with pytest.raises(DataError,
                               match="^checkpoint hyperparameter 'threshold' must lie in"):
                evaluate(ckpt, data)

    @pytest.mark.parametrize("damage, message", [
        (lambda ckpt: ckpt.arrays.update(head_w=np.array([[10.0]])),
         "checkpoint array 'head_w' has shape (1, 1), expected (1,)"),
        (lambda ckpt: ckpt.hyperparameters.update(threshold="x"),
         "checkpoint hyperparameter 'threshold' must lie in (0, 1), got 'x'"),
    ], ids=["shape", "threshold"])
    def test_refusals_of_a_loaded_checkpoint_name_its_file(self, damage, message, tmp_path):
        # a checkpoint built in memory has no file to name
        ckpt, data = self.perfect_checkpoint()
        damage(ckpt)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            evaluate(ckpt, data)
        path = tmp_path / "damaged.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.path == str(path)
        for check in (lambda: evaluate(loaded, data), lambda: census(loaded)):
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
                check()

    def test_classify_checkpoint_without_split_is_data_error(self):
        ckpt, _ = self.perfect_checkpoint()
        with pytest.raises(DataError, match="needs a ClassifyDataset, got NoneType"):
            evaluate(ckpt)

    def test_sine_checkpoint_rebuilds_its_recorded_task(self):
        ckpt, _ = train(TrainConfig(model="lstm", task="sine", epochs=1, seed=4, hidden=3),
                        sine_task(n_points=10, window=2))
        rebuilt, given = evaluate(ckpt), evaluate(ckpt, sine_task(10, 2))
        assert rebuilt.mse == given.mse
        assert rebuilt.predictions.tobytes() == given.predictions.tobytes()

    def test_max_len_mismatch(self):
        ckpt, data = self.perfect_checkpoint()
        bad = ClassifyDataset(
            sequences=np.zeros((2, 5), dtype=np.int64),
            labels=np.array([0, 1]),
            max_len=5,
            vocab_digest=data.vocab_digest,
        )
        with pytest.raises(DataError, match="max_len"):
            evaluate(ckpt, bad)

    def test_digest_mismatch_is_data_error(self):
        ckpt, data = self.perfect_checkpoint()
        data.vocab_digest = "0" * 64
        with pytest.raises(DataError, match="vocabulary digest mismatch"):
            evaluate(ckpt, data)
        # a checkpoint that records no vocabulary is not checked
        ckpt.vocab_digest = None
        assert evaluate(ckpt, data).accuracy == 1.0

    def test_out_of_vocabulary_index_rejected(self):
        ckpt, data = self.perfect_checkpoint()
        data.sequences[0, 0] = 99
        with pytest.raises(DataError, match="indices"):
            evaluate(ckpt, data)

    def test_task_dataset_type_mismatch(self):
        ckpt, data = self.perfect_checkpoint()
        with pytest.raises(DataError):
            evaluate(ckpt, sine_task(10, 2))

    def test_sine_mse_matches_predictions(self):
        data = sine_task(n_points=10, window=2)
        ckpt, _ = train(
            TrainConfig(model="lstm", task="sine", epochs=1, seed=4, hidden=3, batch_size=4),
            data,
        )
        report = evaluate(ckpt, data)
        recomputed = float(np.mean((report.predictions - data.targets) ** 2))
        assert report.mse == recomputed

    @pytest.mark.parametrize("model, tolerance", [("qlstm", 0.0), ("lstm", 1e-15)])
    def test_predictions_do_not_depend_on_chunk_size(self, model, tolerance, monkeypatch):
        # 100 samples: chunks of 16 end in a chunk of 4, chunks of 64 in one
        # of 36; BLAS may block the LSTM's gate products differently per size
        data = sine_task(n_points=100, window=3)
        ckpt, _ = train(TrainConfig(model=model, task="sine", epochs=1, seed=5), data)
        at_64 = evaluate(ckpt, data).predictions
        monkeypatch.setattr(qvuln.trainer, "EVAL_CHUNK", 16)
        at_16 = evaluate(ckpt, data).predictions
        np.testing.assert_allclose(at_64, at_16, rtol=0, atol=tolerance)

    def test_predictions_run_cache_free_chunks_of_64(self):
        calls = []

        def forward(params, inputs, *, keep_caches=True):
            calls.append((len(inputs), keep_caches))
            return np.zeros(len(inputs)), None

        data = sine_task(n_points=100, window=3)
        predictions_over(forward, None, data, data.table)
        assert calls == [(64, False), (36, False)]


class TestReportFiles:
    def test_classify_metrics_round_trip(self, tmp_path):
        report = metrics(ConfusionMatrix(tp=9, fp=1, tn=8, fn=2))
        report.wall_time_seconds = 1.25
        report.parameter_count = 321
        report.loss_curve = [0.7, 0.5, 0.4]
        path = tmp_path / "metrics.json"
        save_metrics(report, "classify", path)
        doc = load_metrics(path)
        assert doc["accuracy"] == report.accuracy
        assert doc["f1"] == report.f1
        assert doc["tp"] == 9 and doc["fn"] == 2
        assert doc["parameter_count"] == 321
        assert doc["loss_curve"] == report.loss_curve

    def test_sine_metrics_round_trip(self, tmp_path):
        report = metrics(ConfusionMatrix())
        report.mse = 0.0123
        report.loss_curve = [0.3]
        path = tmp_path / "metrics.json"
        save_metrics(report, "sine", path)
        doc = load_metrics(path)
        assert doc["mse"] == 0.0123

    def test_failed_save_leaves_existing_file(self, tmp_path):
        report = metrics(ConfusionMatrix())
        report.mse = 0.0123
        path = tmp_path / "metrics.json"
        save_metrics(report, "sine", path)
        before = path.read_bytes()
        report.mse = float("nan")
        with pytest.raises(ValueError):
            save_metrics(report, "sine", path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_curves_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        blocks = {
            1: (rng.uniform(0, 7, 10), rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)),
            30: (rng.uniform(0, 7, 10), rng.uniform(-1, 1, 10), rng.uniform(-1, 1, 10)),
        }
        path = tmp_path / "curves.txt"
        save_curves(blocks, path)
        again = load_curves(path)
        assert set(again) == {1, 30}
        for epoch in blocks:
            for a, b in zip(blocks[epoch], again[epoch]):
                assert np.array_equal(a, b)
