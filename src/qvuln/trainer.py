"""Training and evaluation for both models and both tasks.

Covers the binary-classification metrics (accuracy, precision, recall, F1
with zero-denominator flags), seeded mini-batch training with Adam, the
windowed sine-regression task, wall-clock timing, an exact parameter
census, and binary checkpoints (`checkpoint.v4`) that round-trip bitwise:
a standard-JSON header of the run's record and the arrays' little-endian
float64 bytes, in the one container `fileio.write_container` writes and
`fileio.read_container` reads; a file of another format is refused, not
converted.

Both tasks are index rows into a table (token indices into the embedding
rows, sine windows into a table of sine values), and `_check_split` checks
a split against its table before any work.  `train` also checks its record
as the checkpoint check will, so the one refusal left to its closing
evaluation is of the run's own non-finite values, a DivergenceError.
Each optimizer step is one forward and one backward call over the whole
mini-batch, through the models' leading batch axis.  Adam updates one
vector theta, the model's (`neural.laid_out`) and then a trainable
table's rows, by a gradient vector of the same layout; a frozen table
stays outside.  Evaluation runs
the same batched forward in chunks of EVAL_CHUNK samples without keeping
backward caches, so its memory is bounded by one chunk's inputs and one
step's working set, not by T steps of caches.  `_model` is the one place
that maps a model name and the hyperparameters a checkpoint records to
fresh parameters and the model's forward and backward functions; train,
evaluate and the checkpoint schema check all build through it.  This
module is the one reader of a checkpoint's recorded hyperparameters.
`_record_keys` is the one list of the settings each model and task read:
`train` records exactly those, plus the keys it only writes down, and the
command line refuses a flag whose setting the run does not read.
`params_from_checkpoint` is the one check of a checkpoint's arrays and of
its record: every key of `_record_keys` must be present and pass its row
in `errors._SETTINGS`, the table `TrainConfig` is checked against too, so
no recorded key is read with a default; a key outside the list is
ignored.  `evaluate` and `census` both call it first, so a checkpoint one
refuses the other refuses too; the census alone lets through, and
counts, arrays the model does not have.  `evaluate` then takes the
decision threshold (classify only; sine reads none) or the sine task from
the checked record, and `census` the embedding's trainable flag.  A
checkpoint that this check or `load_checkpoint` refuses raises DataError,
as any other refused input does.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import PAD_INDEX
from .embedding import D_BASIC_DEFAULT, EmbeddingMatrix
from .errors import DataError, DivergenceError, _check_settings
from .fileio import atomic_write, open_input, read_container, read_json, write_container, write_json
from .neural import (
    OptimizerState,
    adam_step,
    bce_from_logit,
    init_lstm_params,
    laid_out,
    lstm_backward,
    lstm_forward,
    sigmoid,
)
from .qlstm import (
    HIDDEN as QLSTM_HIDDEN,
    init_qlstm_params,
    qlstm_backward,
    qlstm_forward,
)

log = logging.getLogger("qvuln")

MODELS = ("lstm", "qlstm")
TASKS = ("classify", "sine")
CHECKPOINT_FORMAT = "checkpoint.v4"

# each task's default epochs and learning rate
_TASK_DEFAULTS = {"sine": {"epochs": 30, "lr": 1e-2}, "classify": {"epochs": 10, "lr": 1e-3}}
# window indices of the largest sine task (80 MB of int64); sizes arrive
# from the command line and from checkpoints
SINE_MAX_VALUES = 10**7
# samples per cache-free forward call in evaluation: fewer calls amortize
# the fixed per-call cost of the circuit forward; a chunk's (B, T, d_in)
# inputs bound the memory evaluation holds at once
EVAL_CHUNK = 64


@dataclass
class TrainConfig:
    """One training run's settings, and the one place their defaults are
    written; an unset `epochs` or `lr` takes its task's value in
    `_TASK_DEFAULTS`, and `d_basic` defaults to `embedding.D_BASIC_DEFAULT`.
    Every setting but the model and the task is checked against its rule
    in `errors._SETTINGS` and raises DataError; `train` reads and records
    those `_record_keys` lists for the run's model and task."""

    model: str
    task: str
    epochs: int | None = None
    batch_size: int = 16
    seed: int = 42
    lr: float | None = None
    max_len: int = 100
    threshold: float = 0.5
    hidden: int = 50
    d_basic: int = D_BASIC_DEFAULT
    sigma_hidden: bool = True

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}; expected one of {TASKS}")
        for name, value in _TASK_DEFAULTS[self.task].items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        # a zero learning rate is allowed: it leaves the parameters as initialized
        _check_settings(vars(self), ("epochs", "batch_size", "seed", "lr", "max_len", "threshold",
                                     "hidden", "d_basic", "sigma_hidden"))


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class MetricsReport:
    accuracy: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    warnings: list[str] = field(default_factory=list)
    confusion: ConfusionMatrix | None = None
    mse: float | None = None
    wall_time_seconds: float = 0.0
    parameter_count: int = 0
    loss_curve: list[float] = field(default_factory=list)
    predictions: np.ndarray | None = field(default=None, repr=False)


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy, precision, recall, F1 from counts; any zero denominator
    yields 0 for that metric and a named warning flag."""
    report = MetricsReport(confusion=cm)
    if cm.tp + cm.fp > 0:
        report.precision = cm.tp / (cm.tp + cm.fp)
    else:
        report.warnings.append("precision")
    if cm.tp + cm.fn > 0:
        report.recall = cm.tp / (cm.tp + cm.fn)
    else:
        report.warnings.append("recall")
    if report.precision + report.recall > 0:
        report.f1 = 2.0 * report.precision * report.recall / (report.precision + report.recall)
    else:
        report.warnings.append("f1")
    if cm.total > 0:
        report.accuracy = (cm.tp + cm.tn) / cm.total
    else:
        report.warnings.append("accuracy")
    for name in report.warnings:
        log.warning("metrics: zero denominator for %s, reporting 0", name)
    return report


# --- datasets ---


@dataclass
class ClassifyDataset:
    """Encoded fixed-length sequences with binary labels."""

    sequences: np.ndarray  # (N, max_len) integer indices
    labels: np.ndarray  # (N,) in {0, 1}
    max_len: int
    vocab_digest: str

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SineDataset:
    """Windowed next-value regression over one sine period."""

    sequences: np.ndarray  # (N, window) indices into table
    table: np.ndarray  # (n_points, 1) sine values
    targets: np.ndarray  # (N,)
    xs: np.ndarray  # (N,) x position of each target

    def __len__(self) -> int:
        return len(self.targets)


def _check_sine_sizes(n_points: int, window: int, prefix: str = "") -> None:
    """Raises DataError, its message led by `prefix`, unless both sizes pass
    their rule in `errors._SETTINGS`, n_points > window, and the windows'
    n_points * window indices number at most SINE_MAX_VALUES."""
    _check_settings({"n_points": n_points, "window": window}, None, prefix)
    if n_points <= window:
        raise DataError(f"{prefix}need n_points > window, got n_points={n_points} window={window}")
    if n_points * window > SINE_MAX_VALUES:
        raise DataError(
            f"{prefix}sine task of n_points={n_points} window={window} holds more than "
            f"{SINE_MAX_VALUES} input values"
        )


def sine_task(n_points: int = 100, window: int = 4) -> SineDataset:
    """Cyclic windows over x_j = 2*pi*j/n_points: each sample predicts
    sin(x_j) from the previous `window` sine values.  The sizes pass
    `_check_sine_sizes` before any allocation."""
    _check_sine_sizes(n_points, window)
    x = 2.0 * np.pi * np.arange(n_points) / n_points
    s = np.sin(x)
    sequences = (np.arange(n_points)[:, None] + np.arange(-window, 0)) % n_points
    return SineDataset(sequences=sequences, table=s[:, None], targets=s.copy(), xs=x)


# --- parameter census ---


def lstm_census(hidden: int, d_in: int) -> int:
    """Trainable scalars of the classical model (head included)."""
    return 4 * (hidden * (hidden + d_in) + hidden) + hidden + 1


def qlstm_census(d_x: int) -> int:
    """Trainable scalars of the quantum model: six circuit blocks plus the
    head; each block holds 4*d_in + 4 + 24 + 2 values."""
    per_vqc = lambda d_in: 4 * d_in + 4 + 24 + 2
    return 4 * per_vqc(QLSTM_HIDDEN + d_x) + 2 * per_vqc(QLSTM_HIDDEN) + QLSTM_HIDDEN + 1


def embedding_census(n_rows: int, dim: int) -> int:
    """Trainable scalars of a trainable embedding (padding row is pinned)."""
    return (n_rows - 1) * dim


def runtime_census(arrays: dict[str, np.ndarray], embedding_trainable: bool) -> int:
    """Count trainable scalars from the actual parameter arrays."""
    count = 0
    for name, arr in arrays.items():
        if name == "embedding.rows":
            if embedding_trainable:
                count += (arr.shape[0] - 1) * arr.shape[1]
        else:
            count += arr.size
    return count


def _model_census(model: str, hp: dict) -> int:
    """Trainable scalars of `model` at the sizes the hyperparameters record."""
    if model == "lstm":
        return lstm_census(hp["hidden"], hp["d_in"])
    return qlstm_census(hp["d_in"])


def census(ckpt: Checkpoint) -> tuple[int, int]:
    """The (runtime, analytic) trainable-scalar counts of a checkpoint: the
    count of its arrays, and the closed form at the sizes it records.  The
    checkpoint must pass the check `evaluate` makes, `params_from_checkpoint`,
    with one difference: an array the model does not have is what the
    census exists to catch, so it is counted (the two counts differ), not
    rejected.  A sine model has no table, so a sine checkpoint's
    `embedding.rows` is such an array and counts in full."""
    params_from_checkpoint(ckpt, extra_ok=True)
    hp = ckpt.hyperparameters
    analytic = _model_census(ckpt.model, hp)
    if ckpt.task == "sine":
        return sum(arr.size for arr in ckpt.arrays.values()), analytic
    trainable = hp["embedding_trainable"]
    if trainable:
        analytic += embedding_census(*ckpt.arrays["embedding.rows"].shape)
    return runtime_census(ckpt.arrays, trainable), analytic


# --- checkpoints ---


@dataclass
class Checkpoint:
    model: str
    task: str
    hyperparameters: dict
    vocab_digest: str | None
    arrays: dict[str, np.ndarray]


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """A `checkpoint.v4` container (`fileio.write_container`): the header
    records the format, model, task, hyperparameters and vocabulary digest,
    and each array is stored as its little-endian float64 bytes, so it
    round-trips bitwise.  An array holding a non-finite value raises
    ValueError before anything is written, and `path` is left as it was."""
    for name, arr in ckpt.arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint array {name!r} holds non-finite values")
    write_container({
        "format": CHECKPOINT_FORMAT,
        "model": ckpt.model,
        "task": ckpt.task,
        "hyperparameters": ckpt.hyperparameters,
        "vocab_digest": ckpt.vocab_digest,
    }, ckpt.arrays, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    doc, arrays = read_container(path, "checkpoint", CHECKPOINT_FORMAT)
    if doc.get("model") not in MODELS or doc.get("task") not in TASKS:
        raise DataError(
            f"{path}: unknown model/task {doc.get('model')!r}/{doc.get('task')!r}; "
            f"expected a model in {MODELS} and a task in {TASKS}"
        )
    if not isinstance(doc.get("hyperparameters"), dict):
        raise DataError(f"{path}: hyperparameters must be a JSON object")
    if not isinstance(doc.get("vocab_digest"), (str, type(None))):
        raise DataError(f"{path}: vocab_digest must be a string or null")
    return Checkpoint(model=doc["model"], task=doc["task"], hyperparameters=doc["hyperparameters"],
                      vocab_digest=doc.get("vocab_digest"), arrays=arrays)


def _record_keys(model: str, task: str) -> tuple[str, ...]:
    """The settings a `model` run of `task` reads, and so records: `d_in`,
    then `hidden` (LSTM) or `sigma_hidden` (QLSTM), then `max_len`,
    `threshold` and `embedding_trainable` (classify) or `n_points` and
    `window` (sine).  This tuple alone says which model and task read which
    setting: `train` records these keys, `params_from_checkpoint` requires
    each of them, and the command line refuses a flag whose key the run
    does not read.  A checkpoint holds other keys the run writes but never
    reads (`batch_size`, `epochs`, `lr`, `seed`, `embedding_mode`); those,
    and any key outside the tuple, are ignored."""
    task_keys = ("max_len", "threshold", "embedding_trainable") if task == "classify" else (
        "n_points", "window")
    return ("d_in", "hidden" if model == "lstm" else "sigma_hidden", *task_keys)


def _model(model: str, hp: dict, rng: np.random.Generator):
    """Fresh parameters of `model` at the settings the hyperparameters `hp`
    record (`d_in`, plus `hidden` for the LSTM or `sigma_hidden` for the
    QLSTM), with the model's (forward, backward) pair; both take a leading
    batch axis.  The record is read unchecked and with no defaults:
    `TrainConfig` or `params_from_checkpoint` has checked it."""
    # the functions are read from the module globals at call time, so a
    # wrapper put in their place (e.g. a tracer) sees every call
    if model == "lstm":
        return init_lstm_params(hp["hidden"], hp["d_in"], rng), lstm_forward, lstm_backward
    return init_qlstm_params(hp["d_in"], rng, hp["sigma_hidden"]), qlstm_forward, qlstm_backward


def params_from_checkpoint(ckpt: Checkpoint, extra_ok: bool = False):
    """The model's parameters and its batched forward function, after the
    one check of a checkpoint's own contents.  First the record: each key
    of `_record_keys` must be present and pass its rule in
    `errors._SETTINGS` (an absent key reads as None, which no rule
    accepts), and a sine record's `n_points` and `window` must pass
    `sine_task`'s size rule; no other recorded key is read.  Then the
    parameters are checked against the model's own parameter tree at the
    dimensions the checkpoint records: the same names, the same shapes,
    finite values.  A classify
    checkpoint also holds an embedding, and an embedding on either task
    must be a finite (n_rows, d_in) array.  Last, a sine record's `d_in`
    must be 1, the sine table's width.  Raises DataError on any
    difference; with `extra_ok`, arrays the model does not have are let
    through."""
    hp = ckpt.hyperparameters
    _check_settings(hp, _record_keys(ckpt.model, ckpt.task), "checkpoint hyperparameter ")
    if ckpt.task == "sine":
        _check_sine_sizes(hp["n_points"], hp["window"], "checkpoint task sizes: ")
    # a one-unit model names the arrays, so a missing one is named; the stored
    # values must then cover the recorded sizes before any allocation at them
    unit, _, _ = _model(ckpt.model, {**hp, "d_in": 1, "hidden": 1}, np.random.default_rng(0))
    names = set(unit.tree()) | ({"embedding.rows"} if ckpt.task == "classify" else set())
    missing = sorted(names - set(ckpt.arrays))
    unexpected = [] if extra_ok else sorted(set(ckpt.arrays) - names)
    if missing or unexpected:
        raise DataError(f"{ckpt.model} checkpoint arrays: missing {missing}, "
                        f"unexpected {unexpected}")
    if _model_census(ckpt.model, hp) > sum(arr.size for arr in ckpt.arrays.values()):
        raise DataError("checkpoint hyperparameters record more parameters than it stores")
    params, forward, _ = _model(ckpt.model, hp, np.random.default_rng(0))
    expected = {name: arr.shape for name, arr in params.tree().items()}
    if "embedding.rows" in ckpt.arrays:
        # the vocabulary size is the checkpoint's own; the width is d_in
        rows = ckpt.arrays["embedding.rows"]
        expected["embedding.rows"] = (rows.shape[0] if rows.ndim else 0, hp["d_in"])
        if rows.ndim == 2 and rows.shape[0] < 2:
            raise DataError(f"checkpoint array 'embedding.rows' has {len(rows)} rows, not "
                            "even the padding and out-of-vocabulary rows")
    for name, shape in expected.items():
        arr = ckpt.arrays[name]
        if arr.shape != shape:
            raise DataError(f"checkpoint array {name!r} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"checkpoint array {name!r} holds non-finite values")
    if ckpt.task == "sine" and hp["d_in"] != 1:
        raise DataError(f"checkpoint d_in {hp['d_in']} does not match the 1-wide input table")
    for name, arr in params.tree().items():
        arr[...] = ckpt.arrays[name]
    return params, forward


# --- metrics report files ---


def save_metrics(report: MetricsReport, task: str, path: str | Path) -> None:
    doc: dict = {
        "format": "metrics.v1",
        "task": task,
        "wall_time_seconds": report.wall_time_seconds,
        "parameter_count": report.parameter_count,
        "loss_curve": [float(v) for v in report.loss_curve],
        "warnings": list(report.warnings),
    }
    if task == "classify":
        cm = report.confusion or ConfusionMatrix()
        doc.update(
            accuracy=report.accuracy,
            precision=report.precision,
            recall=report.recall,
            f1=report.f1,
            tp=cm.tp, fp=cm.fp, tn=cm.tn, fn=cm.fn,
        )
    else:
        doc["mse"] = report.mse
    write_json(doc, path)


def load_metrics(path: str | Path) -> dict:
    return read_json(path, "metrics file", "metrics.v1")


# --- prediction curve files ---


def save_curves(blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]], path: str | Path) -> None:
    """Plain delimited text, written atomically: one `x actual predicted
    epoch` row per point."""
    with atomic_write(path) as fh:
        fh.write("# x actual predicted epoch\n")
        for epoch in sorted(blocks):
            xs, actual, predicted = blocks[epoch]
            for x, a, p in zip(xs, actual, predicted):
                fh.write(f"{float(x)!r} {float(a)!r} {float(p)!r} {epoch}\n")


def load_curves(path: str | Path) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    blocks: dict[int, list[list[float]]] = {}
    with open_input(path, "curves file") as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            x, a, p, e = line.split()
            blocks.setdefault(int(e), []).append([float(x), float(a), float(p)])
    return {
        e: (np.array(rows)[:, 0], np.array(rows)[:, 1], np.array(rows)[:, 2])
        for e, rows in blocks.items()
    }


# --- model plumbing shared by train and evaluate ---


def _loss(task: str, logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loss values and dLoss/dlogit over a batch."""
    if task == "sine":
        diff = logits - targets
        return diff * diff, 2.0 * diff
    return bce_from_logit(logits, targets)


def _check_split(task: str, data, emb: np.ndarray | None, max_len: int | None,
                 vocab_digest: str | None) -> np.ndarray:
    """The table that the split `data` gathers its inputs from: the
    embedding rows `emb` for classify, the split's own sine table for sine.
    Raises DataError on a dataset of the other task's kind, a split with no
    samples, a classify split whose max_len is not `max_len`, a classify
    split encoded with another vocabulary than the one of digest
    `vocab_digest` (None checks nothing), a sine split whose sizes break
    `_check_sine_sizes` or whose table is not one column wide, a vocabulary
    table without its padding and unknown rows, a table holding a
    non-finite value, or an index outside the table."""
    kind = ClassifyDataset if task == "classify" else SineDataset
    if not isinstance(data, kind):
        raise DataError(f"the {task} task needs a {kind.__name__}, got {type(data).__name__}")
    if len(data) == 0:
        raise DataError(f"the {task} split holds no samples")
    if task == "classify" and data.max_len != max_len:
        raise DataError(f"max_len mismatch: model {max_len}, data {data.max_len}")
    if task == "classify" and vocab_digest is not None and data.vocab_digest != vocab_digest:
        raise DataError(f"vocabulary digest mismatch: split {data.vocab_digest[:12]}..., "
                        f"vocabulary {vocab_digest[:12]}...")
    table, name = (emb, "vocabulary") if task == "classify" else (data.table, "sine table")
    seq = data.sequences
    if task == "sine":
        _check_sine_sizes(len(data), seq.shape[1])
        if table.shape[1] != 1:
            raise DataError(f"the sine table must be 1 column wide, got {table.shape[1]}")
    elif len(table) < 2:
        raise DataError(f"the {len(table)}-row vocabulary lacks the padding and unknown rows")
    if not np.all(np.isfinite(table)):
        raise DataError(f"the {name} holds non-finite values")
    if seq.size and not 0 <= int(seq.min()) <= int(seq.max()) < len(table):
        raise DataError(f"data contains indices outside the {len(table)}-row {name}")
    return table


def predictions_over(forward, params, data, table: np.ndarray) -> np.ndarray:
    """The model's logit, one per sample (the prediction itself for sine);
    the model's `forward` runs over chunks of EVAL_CHUNK samples and keeps
    no backward caches, so a chunk holds its inputs and one step's state."""
    out = np.empty(len(data))
    for start in range(0, len(data), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        out[chunk], _ = forward(params, table[data.sequences[chunk]], keep_caches=False)
    return out


def _embedding_gradient(sequences: np.ndarray, dx: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The gradient of an embedding table of `shape` given the (B, T) token
    indices `sequences` and the (B, T, d) input gradients `dx`, with the
    padding row zeroed.  One bincount over the flat row * d + column
    indices adds each entry's terms in b-major order from 0.0, as
    `np.add.at` over the rows does, so the sums are the same bits."""
    d = shape[1]
    flat = (sequences[..., None] * d + np.arange(d)).ravel()
    grad = np.bincount(flat, weights=dx.ravel(), minlength=shape[0] * d).reshape(shape)
    grad[PAD_INDEX] = 0.0
    return grad


def _curve_block(task: str, data, logits: np.ndarray):
    if task == "sine":
        return data.xs.copy(), data.targets.copy(), logits
    n = len(data)
    return np.arange(n, dtype=float), data.labels.astype(float), sigmoid(logits)


def train(
    config: TrainConfig,
    data,
    matrix: EmbeddingMatrix | None = None,
    vocab_digest: str | None = None,
    eval_data=None,
    curves_path: str | Path | None = None,
) -> tuple[Checkpoint, MetricsReport]:
    """Seeded mini-batch Adam training.

    Records the per-epoch mean training loss, emits epoch-1 and final-epoch
    prediction curves when curves_path is given, and reports metrics over
    eval_data (falling back to the training data), checked before the first epoch.
    Given `vocab_digest`, a split encoded with another vocabulary raises
    DataError before the first epoch.  So does every input the closing
    evaluation's checkpoint check would refuse, so that evaluation raises
    DivergenceError, not DataError, on the run's own non-finite values.
    """
    if (matrix is None) != (config.task == "sine"):
        needs = "takes no" if matrix is not None else "requires an"
        raise DataError(f"{config.task} training {needs} embedding matrix")
    rows = None if matrix is None else matrix.rows
    max_len = getattr(data, "max_len", None)
    table = _check_split(config.task, data, rows, max_len, vocab_digest)
    if eval_data is not None:
        _check_split(config.task, eval_data, rows, max_len, vocab_digest)
    emb_trainable = matrix is not None and matrix.trainable
    # the record: the settings the run reads, the keys `_record_keys` names
    # (a classify run's max_len is its split's), then those it only writes
    read = {"d_in": table.shape[1], "hidden": config.hidden, "sigma_hidden": config.sigma_hidden,
            "max_len": max_len, "threshold": config.threshold, "embedding_trainable": emb_trainable,
            "n_points": len(data), "window": data.sequences.shape[1]}
    hyperparameters = {key: read[key] for key in _record_keys(config.model, config.task)}
    # the rule the checkpoint check applies to them, e.g. a table's width d_in >= 1
    _check_settings(hyperparameters)
    hyperparameters.update(batch_size=config.batch_size, epochs=config.epochs, lr=config.lr,
                           seed=config.seed)
    if matrix is not None:
        hyperparameters["embedding_mode"] = matrix.source
    init_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    params, forward, backward = _model(config.model, hyperparameters, init_rng)
    targets = data.targets if config.task == "sine" else data.labels

    # theta, the vector Adam updates: the model's, then a trainable table's
    # rows; the run trains and stores its own table, never the caller's
    n_model = params.vector.size
    theta = np.concatenate([params.vector, rows.ravel()]) if emb_trainable else params.vector
    params = laid_out(params, theta[:n_model])
    if matrix is not None:
        table = emb = theta[n_model:].reshape(rows.shape) if emb_trainable else rows.copy()
    opt = OptimizerState(theta.size, config.lr)

    n = len(data)
    loss_curve: list[float] = []
    curve_blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    started = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            logits, caches = forward(params, table[data.sequences[batch]])
            values, dlogits = _loss(config.task, logits, targets[batch])
            batch_loss = float(np.sum(values))
            if not np.isfinite(batch_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_loss += batch_loss
            grads, dx = backward(params, caches, dlogits)
            del caches  # else two batches' caches are alive during the next forward pass
            grad = grads.vector
            if emb_trainable:
                grad = np.concatenate(
                    [grad, _embedding_gradient(data.sequences[batch], dx, emb.shape).ravel()])
            grad *= 1.0 / len(batch)
            adam_step(opt, theta, grad)
        mean_loss = epoch_loss / n
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        loss_curve.append(mean_loss)
        log.info("epoch %d/%d: mean loss %.6f", epoch, config.epochs, mean_loss)
        if curves_path is not None and epoch in (1, config.epochs):
            logits = predictions_over(forward, params, data, table)
            curve_blocks[epoch] = _curve_block(config.task, data, logits)
    wall_time = time.perf_counter() - started
    # Adam's moments and the last batch's gradients are done with; freed,
    # they make room for the closing evaluate's input chunk
    del opt, grads, grad, dx

    if curves_path is not None:
        save_curves(curve_blocks, curves_path)

    arrays = params.tree()
    if config.task == "classify":
        arrays["embedding.rows"] = emb
    ckpt = Checkpoint(model=config.model, task=config.task, hyperparameters=hyperparameters,
                      vocab_digest=vocab_digest, arrays=arrays)

    try:
        report = evaluate(ckpt, eval_data if eval_data is not None else data)
    except DataError as exc:
        # the splits, the table and the record passed, before the first
        # epoch, every check the checkpoint check repeats; what is left to
        # refuse is the run's own values: non-finite arrays, logits or MSE
        raise DivergenceError(f"training diverged: {exc}") from None
    report.wall_time_seconds = wall_time
    report.loss_curve = loss_curve
    return ckpt, report


def evaluate(ckpt: Checkpoint, data=None, threshold: float | None = None) -> MetricsReport:
    """Metrics over a dataset: thresholded confusion metrics for classify
    (predict 1 iff probability >= threshold), MSE for sine.  The checkpoint
    first passes `params_from_checkpoint`, so its record is read here
    unchecked and with no defaults.  For classify, a given threshold must
    pass the rule `TrainConfig` checks, in (0, 1), and None reads the
    checkpoint's recorded `threshold`; sine reads no threshold, so a given
    one raises DataError.  `data` None rebuilds a sine checkpoint's recorded
    task; a classify checkpoint needs a split.  The split is checked as in
    `train`, against the checkpoint's vocabulary digest."""
    hp = ckpt.hyperparameters
    started = time.perf_counter()
    params, forward = params_from_checkpoint(ckpt)
    classify = ckpt.task == "classify"
    if not classify:
        if threshold is not None:
            raise DataError("sine evaluation takes no threshold")
        data = sine_task(hp["n_points"], hp["window"]) if data is None else data
    elif threshold is None:
        threshold = hp["threshold"]
    else:
        _check_settings({"threshold": threshold})
    table = _check_split(ckpt.task, data, ckpt.arrays.get("embedding.rows"), hp.get("max_len"),
                         ckpt.vocab_digest)

    # finite parameters can still overflow the forward pass (weights of
    # 1e308 give inf and inf - inf); the logits are checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        logits = predictions_over(forward, params, data, table)
    if not np.all(np.isfinite(logits)):
        raise DataError("checkpoint gives non-finite logits")
    preds = sigmoid(logits) if classify else logits

    if classify:
        predicted = (preds >= threshold).astype(int)
        actual = np.asarray(data.labels, dtype=int)
        cm = ConfusionMatrix(
            tp=int(np.sum((predicted == 1) & (actual == 1))),
            fp=int(np.sum((predicted == 1) & (actual == 0))),
            tn=int(np.sum((predicted == 0) & (actual == 0))),
            fn=int(np.sum((predicted == 0) & (actual == 1))),
        )
        report = metrics(cm)
    else:
        # finite parameters can still overflow, e.g. a head bias of 1e200
        with np.errstate(over="ignore"):
            mse = float(np.mean((preds - data.targets) ** 2))
        if not np.isfinite(mse):
            raise DataError(f"checkpoint gives a non-finite mean squared error ({mse})")
        report = MetricsReport(mse=mse)
    report.predictions = preds
    report.parameter_count = runtime_census(ckpt.arrays, classify and hp["embedding_trainable"])
    report.wall_time_seconds = time.perf_counter() - started
    return report
