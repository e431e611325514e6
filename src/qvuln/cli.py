"""Command-line entry point.

Subcommands: preprocess (CSV -> encoded corpus + vocabulary), train, eval,
sine-demo, gradcheck (finite-difference verification), census (parameter
count check).  Exit codes: 0 success, 1 usage error, 2 a refused input
(`DataError`: a bad file, checkpoint, split or setting) or memory
exhaustion, 3 a diverged run (`DivergenceError`) or failed verification.
A flag that only one model or one task reads is a usage error when the
run does not read it: `--hidden`, `--[no-]sigma-hidden`, `--threshold`,
`--n-points` and `--window` set the settings `trainer._record_keys`
lists, and its list says which model and task read each; the inputs of
classify are classify's, and `--d-basic` is basic mode's.  `eval` of a sine
checkpoint takes no `--threshold`, and `preprocess --no-balance` no
`--seed`.

A flag whose setting has a default in the library has none in the parser:
an unset one is not passed (`_given`), so the callee's default applies,
and its `--help` line reads that default from the callee.  The parser is
built once per process (`build_parser`), so a process that calls `main`
many times builds it once.

`preprocess` writes `encoded.v4` splits in the checkpoint's container
(`fileio.write_container`): the token indices in the narrowest unsigned
type that holds them, the labels as bytes; loading widens both to int64.
The files keep their `.json` names, which the acceptance gates and the
benchmark pass.  Files of an older format are refused, not read.

Diagnostics go to stderr (QVULN_LOG_LEVEL controls verbosity); data goes to
files or stdout.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import logging
import os
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import (
    OOV_INDEX, SPLITS, VOCAB_FORMAT, Vocabulary, balance, build_vocab, load_dataset, tokenize,
)
from .embedding import MODES, _check_table_count, build_embedding_matrix, load_vectors
from .errors import DataError, DivergenceError, _check_settings
from .fileio import check_output_paths, read_container, read_json, write_container, write_json
from .neural import bce_from_logit, laid_out
from .trainer import (
    MODELS,
    TASKS,
    _TASK_DEFAULTS,
    ClassifyDataset,
    TrainConfig,
    _model,
    _record_keys,
    census,
    evaluate,
    load_checkpoint,
    load_curves,
    save_checkpoint,
    save_metrics,
    sine_task,
    train,
)
from .vqc import init_vqc_params, vqc_forward, vqc_gradients

log = logging.getLogger("qvuln")

ENCODED_FORMAT = "encoded.v4"
# the arrays of an encoded split and the dtypes each may take
_SPLIT_DTYPES = {"labels": ("|u1",), "sequences": ("<u2", "<u4")}
GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCES = {"vqc": 1e-6, "lstm": 1e-6, "qlstm": 1e-5}


# --- encoded corpus and vocabulary files ---


def load_vocab_file(path: str | Path) -> Vocabulary:
    return Vocabulary.from_dict(read_json(path, "vocabulary file", VOCAB_FORMAT))


def encode_corpus(
    token_lists: list[list[str]], labels: list[int], vocab: Vocabulary, max_len: int
) -> ClassifyDataset:
    """Each function's last max_len token indices (unknown -> 1) at the
    head of its int64 row, padded with 0."""
    _check_settings({"max_len": max_len})
    # np.zeros pads with PAD_INDEX, which is 0; a measured slowdown after
    # np.full(PAD_INDEX) was heap-layout noise, not the fill
    sequences = np.zeros((len(token_lists), max_len), dtype=np.int64)
    # `map` calls the dict's lookup from C: no bytecode runs per token
    index = vocab.token_to_index.get
    for row, tokens in zip(sequences, token_lists):
        ids = list(map(index, tokens[-max_len:], repeat(OOV_INDEX)))
        row[:len(ids)] = ids
    return ClassifyDataset(
        sequences=sequences, labels=np.array(labels, dtype=np.int64), max_len=max_len,
        vocab_digest=vocab.digest(),
    )


def save_encoded_dataset(data: ClassifyDataset, split: str, path: str | Path) -> None:
    """`encoded.v4`: a `fileio.write_container` container of `sequences`
    and `labels`.  The token indices take the narrowest unsigned type that
    holds the split's largest one (`<u2` up to 65,535, and for an empty
    split, else `<u4`); the labels take `|u1`."""
    seqs = data.sequences
    index_dtype = "<u2" if seqs.size == 0 or seqs.max() <= 0xFFFF else "<u4"
    write_container({
        "format": ENCODED_FORMAT,
        "split": split,
        "max_len": data.max_len,
        "vocab_digest": data.vocab_digest,
    }, {"labels": data.labels.astype("|u1"), "sequences": seqs.astype(index_dtype)}, path)


def load_encoded_dataset(path: str | Path) -> ClassifyDataset:
    """An `encoded.v4` split, its indices and labels widened to int64."""
    doc, arrays = read_container(path, "encoded dataset", ENCODED_FORMAT, _SPLIT_DTYPES)
    _check_settings(doc, ("max_len",), prefix=f"{path}: ")
    max_len, vocab_digest = doc["max_len"], doc.get("vocab_digest")
    if not isinstance(vocab_digest, str):
        raise DataError(f"{path}: vocab_digest must be a string, got {vocab_digest!r}")
    sequences, labels = (arrays[key].astype(np.int64) for key in ("sequences", "labels"))
    if labels.ndim != 1 or sequences.shape != (len(labels), max_len):
        raise DataError(f"{path}: sequences of shape {list(sequences.shape)} and labels of "
                        f"shape {list(labels.shape)}, expected [N, {max_len}] and [N]")
    if ((labels != 0) & (labels != 1)).any():
        raise DataError(f"{path}: labels must be 0 or 1")
    return ClassifyDataset(sequences, labels, max_len, vocab_digest)


# --- gradient verification suites ---


def _fd_deviation(value_fn, arrays: list, analytic: np.ndarray, step: float) -> float:
    """Max |analytic - central finite difference| of a scalar function over
    every element of the arrays, in turn (each perturbed in place), against
    their analytic gradients `analytic`, flat in the same order."""
    fd = []
    for arr in arrays:
        flat = arr.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            up = value_fn()
            flat[j] = keep - step
            down = value_fn()
            flat[j] = keep
            fd.append((up - down) / (2.0 * step))
    return float(np.max(np.abs(np.array(fd) - analytic)))


def run_gradcheck(seed: int = 42, trials: int = 20) -> dict[str, float]:
    """Max absolute deviation between analytic gradients and central finite
    differences for each differentiation path."""
    _check_settings({"trials": trials, "seed": seed})
    rng = np.random.default_rng(seed)
    worst = {"vqc": 0.0, "lstm": 0.0, "qlstm": 0.0}

    for _ in range(trials):
        d_in = int(rng.integers(2, 7))
        params = laid_out(init_vqc_params(d_in, rng))
        params.bias[:] = 0.3 * rng.normal(size=4)
        params.out_scale[...] = 1.0 + 0.2 * rng.normal()
        params.out_shift[...] = 0.2 * rng.normal()
        x = rng.normal(size=d_in)
        upstream = rng.normal(size=4)
        grads, dx = vqc_gradients(params, x, upstream)

        def vqc_value() -> float:
            return float(upstream @ vqc_forward(params, x))

        deviation = _fd_deviation(vqc_value, [params.vector, x],
                                  np.concatenate([grads.vector, dx]), GRADCHECK_STEP)
        worst["vqc"] = max(worst["vqc"], deviation)

    # (model, recorded sizes, sequence length) of each model instance
    instances = [("lstm", {"d_in": 2, "hidden": 3}, T) for T in (1, 2, 3, 4)]
    instances += [("qlstm", {"d_in": d_in, "sigma_hidden": True}, d_in) for d_in in (2, 3)]
    for model, hp, T in instances:
        params, forward, backward = _model(model, hp, rng)
        seq = [rng.normal(size=hp["d_in"]) for _ in range(T)]
        target = float(rng.integers(0, 2))

        def model_value() -> float:
            logit, _ = forward(params, seq, keep_caches=False)
            return bce_from_logit(logit, target)[0]

        logit, caches = forward(params, seq)
        _, dlogit = bce_from_logit(logit, target)
        grads, dx = backward(params, caches, dlogit)
        deviation = _fd_deviation(model_value, [params.vector, *seq],
                                  np.concatenate([grads.vector, dx.ravel()]), GRADCHECK_STEP)
        worst[model] = max(worst[model], deviation)

    return worst


# --- subcommand handlers ---


def _cmd_preprocess(args: argparse.Namespace) -> int:
    _check_settings(_given(seed=args.seed, max_len=args.max_len, max_vocab=args.max_vocab))
    # after the settings' range checks, before the output directory is made
    if args.seed is not None and not args.balance:
        print("error: --no-balance takes no --seed", file=sys.stderr)
        return 1
    data_dir = Path(args.data_dir)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    check_output_paths([out_dir / f"{name}.json" for name in ("vocab", *SPLITS)],
                       [data_dir / f"{split}.csv" for split in SPLITS])
    corpora = []
    for split in SPLITS:
        corpus = load_dataset(data_dir / f"{split}.csv", split)
        if args.balance:
            corpus = balance(corpus, **_given(seed=args.seed))
        log.info("%s: %d samples after preprocessing", split, len(corpus))
        corpora.append(corpus)
    # every CSV is checked before any file is written; train's tokens make the vocabulary
    vocab = None
    for corpus in corpora:
        token_lists = [tokenize(code) for code, _ in corpus.samples]
        if vocab is None:
            vocab = build_vocab(token_lists, args.max_vocab)
            write_json(vocab.to_dict(), out_dir / "vocab.json")
        data = encode_corpus(token_lists, [y for _, y in corpus.samples], vocab, args.max_len)
        del token_lists  # else they are alive while the array is written
        save_encoded_dataset(data, corpus.split, out_dir / f"{corpus.split}.json")
    return 0


def _given(**values) -> dict:
    """The values that are not None: the flags given on the command line,
    so that an unset one takes its documented default from the callee."""
    return {name: value for name, value in values.items() if value is not None}


# the train flags that set a recorded setting, and the setting's key
_RECORD_FLAGS = {"--hidden": "hidden", "--sigma-hidden/--no-sigma-hidden": "sigma_hidden",
                 "--threshold": "threshold", "--n-points": "n_points", "--window": "window"}


def _unread_flags(args: argparse.Namespace) -> str | None:
    """The error line for given flags that the run does not read, or None.
    A flag of `_RECORD_FLAGS` is read iff `trainer._record_keys` lists its
    key for the run's model and task; an unread one is the task's to refuse
    if no model reads it on that task, else the model's.  The classify
    inputs are read by classify only, and `--d-basic` by basic mode only.
    These flags default to None, so a given one is never mistaken for its
    default."""
    reads = lambda model: _record_keys(model, args.task)
    classify = args.task == "classify"
    # (the option whose value leaves the flag unread, flag, its value, read)
    rows = [("model" if any(key in reads(m) for m in MODELS) else "task", flag,
             getattr(args, key), key in reads(args.model)) for flag, key in _RECORD_FLAGS.items()]
    rows += [("task", flag, getattr(args, flag[2:].replace("-", "_")), classify)
             for flag in ("--data", "--vocab", "--eval-data", "--vectors", "--embedding")]
    rows.append(("embedding" if classify else "task", "--d-basic", args.d_basic,
                 classify and args.embedding in (None, "basic")))
    unread = [(option, flag) for option, flag, value, read in rows
              if value is not None and not read]
    if not unread:
        return None
    option = unread[0][0]
    flags = ", ".join(flag for owner, flag in unread if owner == option)
    return f"error: --{option} {getattr(args, option)} takes no {flags}"


def _cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig(model=args.model, task=args.task, **_given(
        epochs=args.epochs, batch_size=args.batch, seed=args.seed, lr=args.lr, hidden=args.hidden,
        sigma_hidden=args.sigma_hidden, threshold=args.threshold, d_basic=args.d_basic))
    check_output_paths(
        [args.out, args.metrics, args.curves],
        [args.data, args.eval_data, args.vocab, *(args.vectors or [])],
    )
    # after the settings' range checks, before any input is read
    unread = _unread_flags(args)
    if unread:
        print(unread, file=sys.stderr)
        return 1
    if args.task == "classify":
        if args.data is None or args.vocab is None:
            print("error: --task classify requires --data and --vocab", file=sys.stderr)
            return 1
        mode = args.embedding or "basic"
        vocab = load_vocab_file(args.vocab)
        data = load_encoded_dataset(args.data)
        eval_data = load_encoded_dataset(args.eval_data) if args.eval_data else None
        _check_table_count(mode, len(args.vectors or []))  # before any vector file is read
        tables = [load_vectors(path) for path in args.vectors or []]
        matrix = build_embedding_matrix(vocab, tables, mode, config.seed, config.d_basic)
        ckpt, report = train(
            config, data, matrix=matrix, vocab_digest=vocab.digest(),
            eval_data=eval_data, curves_path=args.curves,
        )
    else:
        data = sine_task(**_given(n_points=args.n_points, window=args.window))
        ckpt, report = train(config, data, curves_path=args.curves)
    save_checkpoint(ckpt, args.out)
    if args.metrics:
        save_metrics(report, args.task, args.metrics)
    if args.task == "classify":
        print(
            f"model={args.model} task=classify accuracy={report.accuracy!r} "
            f"f1={report.f1!r} parameters={report.parameter_count}"
        )
    else:
        print(
            f"model={args.model} task=sine mse={report.mse!r} "
            f"parameters={report.parameter_count}"
        )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    check_output_paths([args.metrics], [args.ckpt, args.data])
    ckpt = load_checkpoint(args.ckpt)
    if (args.data is None) == (ckpt.task == "classify"):
        rule = "requires" if ckpt.task == "classify" else "takes no"
        print(f"error: eval of a {ckpt.task} checkpoint {rule} --data", file=sys.stderr)
        return 1
    if ckpt.task == "sine" and args.threshold is not None:
        print("error: eval of a sine checkpoint takes no --threshold", file=sys.stderr)
        return 1
    data = load_encoded_dataset(args.data) if ckpt.task == "classify" else None
    report = evaluate(ckpt, data, args.threshold)
    if args.metrics:
        save_metrics(report, ckpt.task, args.metrics)
    if ckpt.task == "classify":
        cm = report.confusion
        print(
            f"accuracy={report.accuracy!r} precision={report.precision!r} "
            f"recall={report.recall!r} f1={report.f1!r} "
            f"tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}"
        )
    else:
        print(f"mse={report.mse!r}")
    return 0


def _cmd_sine_demo(args: argparse.Namespace) -> int:
    config = TrainConfig(model=args.model, task="sine",
                         **_given(epochs=args.epochs, seed=args.seed))
    check_output_paths([args.curves])
    train(config, sine_task(), curves_path=args.curves)
    blocks = load_curves(args.curves)
    for epoch in sorted(blocks):
        _, actual, predicted = blocks[epoch]
        mse = float(np.mean((predicted - actual) ** 2))
        print(f"model={args.model} epoch={epoch} mse={mse!r}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = run_gradcheck(**_given(seed=args.seed, trials=args.trials))
    failed = False
    for name in ("vqc", "lstm", "qlstm"):
        tol = GRADCHECK_TOLERANCES[name]
        ok = worst[name] < tol
        failed = failed or not ok
        print(f"{name}: max abs deviation {worst[name]:.3e} tolerance {tol:.0e} "
              f"{'ok' if ok else 'FAILED'}")
    return 3 if failed else 0


def _cmd_census(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.ckpt)
    runtime, analytic = census(ckpt)
    ok = runtime == analytic
    print(f"model={ckpt.model} runtime={runtime} analytic={analytic} "
          f"{'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 3


# --- parser ---


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """argparse's `(default: X)` for a default argparse holds.  A flag whose
    default is None is unset unless given, and the code it is passed to
    applies the default; its help text names that default, read from that
    code, so argparse adds nothing.  A subclass, not a plain formatter:
    on Python 3.10 `BooleanOptionalAction` writes its own `(default: X)`
    into the help, which argparse's formatter then leaves alone, so
    `--balance` reads the same on every version."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: a build takes
    about 1 ms, which a process that calls `main` many times (the tests,
    the benchmark's set-up) would pay on each call.  A parse leaves the
    parser as it was, so callers share it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="qvuln",
        description="Classical and quantum LSTM pipeline for function-level "
        "vulnerability classification and sine regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        p.set_defaults(func=handler)
        return p

    # the defaults that the callees of unset flags apply, which the help texts state
    config, sine, gradcheck, balancing = (
        {arg.name: arg.default for arg in inspect.signature(f).parameters.values()}
        for f in (TrainConfig, sine_task, run_gradcheck, balance))
    per_task = lambda name: ", ".join(f"{d[name]} {task}" for task, d in _TASK_DEFAULTS.items())

    p = add("preprocess", "encode CSV corpora into fixed-length index sequences", _cmd_preprocess)
    p.add_argument("--data-dir", required=True,
                   help="directory holding train.csv, validation.csv, test.csv")
    p.add_argument("--max-len", type=int, default=100, help="sequence length after padding")
    p.add_argument("--max-vocab", type=int, default=10000, help="vocabulary size cap")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=True,
                   help="down-sample the majority class in every split")
    p.add_argument("--seed", type=int, help=f"balancing seed (default: {balancing['seed']})")
    p.add_argument("--out", required=True, help="output directory for encoded files")

    p = add("train", "train a model and write a checkpoint", _cmd_train)
    p.add_argument("--model", required=True, choices=MODELS, help="model kind")
    p.add_argument("--task", required=True, choices=TASKS, help="training task")
    p.add_argument("--embedding", choices=MODES, help="input representation (default: basic)")
    p.add_argument("--vectors", action="append", metavar="FILE",
                   help="pretrained vector file (repeat for glove+fasttext)")
    p.add_argument("--data", help="encoded training split (classify)")
    p.add_argument("--eval-data", help="encoded split for the metrics report")
    p.add_argument("--vocab", help="vocabulary file (classify)")
    p.add_argument("--epochs", type=int, help=f"epochs (default: {per_task('epochs')})")
    p.add_argument("--batch", type=int, help=f"mini-batch size (default: {config['batch_size']})")
    p.add_argument("--lr", type=float, help=f"learning rate (default: {per_task('lr')})")
    p.add_argument("--seed", type=int,
                   help=f"seed for init and shuffling (default: {config['seed']})")
    p.add_argument("--threshold", type=float,
                   help=f"decision threshold, classify only (default: {config['threshold']})")
    p.add_argument("--hidden", type=int,
                   help=f"classical hidden units, lstm only (default: {config['hidden']})")
    p.add_argument("--d-basic", type=int, help="trainable embedding dimension, basic mode only "
                                               f"(default: {config['d_basic']})")
    p.add_argument("--n-points", type=int,
                   help=f"sine task sample count (default: {sine['n_points']})")
    p.add_argument("--window", type=int, help=f"sine task input window (default: {sine['window']})")
    p.add_argument("--sigma-hidden", action=argparse.BooleanOptionalAction,
                   help="wrap the quantum hidden-state block in a sigmoid, qlstm only "
                        f"(default: {config['sigma_hidden']})")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="metrics report output path")
    p.add_argument("--curves", help="prediction curve output path")

    p = add("eval", "evaluate a checkpoint on a dataset", _cmd_eval)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", help="encoded dataset (classify checkpoints)")
    p.add_argument("--threshold", type=float, help="decision threshold, the checkpoint's if unset")
    p.add_argument("--metrics", help="metrics report output path")

    p = add("sine-demo", "train on the sine task and dump prediction curves", _cmd_sine_demo)
    p.add_argument("--model", required=True, choices=MODELS, help="model kind")
    p.add_argument("--epochs", type=int,
                   help=f"training epochs (default: {_TASK_DEFAULTS['sine']['epochs']})")
    p.add_argument("--seed", type=int,
                   help=f"seed for init and shuffling (default: {config['seed']})")
    p.add_argument("--curves", required=True, help="curve output path")

    p = add("gradcheck", "verify analytic gradients against finite differences", _cmd_gradcheck)
    p.add_argument("--seed", type=int,
                   help=f"seed for random instances (default: {gradcheck['seed']})")
    p.add_argument("--trials", type=int,
                   help=f"random circuit draws (default: {gradcheck['trials']})")

    p = add("census", "compare runtime parameter count with the analytic formula", _cmd_census)
    p.add_argument("--ckpt", required=True, help="checkpoint path")

    return parser


def _configure_logging() -> None:
    level = os.environ.get("QVULN_LOG_LEVEL", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
