"""Command-line entry point.

Subcommands: preprocess (CSV -> encoded corpus + vocabulary), train, eval,
sine-demo, gradcheck (finite-difference verification), census (parameter
count check).  Exit codes: 0 success, 1 usage error, 2 data/format error or
memory exhaustion, 3 failed verification or divergence.

Diagnostics go to stderr (QVULN_LOG_LEVEL controls verbosity); data goes to
files or stdout.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    SPLITS, Vocabulary, balance, build_vocab, load_dataset, tokenize,
)
from .embedding import D_BASIC_DEFAULT, MODES, build_embedding_matrix, load_vectors
from .errors import CheckpointError, DataError, DivergenceError
from .fileio import check_output_paths, decode_array, encode_array, read_json, write_json
from .neural import bce_from_logit, laid_out
from .trainer import (
    MODELS,
    TASKS,
    ClassifyDataset,
    TrainConfig,
    _model,
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

GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCES = {"vqc": 1e-6, "lstm": 1e-6, "qlstm": 1e-5}


# --- encoded corpus and vocabulary files ---


def load_vocab_file(path: str | Path) -> Vocabulary:
    return Vocabulary.from_dict(read_json(path, "vocabulary file", "vocab.v1"))


def encode_corpus(
    token_lists: list[list[str]], labels: list[int], vocab: Vocabulary, max_len: int
) -> ClassifyDataset:
    """Each function's last max_len token indices (unknown -> 1) at the
    head of its int64 row, padded with 0."""
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    # np.zeros pads with PAD_INDEX, which is 0; a measured slowdown after
    # np.full(PAD_INDEX) was heap-layout noise, not the fill
    sequences = np.zeros((len(token_lists), max_len), dtype=np.int64)
    for row, tokens in zip(sequences, token_lists):
        ids = [vocab.index_of(t) for t in tokens[-max_len:]]
        row[:len(ids)] = ids
    return ClassifyDataset(
        sequences=sequences, labels=np.array(labels, dtype=np.int64), max_len=max_len,
        vocab_digest=vocab.digest(),
    )


def save_encoded_dataset(data: ClassifyDataset, split: str, path: str | Path) -> None:
    """`encoded.v2`: `sequences` and `labels` as int64 `fileio.encode_array` entries."""
    write_json({
        "format": "encoded.v2",
        "split": split,
        "max_len": data.max_len,
        "vocab_digest": data.vocab_digest,
        "labels": encode_array(data.labels, "<i8"),
        "sequences": encode_array(data.sequences, "<i8"),
    }, path)


def load_encoded_dataset(path: str | Path) -> ClassifyDataset:
    doc = read_json(path, "encoded dataset", "encoded.v2")
    max_len, vocab_digest = doc.get("max_len"), doc.get("vocab_digest")
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 1:
        raise DataError(f"{path}: max_len must be a positive integer, got {max_len!r}")
    if not isinstance(vocab_digest, str):
        raise DataError(f"{path}: vocab_digest must be a string, got {vocab_digest!r}")
    sequences, labels = (
        decode_array(doc.get(key), "<i8", f"{path}: malformed {key!r} array")
        for key in ("sequences", "labels")
    )
    if labels.ndim != 1 or sequences.shape != (len(labels), max_len):
        raise DataError(f"{path}: sequences of shape {list(sequences.shape)} and labels of "
                        f"shape {list(labels.shape)}, expected [N, {max_len}] and [N]")
    if ((labels != 0) & (labels != 1)).any():
        raise DataError(f"{path}: labels must be 0 or 1")
    if (sequences < 0).any():
        raise DataError(f"{path}: token indices must be non-negative")
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
    if trials < 1:
        raise DataError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
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
    instances += [("qlstm", {"d_in": 2}, 2), ("qlstm", {"d_in": 3}, 3)]
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
    if args.seed < 0:
        raise DataError(f"seed must be >= 0, got {args.seed}")
    if args.max_len < 1 or args.max_vocab < 1:
        raise DataError(f"max_len and max_vocab must be >= 1, got {args.max_len}, {args.max_vocab}")
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
            corpus = balance(corpus, args.seed)
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


def _load_tables(args: argparse.Namespace) -> list:
    vectors = args.vectors or []
    needed = MODES[args.embedding]
    if len(vectors) != needed:
        raise DataError(
            f"embedding mode {args.embedding!r} requires {needed} --vectors file(s), "
            f"got {len(vectors)}"
        )
    return [load_vectors(p) for p in vectors]


def _cmd_train(args: argparse.Namespace) -> int:
    d_basic = D_BASIC_DEFAULT if args.d_basic is None else args.d_basic
    config = TrainConfig(
        model=args.model,
        task=args.task,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        lr=args.lr,
        threshold=args.threshold,
        hidden=args.hidden,
        d_basic=d_basic,
        sigma_hidden=args.sigma_hidden,
    )
    check_output_paths(
        [args.out, args.metrics, args.curves],
        [args.data, args.eval_data, args.vocab, *(args.vectors or [])],
    )
    if args.task == "classify":
        if args.data is None or args.vocab is None:
            print("error: --task classify requires --data and --vocab", file=sys.stderr)
            return 1
        if args.d_basic is not None and args.embedding != "basic":
            raise DataError(f"--d-basic sets the basic table's width; embedding mode "
                            f"{args.embedding!r} takes its width from the --vectors file(s)")
        vocab = load_vocab_file(args.vocab)
        data = load_encoded_dataset(args.data)
        eval_data = load_encoded_dataset(args.eval_data) if args.eval_data else None
        tables = _load_tables(args)
        matrix = build_embedding_matrix(
            vocab, tables, args.embedding, seed=args.seed, d_basic=d_basic
        )
        ckpt, report = train(
            config, data, matrix=matrix, vocab_digest=vocab.digest(),
            eval_data=eval_data, curves_path=args.curves,
        )
    else:
        # the classify-only inputs, each flagged as given; the defaults read as not
        classify_inputs = {"--data": args.data, "--vocab": args.vocab,
                           "--eval-data": args.eval_data, "--vectors": args.vectors,
                           "--d-basic": args.d_basic is not None,
                           "--embedding": args.embedding != "basic"}
        given = [flag for flag, value in classify_inputs.items() if value]
        if given:
            print(f"error: --task sine takes no {', '.join(given)}", file=sys.stderr)
            return 1
        data = sine_task(args.n_points, args.window)
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
    config = TrainConfig(model=args.model, task="sine", epochs=args.epochs, seed=args.seed)
    check_output_paths([args.curves])
    train(config, sine_task(), curves_path=args.curves)
    blocks = load_curves(args.curves)
    for epoch in sorted(blocks):
        _, actual, predicted = blocks[epoch]
        mse = float(np.mean((predicted - actual) ** 2))
        print(f"model={args.model} epoch={epoch} mse={mse!r}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    worst = run_gradcheck(seed=args.seed, trials=args.trials)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvuln",
        description="Classical and quantum LSTM pipeline for function-level "
        "vulnerability classification and sine regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=handler)
        return p

    p = add("preprocess", "encode CSV corpora into fixed-length index sequences", _cmd_preprocess)
    p.add_argument("--data-dir", required=True,
                   help="directory holding train.csv, validation.csv, test.csv")
    p.add_argument("--max-len", type=int, default=100, help="sequence length after padding")
    p.add_argument("--max-vocab", type=int, default=10000, help="vocabulary size cap")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=True,
                   help="down-sample the majority class in every split")
    p.add_argument("--seed", type=int, default=42, help="balancing seed")
    p.add_argument("--out", required=True, help="output directory for encoded files")

    p = add("train", "train a model and write a checkpoint", _cmd_train)
    p.add_argument("--model", required=True, choices=MODELS, help="model kind")
    p.add_argument("--task", required=True, choices=TASKS, help="training task")
    p.add_argument("--embedding", choices=MODES, default="basic", help="input representation")
    p.add_argument("--vectors", action="append", default=None, metavar="FILE",
                   help="pretrained vector file (repeat for glove+fasttext)")
    p.add_argument("--data", default=None, help="encoded training split (classify)")
    p.add_argument("--eval-data", default=None, help="encoded split for the metrics report")
    p.add_argument("--vocab", default=None, help="vocabulary file (classify)")
    p.add_argument("--epochs", type=int, default=None, help="epochs (default: 30 sine, 10 classify)")
    p.add_argument("--batch", type=int, default=16, help="mini-batch size")
    p.add_argument("--lr", type=float, default=None,
                   help="learning rate (default: 1e-2 sine, 1e-3 classify)")
    p.add_argument("--seed", type=int, default=42, help="seed for init and shuffling")
    p.add_argument("--threshold", type=float, default=0.5, help="decision threshold")
    p.add_argument("--hidden", type=int, default=50, help="classical hidden units")
    p.add_argument("--d-basic", type=int, default=None,
                   help=f"trainable embedding dimension, basic mode only "
                        f"(default: {D_BASIC_DEFAULT})")
    p.add_argument("--n-points", type=int, default=100, help="sine task sample count")
    p.add_argument("--window", type=int, default=4, help="sine task input window")
    p.add_argument("--sigma-hidden", action=argparse.BooleanOptionalAction, default=True,
                   help="wrap the quantum hidden-state block in a sigmoid")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", default=None, help="metrics report output path")
    p.add_argument("--curves", default=None, help="prediction curve output path")

    p = add("eval", "evaluate a checkpoint on a dataset", _cmd_eval)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", default=None, help="encoded dataset (classify checkpoints)")
    p.add_argument("--threshold", type=float, default=None,
                   help="decision threshold (default: the checkpoint's)")
    p.add_argument("--metrics", default=None, help="metrics report output path")

    p = add("sine-demo", "train on the sine task and dump prediction curves", _cmd_sine_demo)
    p.add_argument("--model", required=True, choices=MODELS, help="model kind")
    p.add_argument("--epochs", type=int, default=30, help="training epochs")
    p.add_argument("--seed", type=int, default=42, help="seed for init and shuffling")
    p.add_argument("--curves", required=True, help="curve output path")

    p = add("gradcheck", "verify analytic gradients against finite differences", _cmd_gradcheck)
    p.add_argument("--seed", type=int, default=42, help="seed for random instances")
    p.add_argument("--trials", type=int, default=20, help="random circuit draws")

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
    except (DataError, CheckpointError) as exc:
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
