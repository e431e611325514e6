"""The qvuln benchmark's workloads, pipeline rounds, output checks and
metrics.

A round runs the user pipeline in-process, in the order of the `preprocess`
-> `train` -> `eval` subcommands, through the library's public functions:
`cli.main(["preprocess", ...])`, `load_vocab_file`, `load_encoded_dataset`,
`build_embedding_matrix` (together: set-up), `trainer.train` with the test
split as `eval_data`, `save_checkpoint`, then `load_checkpoint` +
`evaluate`. Each stage is timed from outside.

The program is called through module attributes (`trainer.train`, not a
name imported into this file), so the tracer's wrappers see every call.

The importer puts the checkout's `src` directory on `sys.path` first.
"""
from __future__ import annotations

import hashlib
import importlib.util
import bisect
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qvuln import cli, embedding, qlstm, trainer, vqc
from tracer import SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent

# Seed of everything inside the program (preprocess balancing, embedding,
# parameter init, shuffling), as in acceptance gates 4 and 5. The workload
# seed only generates the corpora, so quality metrics stay a drift guard of
# the numerics instead of a draw of initialisation luck.
PROGRAM_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a classifier trained on the gate-5 corpus;
    sizes default to acceptance gate 5."""

    name: str
    model: str
    epochs: int
    lr: float
    setup_reps: int  # set-ups per round
    eval_reps: int  # load_checkpoint + evaluate repeats per round
    # corpora generated per run, one per round in turn; the quality metrics
    # are their mean, so a run's losses are not one 50-sample test split's
    corpora: int = 1
    train_per_class: int = 100
    other_per_class: int = 25
    max_len: int = 24  # every sequence is padded or cut to max_len steps
    max_vocab: int = 200
    d_basic: int = 50
    batch_size: int = 16


WORKLOADS = {
    w.name: w
    for w in (
        # one corpus: after 1 epoch its losses stay near ln 2 on every seed
        # tried (quartile spread 0.1% over ten seeds)
        Workload("qlstm-classify", "qlstm", epochs=1, lr=0.003, setup_reps=16, eval_reps=6),
        # after 2 epochs one corpus's eval loss spreads 22% across corpus
        # seeds (quartiles over 60); the mean over 16 corpora spreads 4-6%
        Workload("lstm-classify", "lstm", epochs=2, lr=1e-3, setup_reps=2, eval_reps=2,
                 corpora=16),
    )
}

# (module, public function, span name) wrapped in a traced round
TRACE_TARGETS = [
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("corpus", "balance", "corpus.balance"),
    ("corpus", "tokenize", "corpus.tokenize"),
    ("corpus", "build_vocab", "corpus.build_vocab"),
    ("corpus", "encode_and_pad", "corpus.encode_and_pad"),
    ("embedding", "build_embedding_matrix", "embedding.build"),
    ("cli", "main", "cli.main"),
    ("cli", "load_vocab_file", "cli.load_vocab_file"),
    ("cli", "load_encoded_dataset", "cli.load_encoded_dataset"),
    ("cli", "encode_corpus", "cli.encode_corpus"),
    ("cli", "save_encoded_dataset", "cli.save_encoded_dataset"),
    ("qsim", "init_state", "qsim.init_state"),
    ("qsim", "apply_gate", "qsim.apply_gate"),
    ("qsim", "apply_circuit", "qsim.apply_circuit"),
    ("qsim", "expect_z", "qsim.expect_z"),
    ("vqc", "vqc_forward", "vqc.forward"),
    ("vqc", "vqc_gradients", "vqc.grad"),
    ("qlstm", "qlstm_forward", "qlstm.forward"),
    ("qlstm", "qlstm_backward", "qlstm.backward"),
    ("neural", "lstm_forward", "neural.lstm_forward"),
    ("neural", "lstm_backward", "neural.lstm_backward"),
    ("neural", "adam_step", "neural.adam"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint"),
]
QSIM_SPANS = ("qsim.init_state", "qsim.apply_gate", "qsim.apply_circuit", "qsim.expect_z")
TRAIN, EVALUATE = "trainer.train", "trainer.evaluate"


def load_corpus_generator():
    """`generate_corpus` from tests/conftest.py, the generator acceptance
    gate 5 trains on."""
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("qvuln_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate_corpus


class StageFailed(Exception):
    """A stage raised; the rest of its round cannot run."""


class Ledger:
    """Counts stages attempted and failed. A stage fails when it raises or
    when one of its output checks fails.

    `measure(start, end)` turns two `perf_counter` readings into the
    seconds a stage reports; by default their difference.
    """

    def __init__(self, measure=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.measure = measure or (lambda start, end: end - start)

    def run(self, name: str, fn, check=None):
        """Time `fn()`; then run `check(value)`, which returns a list of
        problems, outside the timed region. Returns (value, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a stage that raises is one failed operation
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            raise StageFailed(name) from exc
        elapsed = self.measure(start, time.perf_counter())
        problems = check(value) if check is not None else []
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)
        return value, elapsed


class SpeedProbe:
    """Samples the host's speed while the program runs, so that stage times
    can be read at one reference speed.

    The host's speed changes by up to 1.9x, in stretches of seconds to
    minutes, for all of this code about alike. Every `INTERVAL_S` a timer signal runs a
    fixed probe loop between the program's bytecodes: numpy work on the
    sizes the model uses (a 16-amplitude vector, a 50 x 104 matrix), owned
    by the benchmark, so no change to the program moves it. `work_s` then
    weighs each stretch of a stage by the speed read at the latest probe,
    `REF_S` over the median time of the last three probes, and leaves the
    probes' own time out. A program that does more work reads
    slower at any host speed; a host that slows down reads the same.
    """

    INTERVAL_S = 0.1
    # the probe's time on a 2-vCPU Xeon VM in its fast mode; sets the
    # reference speed, so reported seconds are that machine's fast seconds
    REF_S = 1.5e-3

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._state = np.ones(16)
        self._matrix = np.full((50, 104), 0.01)
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        a, v = self._state, np.ones(104)
        for _ in range(200):
            a = np.sin(a) * 0.5 + 0.25
            v = np.tanh(self._matrix.T @ (self._matrix @ v))
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        last = [e - s for s, e in zip(self.starts[-3:], self.ends[-3:])]
        self.speeds.append(self.REF_S / statistics.median(last))

    def __enter__(self) -> "SpeedProbe":
        self._probe(None, None)  # so every stage has a probe before it
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the probes taken, relative to the reference."""
        return statistics.fmean(self.speeds)

    def work_s(self, a: float, b: float) -> float:
        """Seconds from `a` to `b` (perf_counter readings, both after the
        first probe) at reference speed."""
        i = bisect.bisect_right(self.starts, a) - 1
        total, t = 0.0, a
        while t < b:
            nxt = self.starts[i + 1] if i + 1 < len(self.starts) else b
            end = min(b, nxt)
            total += (end - t) * self.speeds[i]
            if end >= b:
                break
            i += 1
            t = self.ends[i]
        return total


class StepClock:
    """Marks the end of each optimizer step inside `trainer.train` with a
    timestamp, by wrapping the trainer's `adam_step`: one clock read per
    step, no spans. When the trainer no longer has `adam_step`, it takes no
    marks and train time falls back to whole `train()` calls."""

    def __init__(self) -> None:
        self.marks: list[float] = []
        self._step = None

    def __enter__(self) -> "StepClock":
        step = getattr(trainer, "adam_step", None)
        if callable(step):
            marks = self.marks

            def marked(*args, **kwargs):
                out = step(*args, **kwargs)
                marks.append(time.perf_counter())
                return out

            self._step = step
            trainer.adam_step = marked
        return self

    def __exit__(self, *exc) -> None:
        if self._step is not None:
            trainer.adam_step = self._step


@dataclass
class Inputs:
    train: object
    eval: object
    matrix: object
    vocab_digest: str


@dataclass
class Round:
    """Timings and outputs of one pipeline round."""

    setup_s: list[float] = field(default_factory=list)
    train_s: float = 0.0  # the whole train() call
    step_s: list[float] = field(default_factory=list)  # per trained sample, one per optimizer step
    save_s: float = 0.0
    eval_s: list[float] = field(default_factory=list)  # load_checkpoint + evaluate
    evaluate_s: list[float] = field(default_factory=list)  # evaluate alone
    n_train: int = 0
    n_eval: int = 0
    final_train_loss: float = 0.0
    eval_loss: float = 0.0
    accuracy: float = 0.0
    checkpoint_bytes: int = 0
    digest: str = ""
    first_sample: np.ndarray | None = None


def _setup(w: Workload, csv_dir: Path, enc_dir: Path) -> Inputs:
    code = cli.main([
        "preprocess", "--data-dir", str(csv_dir), "--max-len", str(w.max_len),
        "--max-vocab", str(w.max_vocab), "--seed", str(PROGRAM_SEED), "--out", str(enc_dir),
    ])
    if code != 0:
        raise RuntimeError(f"preprocess exited with code {code}")
    vocab = cli.load_vocab_file(enc_dir / "vocab.json")
    train_data = cli.load_encoded_dataset(enc_dir / "train.json")
    test_data = cli.load_encoded_dataset(enc_dir / "test.json")
    matrix = embedding.build_embedding_matrix(
        vocab, [], "basic", seed=PROGRAM_SEED, d_basic=w.d_basic
    )
    return Inputs(train=train_data, eval=test_data, matrix=matrix,
                  vocab_digest=vocab.digest())


def _check_setup(w: Workload, inputs: Inputs) -> list[str]:
    problems = []
    if len(inputs.train) != 2 * w.train_per_class or len(inputs.eval) != 2 * w.other_per_class:
        problems.append(f"split sizes {len(inputs.train)}/{len(inputs.eval)}")
    if inputs.train.sequences.shape[1] != w.max_len:
        problems.append("sequence length differs from max_len")
    return problems


def _prediction_problems(preds, n: int) -> list[str]:
    if preds is None or preds.shape != (n,):
        return [f"expected {n} predictions"]
    if not np.all(np.isfinite(preds)):
        return ["non-finite predictions"]
    if preds.min() < 0.0 or preds.max() > 1.0:
        return ["probabilities outside [0, 1]"]
    return []


def _digest(arrays: dict) -> str:
    """Hash of names, dtypes, shapes and bytes: equal digests mean
    bit-for-bit equal parameters."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _eval_loss(preds: np.ndarray, data) -> float:
    """Mean binary cross-entropy of the probabilities (clipped away from 0
    and 1 so a saturated sigmoid stays finite)."""
    p = np.clip(preds, 1e-15, 1.0 - 1e-15)
    y = np.asarray(data.labels, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p))))


def _step_sizes(w: Workload, n: int) -> list[int]:
    """Samples per optimizer step of `train()`: full batches in shuffled
    order, then the remainder, every epoch."""
    return [min(w.batch_size, n - start) for start in range(0, n, w.batch_size)] * w.epochs


def run_round(w: Workload, csv_dir: Path, work: Path, ledger: Ledger,
              expected_digest: str | None = None) -> Round:
    """One pipeline round. Raises StageFailed when a stage raises."""
    result = Round()
    enc_dir = work / "encoded"

    def set_up(reps: int):
        inputs = None
        for _ in range(reps):
            inputs, seconds = ledger.run(
                "setup", lambda: _setup(w, csv_dir, enc_dir), lambda v: _check_setup(w, v))
            result.setup_s.append(seconds)
        return inputs

    # half of the set-ups before training, half interleaved with the
    # evaluations, so they sample more of the round than one burst
    inputs = set_up((w.setup_reps + 1) // 2)
    result.n_train, result.n_eval = len(inputs.train), len(inputs.eval)
    result.first_sample = inputs.matrix.rows[inputs.train.sequences[0]]

    config = trainer.TrainConfig(
        model=w.model, task="classify", epochs=w.epochs, batch_size=w.batch_size,
        seed=PROGRAM_SEED, lr=w.lr, max_len=w.max_len, d_basic=w.d_basic,
    )

    edges: list[float] = []  # train() start, then the end of each optimizer step

    def train_marked():
        with StepClock() as clock:
            edges.append(time.perf_counter())
            out = trainer.train(config, inputs.train, matrix=inputs.matrix,
                                vocab_digest=inputs.vocab_digest, eval_data=inputs.eval)
        edges.extend(clock.marks)
        return out

    def check_train(value) -> list[str]:
        ckpt, report = value
        sizes = _step_sizes(w, result.n_train)
        if len(edges) == len(sizes) + 1:
            result.step_s = [ledger.measure(a, b) / k for a, b, k in zip(edges, edges[1:], sizes)]
        problems = _prediction_problems(report.predictions, result.n_eval)
        if len(report.loss_curve) != w.epochs or not np.all(np.isfinite(report.loss_curve)):
            problems.append("loss curve missing or non-finite")
        result.digest = _digest(ckpt.arrays)
        if expected_digest is not None and result.digest != expected_digest:
            problems.append("trained parameters differ from an earlier round on the same corpus")
        return problems

    (ckpt, report), result.train_s = ledger.run("train", train_marked, check_train)
    result.final_train_loss = float(report.loss_curve[-1])

    ckpt_path = work / "checkpoint.json"

    def check_saved(_) -> list[str]:
        result.checkpoint_bytes = ckpt_path.stat().st_size if ckpt_path.is_file() else 0
        return [] if result.checkpoint_bytes > 0 else ["checkpoint file missing or empty"]

    _, result.save_s = ledger.run(
        "save", lambda: trainer.save_checkpoint(ckpt, ckpt_path), check_saved)

    def load_and_evaluate():
        loaded = trainer.load_checkpoint(ckpt_path)
        start = time.perf_counter()
        reloaded = trainer.evaluate(loaded, inputs.eval, config.threshold)
        result.evaluate_s.append(ledger.measure(start, time.perf_counter()))
        return loaded, reloaded

    def check_eval(value) -> list[str]:
        loaded, reloaded = value
        problems = _prediction_problems(reloaded.predictions, result.n_eval)
        if problems:
            return problems
        if _digest(loaded.arrays) != result.digest:
            problems.append("reloaded checkpoint arrays differ from the trained ones")
        if reloaded.predictions.tobytes() != report.predictions.tobytes():
            problems.append("predictions of the reloaded checkpoint differ from train()'s")
        result.eval_loss = _eval_loss(reloaded.predictions, inputs.eval)
        result.accuracy = reloaded.accuracy
        if not np.isfinite(result.eval_loss):
            problems.append("non-finite eval loss")
        return problems

    after = w.setup_reps // 2
    for i in range(w.eval_reps):
        _, seconds = ledger.run("load+eval", load_and_evaluate, check_eval)
        result.eval_s.append(seconds)
        set_up(after * (i + 1) // w.eval_reps - after * i // w.eval_reps)
    return result


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage_times(w: Workload, rounds: list[Round]) -> dict[str, float]:
    """Seconds per stage over the rounds of an untraced run, each the median
    of its repeats.

    Train time is the trained samples times the median per-sample time of
    an optimizer step, plus one `evaluate` for the test-split evaluation
    that closes `train()`. Without step marks it is the median of whole
    `train()` calls.
    """
    evaluate = statistics.median(s for r in rounds for s in r.evaluate_s)
    per_sample = [s for r in rounds for s in r.step_s]
    if per_sample:
        train = w.epochs * rounds[0].n_train * statistics.median(per_sample) + evaluate
    else:
        train = statistics.median(r.train_s for r in rounds)
    return {
        "setup": statistics.median(s for r in rounds for s in r.setup_s),
        "train": train,
        "save": statistics.median(r.save_s for r in rounds),
        "eval": statistics.median(s for r in rounds for s in r.eval_s),
    }


def end_to_end(w: Workload, rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an untraced run; the losses are means over the
    run's corpora, one round each."""
    r0, firsts = rounds[0], rounds[:w.corpora]
    t = stage_times(w, rounds)
    return {
        "setup_s": (t["setup"], "s"),
        "train_samples_per_s": (w.epochs * r0.n_train / t["train"], "samples/s"),
        "eval_samples_per_s": (r0.n_eval / t["eval"], "samples/s"),
        "pipeline_s": (sum(t.values()), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "final_train_loss": (statistics.fmean(r.final_train_loss for r in firsts), "loss"),
        "eval_loss": (statistics.fmean(r.eval_loss for r in firsts), "loss"),
    }


def probe_eval_counts(w: Workload, tracer: Tracer, sample: np.ndarray, ledger: Ledger) -> dict:
    """Cross-check the tracer's cost model against the program's own
    EvalCounter on one sample: one evaluation per `vqc_forward` call and
    `per_grad` per `vqc_gradients` call, `per_grad` read from the counter
    on a single gradient call. Skipped when a name it calls is gone."""
    needed = [(vqc, "EvalCounter"), (vqc, "vqc_gradients"), (qlstm, "init_qlstm_params"),
              (qlstm, "qlstm_forward"), (qlstm, "qlstm_backward")]
    if w.model != "qlstm" or not all(hasattr(module, name) for module, name in needed):
        return {}

    def probe():
        rng = np.random.default_rng(PROGRAM_SEED)
        params = qlstm.init_qlstm_params(sample.shape[1], rng)
        single = vqc.EvalCounter()
        vqc.vqc_gradients(params.vqc1, rng.normal(size=params.vqc1.d_in), np.ones(4), single)
        mark = len(tracer.spans)
        counter = vqc.EvalCounter()
        _, caches = qlstm.qlstm_forward(params, list(sample), counter)
        qlstm.qlstm_backward(params, caches, 1.0, counter)
        stats = SpanStats(tracer.spans, mark)
        return {"per_grad": single.count, "counter": counter.count,
                "forward_calls": stats.calls("vqc.forward"), "grad_calls": stats.calls("vqc.grad")}

    def check(found) -> list[str]:
        traced = found["forward_calls"] + found["per_grad"] * found["grad_calls"]
        if found["forward_calls"] and traced != found["counter"]:
            return [f"traced evaluations {traced} != EvalCounter {found['counter']}"]
        return []

    found, _ = ledger.run("cost-model probe", probe, check)
    return found


def per_layer(w: Workload, stats: SpanStats, r: Round, per_grad: int,
              overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round: totals over all its stages
    (set-up and eval repeats included), rates per trained sample or step."""
    samples = w.epochs * r.n_train  # samples trained
    fwd_calls, grad_calls = stats.calls("vqc.forward"), stats.calls("vqc.grad")
    vqc_busy = stats.self_s("vqc.forward", "vqc.grad")
    train_fwd = stats.calls("vqc.forward", phase=TRAIN)
    train_grad = stats.calls("vqc.grad", phase=TRAIN)
    lstm_busy = stats.self_s("neural.lstm_forward", "neural.lstm_backward", phase=TRAIN)

    def per_call_us(name: str) -> float:
        calls = stats.calls(name)
        return 1e6 * stats.self_s(name) / calls if calls else 0.0

    return {
        "corpus.tokenize.calls": (stats.calls("corpus.tokenize"), "count"),
        "corpus.tokenize.self_s": (stats.self_s("corpus.tokenize"), "s"),
        "corpus.build_vocab.self_s": (stats.self_s("corpus.build_vocab"), "s"),
        "embedding.build.self_s": (stats.self_s("embedding.build"), "s"),
        "cli.preprocess.s": (stats.total_s("cli.main"), "s"),
        "cli.load_encoded.s": (stats.total_s("cli.load_encoded_dataset", "cli.load_vocab_file"), "s"),
        "qsim.calls": (stats.calls(*QSIM_SPANS), "count"),
        "qsim.self_s": (stats.self_s(*QSIM_SPANS), "s"),
        "vqc.forward.calls": (fwd_calls, "count"),
        "vqc.forward.self_s": (stats.self_s("vqc.forward"), "s"),
        "vqc.forward.us_per_call": (per_call_us("vqc.forward"), "us"),
        "vqc.grad.calls": (grad_calls, "count"),
        "vqc.grad.self_s": (stats.self_s("vqc.grad"), "s"),
        "vqc.grad.us_per_call": (per_call_us("vqc.grad"), "us"),
        "vqc.evals_per_sample": ((train_fwd + per_grad * train_grad) / samples, "evals/sample"),
        "vqc.evals_per_s": (
            (fwd_calls + per_grad * grad_calls) / vqc_busy if vqc_busy else 0.0, "evals/s"),
        "qlstm.forward.self_s": (stats.self_s("qlstm.forward"), "s"),
        "qlstm.backward.self_s": (stats.self_s("qlstm.backward"), "s"),
        "qlstm.grad_calls_per_step": (train_grad / (samples * w.max_len), "calls/step"),
        "neural.lstm_forward.self_s": (stats.self_s("neural.lstm_forward"), "s"),
        "neural.lstm_backward.self_s": (stats.self_s("neural.lstm_backward"), "s"),
        "neural.lstm.us_per_step": (1e6 * lstm_busy / (samples * w.max_len), "us/step"),
        "neural.adam.calls": (stats.calls("neural.adam"), "count"),
        "neural.adam.self_s": (stats.self_s("neural.adam"), "s"),
        "trainer.train.self_s": (stats.self_s(TRAIN), "s"),
        "trainer.evaluate.s": (stats.total_s(EVALUATE), "s"),
        "trainer.save_checkpoint.s": (stats.total_s("trainer.save_checkpoint"), "s"),
        "trainer.load_checkpoint.s": (stats.total_s("trainer.load_checkpoint"), "s"),
        "trainer.checkpoint_bytes": (r.checkpoint_bytes, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def trace_shares(stats: SpanStats) -> dict[str, float]:
    """Shares of train() time (its closing evaluation included), for the
    record: where the training time went."""
    train_s = stats.total_s(TRAIN)
    if not train_s:
        return {}
    return {
        "vqc_share_of_train": stats.self_s("vqc.forward", "vqc.grad", within=TRAIN) / train_s,
        "lstm_share_of_train": stats.self_s(
            "neural.lstm_forward", "neural.lstm_backward", within=TRAIN) / train_s,
        "adam_share_of_train": stats.self_s("neural.adam", within=TRAIN) / train_s,
    }


@dataclass
class RunResult:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    record: dict


def corpus_seeds(w: Workload, seed: int) -> list[int]:
    """Generator seeds of a run's corpora: distinct runs' seeds give
    disjoint sets, and one corpus is generated from `seed` itself."""
    return [seed * w.corpora + k for k in range(w.corpora)]


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
        spans_path: Path | None = None) -> RunResult:
    """Generate the corpora from `seed`, then either measure rounds untraced
    at reference speed (trace=False) or run one traced round on the first
    corpus (trace=True).

    Untraced, round i trains on corpus i mod `w.corpora`. Rounds go on
    until every corpus has had one (and, with several, the first a second)
    and no further round fits in `seconds`; a round on a corpus seen before
    must give bit-equal parameters.
    """
    ledger = Ledger()
    work.mkdir(parents=True, exist_ok=True)
    generate = load_corpus_generator()
    csv_dirs = []
    for k, corpus_seed in enumerate(corpus_seeds(w, seed)[:1 if trace else None]):
        csv_dirs.append(work / f"csv{k}")
        generate(csv_dirs[-1], seed=corpus_seed, train_per_class=w.train_per_class,
                 other_per_class=w.other_per_class)
    rounds: list[Round] = []
    metrics: dict[str, tuple[float, str]] = {}
    record: dict = {"rounds": 0}
    tracer = Tracer()
    try:
        if trace:
            tracer.install("qvuln", TRACE_TARGETS)
            try:
                rounds.append(run_round(w, csv_dirs[0], work, ledger))
                end = len(tracer.spans)
                probe = probe_eval_counts(w, tracer, rounds[0].first_sample, ledger)
            finally:
                tracer.uninstall()
            stats = SpanStats(tracer.spans[:end], phases=(TRAIN, EVALUATE))
            per_span = Tracer.span_cost()
            metrics = per_layer(w, stats, rounds[0], probe.get("per_grad", 0), per_span * end)
            record.update(probe=probe, shares=trace_shares(stats), spans=end,
                          span_cost_us=1e6 * per_span)
        else:
            deadline = time.perf_counter() + seconds
            # every corpus once; with several, one more round on the first,
            # so the bit-equality check runs however slow the host is
            need = w.corpora + 1 if w.corpora > 1 else 1
            with SpeedProbe() as speed:
                ledger.measure = speed.work_s
                while True:  # rounds while one more fits before the deadline
                    start, i = time.perf_counter(), len(rounds)
                    expected = rounds[i - w.corpora].digest if i >= w.corpora else None
                    rounds.append(run_round(w, csv_dirs[i % w.corpora], work, ledger, expected))
                    now = time.perf_counter()
                    if len(rounds) >= need and 2 * now - start > deadline:
                        break
            metrics = end_to_end(w, rounds)
            record.update(stage_s=stage_times(w, rounds), host_speed=speed.speed(),
                          probes=len(speed.starts),
                          steps_timed=sum(len(r.step_s) for r in rounds))
    except StageFailed:
        pass
    finally:
        if spans_path is not None and tracer.spans:
            tracer.write(spans_path)
    if rounds:
        firsts = rounds[:w.corpora]
        record.update(
            rounds=len(rounds),
            corpus_seeds=corpus_seeds(w, seed)[:len(firsts)],
            train_call_s=[r.train_s for r in rounds],
            accuracy=statistics.fmean(r.accuracy for r in firsts),
            final_train_loss=[r.final_train_loss for r in firsts],
            eval_loss=[r.eval_loss for r in firsts],
            checkpoint_bytes=rounds[0].checkpoint_bytes,
        )
    return RunResult(ledger.attempted, ledger.failed, ledger.problems, metrics, record)
