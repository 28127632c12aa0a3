"""Command-line entry points: train, bench-matmul, bench-softmax, gen-data.

``train`` reads a JSON run configuration, executes the two-party training
loop on the emulator, and writes ``report.json`` plus ``weights.csv`` into
the output directory.  The bench subcommands measure kernel costs and
softmax approximation error without any config file; the regression tests
pin against the same helpers.  Reports are deterministic for a given config
(fixed seeds, no wall-clock anywhere).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .approx import BASE_RANGE, DEFAULTS, SoftmaxConfig, a_softmax
from .datasets import ingest, make_gaussian_mixture, save_csv
from .emulator import EmulatorContext, OpLedger, is_pow2
from .encoding import decode, encode, next_pow2
from .errors import ConfigError, DataError, HefitError
from .matmul import ALGORITHMS, KERNELS, count_formula
from .plainref import accuracy, exact_softmax
from .training import MIN_MAX_LEVEL, fit

REPORT_SCHEMA_VERSION = 1

TABLE_SHAPES = "128,128,4;256,256,8;512,769,4;1024,769,8;2048,769,16"

# Nested sampling boxes for softmax benchmarks; a target range R uses every
# canonical box below it plus R itself, so wide cells still hit the
# small-gap regime that dominates worst-case error.
CANONICAL_BOXES = (4, 8, 32, 128)

# Rows per a_softmax call in a Monte Carlo cell, bounding its peak memory.
SOFTMAX_CHUNK = 250_000


# -- train ------------------------------------------------------------------


@dataclass
class RunConfig:
    """Mirror of the ``train`` JSON file; unknown keys are rejected."""

    train_csv: str
    val_csv: str
    test_csv: str | None = None
    classes: int | None = None
    batch_size: int = 64
    learning_rate: float = 0.3
    epochs: int = 40
    patience: int = 3
    slot_count: int = 4096
    grid_rows: int = 64
    max_level: int = 12
    seed: int = 0
    out_dir: str = "."
    softmax: SoftmaxConfig = field(default_factory=SoftmaxConfig)


_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string",
               "bool": "true or false"}


def _fits(value, kind: str) -> bool:
    """Whether a JSON value fits a config field annotated ``kind``."""
    if isinstance(value, bool) or kind == "bool":
        return isinstance(value, bool) and kind == "bool"
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        # JSON writes whole numbers as ints; NaN, infinities and ints beyond
        # the float range all fail the bound
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, str)


def _check_types(section, prefix: str = "") -> None:
    """Every field of a config dataclass holds a value of its annotated type."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        kind, _, optional = f.type.partition(" | ")
        if kind not in _TYPE_NAMES or (value is None and optional == "None"):
            continue
        if not _fits(value, kind):
            raise ConfigError(f"{prefix}{f.name} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _validate_softmax(soft: SoftmaxConfig) -> None:
    _check_types(soft, "softmax.")
    if soft.extension_steps < 0:
        raise ConfigError(
            f"softmax.extension_steps must be non-negative, got {soft.extension_steps}"
        )
    # max_range overflows when the covered box leaves the float range
    try:
        soft.max_range
    except OverflowError:
        raise ConfigError(
            "softmax ranges leave the floating-point range: "
            f"extension_steps {soft.extension_steps}"
        ) from None


def validate_config(cfg: RunConfig) -> None:
    _check_types(cfg)
    _validate_softmax(cfg.softmax)
    s, s0 = cfg.slot_count, cfg.grid_rows
    if not is_pow2(s):
        raise ConfigError(f"slot_count must be a power of two, got {s}")
    if not is_pow2(s0) or s0 > s:
        raise ConfigError(
            f"grid_rows must be a power of two dividing slot_count, got {s0}"
        )
    s1 = s // s0
    if not 1 <= cfg.batch_size <= s0:
        raise ConfigError(
            f"batch_size {cfg.batch_size} must lie in 1..grid_rows ({s0}): "
            "a minibatch has to fit one block of rows"
        )
    # the logits are tiled across a block's columns and W down its rows
    if cfg.classes is not None and not 2 <= cfg.classes <= min(s0, s1):
        raise ConfigError(
            f"classes {cfg.classes} must lie in 2..grid columns ({s1}) "
            f"and in 2..grid_rows ({s0})"
        )
    if cfg.learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {cfg.learning_rate}")
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {cfg.epochs}")
    if cfg.patience < 1:
        raise ConfigError(f"patience must be at least 1, got {cfg.patience}")
    if cfg.max_level < MIN_MAX_LEVEL:
        raise ConfigError(f"max_level must be at least {MIN_MAX_LEVEL}, got {cfg.max_level}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in ("train_csv", "val_csv") if key not in raw]
    if missing:
        raise ConfigError(f"config is missing required keys: {', '.join(missing)}")
    soft = raw.pop("softmax", {})
    if not isinstance(soft, dict):
        raise ConfigError("softmax section must be a JSON object")
    bad = sorted(set(soft) - {f.name for f in dataclasses.fields(SoftmaxConfig)})
    if bad:
        raise ConfigError(f"unknown softmax keys: {', '.join(bad)}")
    cfg = RunConfig(softmax=SoftmaxConfig(**soft), **raw)
    validate_config(cfg)
    return cfg


@contextlib.contextmanager
def _output(path):
    """Map an ``OSError`` from creating or writing the output at ``path``
    (a file or directory) to a :class:`ConfigError` naming the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _writable(path) -> None:
    """Open the file at ``path`` for appending and close it, creating it
    empty if it is missing: the bench commands call this before their first
    case, so an output that cannot be written is refused before any work is
    done, and an existing file keeps its bytes until the run writes it."""
    with _output(path):
        open(path, "a").close()


def _ingest_like(path, classes: int, x_tr, split: str):
    """``(x, y)`` of a split whose feature columns must match the training split's."""
    x, y, _ = ingest(path, classes)
    if x.shape[1] != x_tr.shape[1]:
        raise DataError(
            f"{split} features ({x.shape[1] - 1}) do not match "
            f"training features ({x_tr.shape[1] - 1})"
        )
    return x, y


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    x_tr, y_tr, classes = ingest(cfg.train_csv, cfg.classes)
    if cfg.classes is None:
        # re-check the inferred class count against the grid
        probe = dataclasses.replace(cfg, classes=classes)
        validate_config(probe)
    x_val, y_val = _ingest_like(cfg.val_csv, classes, x_tr, "validation")
    test = None
    if cfg.test_csv is not None:
        test = _ingest_like(cfg.test_csv, classes, x_tr, "test")

    out_dir = Path(cfg.out_dir)
    with _output(out_dir):  # refused before the fit, not after it
        out_dir.mkdir(parents=True, exist_ok=True)
    ctx = EmulatorContext(cfg.slot_count, cfg.grid_rows, max_level=cfg.max_level)
    result = fit(
        x_tr, y_tr, x_val, y_val, classes,
        ctx=ctx, cfg=cfg.softmax,
        lr=cfg.learning_rate, batch_size=cfg.batch_size,
        epochs=cfg.epochs, patience=cfg.patience, seed=cfg.seed,
    )

    acc = {
        "train": accuracy(x_tr @ result.weights.T, y_tr),
        "val": accuracy(x_val @ result.weights.T, y_val),
        "test": accuracy(test[0] @ result.weights.T, test[1]) if test else None,
    }
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": "train",
        "config": dataclasses.asdict(cfg),
        "classes": classes,
        "features": x_tr.shape[1] - 1,
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "stopped_early": result.stopped_early,
        "train_losses": result.train_losses,
        "val_losses": result.val_losses,
        "accuracy": acc,
        "ledger": result.ledger_counts,
        "estimated_ms": result.estimated_ms,
        "softmax_trace": [[lo, hi] for lo, hi in result.softmax_trace],
    }
    report_path = out_dir / "report.json"
    with _output(out_dir):
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        np.savetxt(out_dir / "weights.csv", result.weights, delimiter=",", fmt="%.17g")

    kind = "early stop" if result.stopped_early else "full run"
    print(f"trained {result.epochs_run} epochs ({kind}), best epoch {result.best_epoch}")
    line = (
        f"best val loss {result.val_losses[result.best_epoch - 1]:.6f}; "
        f"accuracy train {acc['train']:.4f} val {acc['val']:.4f}"
    )
    if acc["test"] is not None:
        line += f" test {acc['test']:.4f}"
    print(line)
    print(f"emulated cost {result.estimated_ms:.1f} ms; report -> {report_path}")
    return 0


# -- bench-matmul -------------------------------------------------------------


def parse_shapes(text: str) -> list[tuple[int, int, int]]:
    shapes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 3:
            raise ConfigError(f"bad shape {part!r}, want a,b,c")
        try:
            a, b, c = (int(v) for v in bits)
        except ValueError:
            raise ConfigError(f"bad shape {part!r}, want three integers") from None
        if min(a, b, c) < 1:
            raise ConfigError(f"shape dimensions must be positive, got {part!r}")
        shapes.append((a, b, c))
    if not shapes:
        raise ConfigError("no shapes given")
    return shapes


def run_matmul_case(alg: str, shape: tuple[int, int, int], slots: int) -> dict:
    """Execute one kernel (or price a jin_* baseline) and report its costs."""
    a, b, c = shape
    s0 = min(next_pow2(a), slots)
    s1 = slots // s0
    formula = count_formula(alg, shape, s0, s1)
    case = {
        "algorithm": alg,
        "shape": list(shape),
        "grid": [s0, s1],
        "formula": formula,
        "formula_ms": OpLedger().estimate_ms(formula),
        "executed": False,
    }
    if alg.startswith("jin"):
        return case

    cp = next_pow2(c)
    if cp > min(s0, s1):
        raise ConfigError(
            f"{alg} on shape {shape} needs the padded class count {cp} to fit "
            f"the {s0}x{s1} grid; raise --slots"
        )
    kernel, abt, a_tiling, b_tiling, a_lower = KERNELS[alg]
    rng = np.random.default_rng((a, b, c, ALGORITHMS.index(alg)))
    ctx = EmulatorContext(slots, s0, max_level=12)
    A = rng.uniform(-1.0, 1.0, (a, b) if abt else (a, c))
    B = rng.uniform(-1.0, 1.0, (c, b) if abt else (a, b))
    oracle = A @ B.T if abt else A.T @ B
    ea = encode(ctx, A, tiling=a_tiling, level=ctx.max_level - 1 if a_lower else None)
    eb = encode(ctx, B, tiling=b_tiling)

    before = ctx.ledger.snapshot()
    out = kernel(ea, eb)
    delta = ctx.ledger.delta(before)
    got = decode(out, role="observer", tag="bench-matmul")
    rel = float(
        np.linalg.norm(got - oracle) / max(np.linalg.norm(oracle), 1e-300)
    )
    case.update(
        executed=True,
        counts=delta,
        executed_ms=ctx.ledger.estimate_ms(delta),
        rel_error=rel,
        formula_match=all(delta.get(k, 0) == formula[k] for k in formula),
    )
    return case


def cmd_bench_matmul(args) -> int:
    shapes = parse_shapes(args.shapes)
    if args.algs.strip() == "all":
        algs = list(ALGORITHMS)
    else:
        algs = [t.strip() for t in args.algs.split(",") if t.strip()]
        bad = sorted(set(algs) - set(ALGORITHMS))
        if bad:
            raise ConfigError(
                f"unknown algorithms: {', '.join(bad)} "
                f"(choose from {', '.join(ALGORITHMS)})"
            )
    if args.slots < 2 or not is_pow2(args.slots):
        raise ConfigError(f"--slots must be a power of two, got {args.slots}")

    if args.out:
        _writable(args.out)
    cases = []
    header = f"{'shape':>16} {'algorithm':<13} {'CMult':>7} {'Mult':>7} {'Rot':>7} {'ms':>10} {'rel.err':>9} match"
    print(header)
    for shape in shapes:
        for alg in algs:
            case = run_matmul_case(alg, shape, args.slots)
            cases.append(case)
            f = case["formula"]
            tag = "x".join(str(v) for v in shape)
            if case["executed"]:
                ms, err = case["executed_ms"], f"{case['rel_error']:.2e}"
                match = "yes" if case["formula_match"] else "NO"
            else:
                ms, err, match = case["formula_ms"], "-", "-"
            print(
                f"{tag:>16} {alg:<13} {f['CMult']:>7} {f['Mult']:>7} {f['Rot']:>7} "
                f"{ms:>10.2f} {err:>9} {match}"
            )
    if args.out:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "bench-matmul",
            "slots": args.slots,
            "cases": cases,
        }
        with _output(args.out):
            Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report -> {args.out}")
    if any(c["executed"] and not c["formula_match"] for c in cases):
        raise ConfigError("executed ledger counts diverged from the cost formulas")
    return 0


# -- bench-softmax -------------------------------------------------------------


def sampling_boxes(target_range: int) -> list[int]:
    boxes = [r for r in CANONICAL_BOXES if r < target_range]
    boxes.append(target_range)
    return boxes


def softmax_error_cell(
    classes: int,
    boxes: list[int],
    samples: int,
    cfg: SoftmaxConfig,
    seed_base: int,
) -> tuple[float, float]:
    """Max and mean |a_softmax - softmax| over rows drawn from nested boxes.

    ``samples`` rows are split evenly over the boxes [-r, r]^classes with a
    per-box seed of ``seed_base + box_index``, so every cell is reproducible
    in isolation.
    """
    per = samples // len(boxes)
    worst = 0.0
    total = 0.0
    count = 0
    for idx, r in enumerate(boxes):
        rows = per if idx < len(boxes) - 1 else samples - per * (len(boxes) - 1)
        rng = np.random.default_rng(seed_base + idx)
        done = 0
        while done < rows:
            take = min(SOFTMAX_CHUNK, rows - done)
            x = rng.uniform(-float(r), float(r), size=(take, classes))
            err = np.abs(a_softmax(x, cfg) - exact_softmax(x))
            worst = max(worst, float(err.max()))
            total += float(err.sum())
            count += err.size
            done += take
    return worst, total / count


def softmax_variants(target_range: int) -> dict[str, SoftmaxConfig]:
    """The benchmark configurations for a target box half-width.

    The plain variant (no domain extension) only covers half the base
    range, so it is included only when the box fits; extension steps grow
    beyond the default when the box demands it.
    """
    steps = DEFAULTS.extension_steps
    while SoftmaxConfig(extension_steps=steps).max_range < target_range:
        steps += 1
        _validate_softmax(SoftmaxConfig(extension_steps=steps))  # raises past the float range
    variants: dict[str, SoftmaxConfig] = {}
    if target_range <= BASE_RANGE / 2:
        variants["norm"] = SoftmaxConfig(extension_steps=0, precise=False)
    variants["extn"] = SoftmaxConfig(extension_steps=steps, precise=False)
    variants["prec"] = SoftmaxConfig(extension_steps=steps, precise=True)
    return variants


def cmd_bench_softmax(args) -> int:
    try:
        classes = [int(t) for t in args.classes.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"bad --classes list: {args.classes!r}") from None
    if not classes or min(classes) < 2:
        raise ConfigError("--classes needs integers >= 2")
    if args.range < 1:
        raise ConfigError(f"--range must be at least 1, got {args.range}")
    if args.samples < 100:
        raise ConfigError(f"--samples must be at least 100, got {args.samples}")

    boxes = sampling_boxes(args.range)
    variants = softmax_variants(args.range)
    if args.out:
        _writable(args.out)
    cells = []
    print(f"{'classes':>7} {'variant':<8} {'max':>12} {'avg':>12}")
    for c in classes:
        for name, vcfg in variants.items():
            seed_base = 100_000 * c + 1_000 * args.range
            worst, avg = softmax_error_cell(c, boxes, args.samples, vcfg, seed_base)
            cells.append(
                {
                    "classes": c,
                    "variant": name,
                    "range": args.range,
                    "boxes": boxes,
                    "samples": args.samples,
                    "max_error": worst,
                    "avg_error": avg,
                }
            )
            print(f"{c:>7} {name:<8} {worst:>12.3e} {avg:>12.3e}")
    if args.out:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "bench-softmax",
            "cells": cells,
        }
        with _output(args.out):
            Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report -> {args.out}")
    broken = [
        f"classes {c['classes']} {c['variant']}"
        for c in cells
        if not np.isfinite([c["max_error"], c["avg_error"]]).all()
    ]
    if broken:
        raise ConfigError(
            f"softmax error is not finite at --range {args.range}: {', '.join(broken)}"
        )
    return 0


# -- gen-data -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.classes < 2:
        raise ConfigError(f"--classes must be at least 2, got {args.classes}")
    if args.features < 1:
        raise ConfigError(f"--features must be at least 1, got {args.features}")
    if args.per_class < 1:
        raise ConfigError(f"--per-class must be at least 1, got {args.per_class}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    feats, labels = make_gaussian_mixture(
        args.classes * args.per_class,
        args.classes,
        args.features,
        args.seed,
        balanced=True,
    )
    with _output(args.out):
        save_csv(args.out, feats, labels)
    print(
        f"wrote {feats.shape[0]} rows "
        f"({args.classes} classes x {args.per_class} each) -> {args.out}"
    )
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hefit",
        description="Encrypted multiclass regression on an arithmetic emulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the two-party training loop from a JSON config")
    p.add_argument("--config", required=True, help="path to the run configuration (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "bench-matmul", help="execute the matmul kernels and verify their cost formulas"
    )
    p.add_argument(
        "--shapes",
        default=TABLE_SHAPES,
        help="semicolon-separated a,b,c triples (default: the benchmark set)",
    )
    p.add_argument(
        "--algs",
        default="all",
        help=f"comma list of {', '.join(ALGORITHMS)}, or 'all'",
    )
    p.add_argument("--slots", type=int, default=32768, help="ciphertext slot count")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_bench_matmul)

    p = sub.add_parser(
        "bench-softmax", help="measure softmax approximation error on sampled boxes"
    )
    p.add_argument("--classes", default="3,5,7,10", help="comma list of class counts")
    p.add_argument("--samples", type=int, default=100_000, help="rows per cell")
    p.add_argument("--range", type=int, default=128, help="target box half-width")
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_bench_softmax)

    p = sub.add_parser("gen-data", help="write a balanced synthetic mixture as CSV")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HefitError as exc:
        print(f"hefit: error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
