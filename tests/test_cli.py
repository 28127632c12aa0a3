"""Dataset I/O and the four CLI subcommands, run in-process via main()."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit.approx import SoftmaxConfig
from hefit.cli import (
    RunConfig,
    load_config,
    main,
    parse_shapes,
    sampling_boxes,
    softmax_variants,
)
from hefit.datasets import ingest, load_csv, make_gaussian_mixture, save_csv
from hefit.errors import ConfigError, DataError


# -- synthetic data --------------------------------------------------------------


def test_mixture_shapes_and_determinism():
    x1, y1 = make_gaussian_mixture(50, 3, 7, seed=5)
    x2, y2 = make_gaussian_mixture(50, 3, 7, seed=5)
    assert x1.shape == (50, 7) and y1.shape == (50,)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    x3, _ = make_gaussian_mixture(50, 3, 7, seed=6)
    assert np.abs(x1 - x3).max() > 1e-3


def test_mixture_balanced_counts():
    _, y = make_gaussian_mixture(60, 4, 2, seed=0, balanced=True)
    assert np.bincount(y, minlength=4).tolist() == [15, 15, 15, 15]
    with pytest.raises(DataError, match="not divisible"):
        make_gaussian_mixture(61, 4, 2, seed=0, balanced=True)


def test_mixture_argument_validation():
    with pytest.raises(DataError):
        make_gaussian_mixture(10, 1, 3, seed=0)
    with pytest.raises(DataError):
        make_gaussian_mixture(0, 3, 3, seed=0)


def test_csv_roundtrip_is_exact(tmp_path, rng):
    x = rng.normal(size=(17, 4)) * 1e3
    y = rng.integers(0, 5, size=17)
    path = tmp_path / "data.csv"
    save_csv(path, x, y)
    gx, gy = load_csv(path)
    np.testing.assert_array_equal(gx, x)  # repr() emits round-trippable floats
    np.testing.assert_array_equal(gy, y)


def test_save_csv_rejects_mismatched_labels(tmp_path, rng):
    with pytest.raises(DataError, match="do not pair"):
        save_csv(tmp_path / "x.csv", rng.normal(size=(4, 2)), np.zeros(3, dtype=int))


def test_load_csv_handwritten_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n1.5,-2.0,0\n\n0.25,3.0,2\n")
    x, y = load_csv(path)
    np.testing.assert_array_equal(x, [[1.5, -2.0], [0.25, 3.0]])  # blank line skipped
    np.testing.assert_array_equal(y, [0, 2])


@pytest.mark.parametrize(
    "content,match",
    [
        ("", "empty file"),
        ("f0,f1,label\n", "no data rows"),
        ("f0,f1,score\n1,2,0\n", "header must end"),
        ("label\n0\n", "header must end"),
        ("f0,f1,label\n1.0,2.0,0\n1.0,0\n", r"tiny.csv:3: expected 3 columns, got 2"),
        ("f0,f1,label\n1.0,two,0\n", r"tiny.csv:2: "),
        ("f0,f1,label\n1.0,2.0,1.5\n", r"tiny.csv:2: "),
        ("f0,label\n1.0,0\nnan,1\n", "data row 2 has a NaN or infinite feature"),
        ("f0,label\ninf,0\n", "data row 1 has a NaN or infinite feature"),
        ("f0,label\n-inf,0\n", "data row 1 has a NaN or infinite feature"),
        (b"f0,label\n1.0,\xff\n", "not UTF-8 text"),
        ("f0,label\n1.0,99999999999999999999999\n", r"tiny.csv:2: label .* int64"),
        ("f0,label\n1_0.5,0\n", r"tiny.csv:2: underscore"),
        ("f0,label\n1.0,2_0\n", r"tiny.csv:2: underscore"),
    ],
)
def test_load_csv_rejects_malformed_files(tmp_path, content, match):
    path = tmp_path / "tiny.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(DataError, match=match):
        load_csv(path)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.lists(st.sampled_from(["", "0", "-1", "2.5", "nan", "inf", "1e400", "x",
                                      "99999999999999999999999", "\udcff", '"', "label"]),
                     min_size=1, max_size=4),
            max_size=4,
        ).map(lambda rows: "\n".join(",".join(r) for r in rows).encode("utf-8", "surrogateescape")),
    )
)
def test_any_bytes_load_or_raise_data_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "any.csv"
    path.write_bytes(data)
    try:
        x, y = load_csv(path)
    except DataError:
        return
    assert x.ndim == 2 and x.shape[0] == y.shape[0] >= 1
    assert np.isfinite(x).all()
    assert y.dtype == np.int64


def test_load_csv_accepts_spaces_around_fields(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n 1.5 ,-2.0, 2\n")
    x, y = load_csv(path)
    np.testing.assert_array_equal(x, [[1.5, -2.0]])
    np.testing.assert_array_equal(y, [2])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="nope.csv"):
        load_csv(tmp_path / "nope.csv")


def test_ingest_appends_bias_and_infers_classes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,2\n")
    x, y, classes = ingest(path)
    np.testing.assert_array_equal(x, [[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]])
    assert classes == 3  # max label + 1


def test_ingest_validates_label_range(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,label\n1.0,2\n")
    with pytest.raises(DataError, match="out of range"):
        ingest(path, classes=2)
    path.write_text("f0,label\n1.0,-1\n")
    with pytest.raises(DataError, match="negative label"):
        ingest(path)


# -- CLI plumbing ----------------------------------------------------------------


def test_parse_shapes():
    assert parse_shapes("16,16,4; 10,40,8 ;") == [(16, 16, 4), (10, 40, 8)]
    for bad in ["16,16", "a,b,c", "0,4,4", ""]:
        with pytest.raises(ConfigError):
            parse_shapes(bad)


def test_sampling_boxes_nest_below_target():
    assert sampling_boxes(4) == [4]
    assert sampling_boxes(8) == [4, 8]
    assert sampling_boxes(128) == [4, 8, 32, 128]
    assert sampling_boxes(20) == [4, 8, 20]


def test_softmax_variants_gate_and_growth():
    v4 = softmax_variants(4)
    assert set(v4) == {"norm", "extn", "prec"}
    assert v4["norm"].extension_steps == 0
    v128 = softmax_variants(128)
    assert set(v128) == {"extn", "prec"}  # norm covers only half the base range
    assert softmax_variants(300)["extn"].max_range >= 300


# -- end-to-end subcommands --------------------------------------------------------


def write_split(tmp_path, *, classes=3, features=5, seed=17):
    """One mixture split into train/val/test files from the same draw."""
    x, y = make_gaussian_mixture(120, classes, features, seed=seed, mean_scale=2.0)
    paths = {}
    for name, sl in [("train", slice(0, 80)), ("val", slice(80, 100)), ("test", slice(100, 120))]:
        p = tmp_path / f"{name}.csv"
        save_csv(p, x[sl], y[sl])
        paths[name] = str(p)
    return paths


def write_config(tmp_path, paths, **overrides):
    cfg = {
        "train_csv": paths["train"],
        "val_csv": paths["val"],
        "test_csv": paths["test"],
        "batch_size": 16,
        "epochs": 2,
        "slot_count": 256,
        "grid_rows": 16,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_gen_data_writes_balanced_csv(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    rc = main(["gen-data", "--classes", "3", "--features", "4",
               "--per-class", "10", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert "wrote 30 rows" in capsys.readouterr().out
    x, y, classes = ingest(out)
    assert x.shape == (30, 5) and classes == 3
    assert np.bincount(y).tolist() == [10, 10, 10]


def test_gen_data_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "mix.csv"
    rc = main(["gen-data", "--classes", "2", "--features", "2", "--per-class", "3",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"hefit: error [cli.config]: cannot write {out}: ")


def test_gen_data_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gen-data", "--classes", "2", "--features", "3", "--per-class", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_report_and_weights(tmp_path, capsys):
    paths = write_split(tmp_path)
    cfg_path = write_config(tmp_path, paths)
    rc = main(["train", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trained 2 epochs" in out and "report ->" in out

    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "train"
    assert report["classes"] == 3
    assert report["features"] == 5
    assert report["epochs_run"] == 2
    assert len(report["val_losses"]) == 2
    assert len(report["train_losses"]) == 2
    assert set(report["accuracy"]) == {"train", "val", "test"}
    assert all(v is not None for v in report["accuracy"].values())
    assert report["ledger"]["Mult"] > 0
    assert report["estimated_ms"] > 0
    assert report["config"]["batch_size"] == 16
    assert "_compensation_sign" not in report["config"]["softmax"]

    weights = np.loadtxt(tmp_path / "out" / "weights.csv", delimiter=",")
    assert weights.shape == (3, 6)  # classes x (features + bias)


def test_train_out_dir_naming_a_file_is_a_config_error(tmp_path, capsys):
    paths = write_split(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_path = write_config(tmp_path, paths, out_dir=str(taken))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith(f"hefit: error [cli.config]: cannot write {taken}: ")


def test_train_is_deterministic(tmp_path):
    paths = write_split(tmp_path)
    outs = []
    for name in ("out1", "out2"):
        cfg_path = write_config(tmp_path, paths, out_dir=str(tmp_path / name))
        assert main(["train", "--config", str(cfg_path)]) == 0
        outs.append(tmp_path / name)
    r1 = (outs[0] / "report.json").read_text()
    r2 = (outs[1] / "report.json").read_text()
    assert r1.replace("out1", "X") == r2.replace("out2", "X")  # only out_dir differs
    assert (outs[0] / "weights.csv").read_bytes() == (outs[1] / "weights.csv").read_bytes()


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"bogus_key": 1}, "unknown config keys: bogus_key"),
        ({"batch_size": 32}, "must lie in 1..grid_rows"),
        ({"slot_count": 300}, "power of two"),
        ({"learning_rate": 0.0}, "must be positive"),
        ({"softmax": {"unknown_knob": 2}}, "unknown softmax keys"),
        ({"classes": 64}, "must lie in 2..grid columns"),
        ({"batch_size": "16"}, "batch_size must be an integer, got '16'"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"classes": 2.5}, "classes must be an integer, got 2.5"),
        ({"learning_rate": float("nan")}, "learning_rate must be a finite number, got nan"),
        ({"learning_rate": "fast"}, "learning_rate must be a finite number"),
        ({"out_dir": 7}, "out_dir must be a string, got 7"),
        ({"softmax": {"inv_iters": 16}}, "unknown softmax keys: inv_iters"),
        ({"softmax": {"precise": 1}}, "softmax.precise must be true or false, got 1"),
        ({"softmax": {"base_range": 8.0}}, "unknown softmax keys: base_range"),
        ({"softmax": {"extension_base": 2.0}}, "unknown softmax keys: extension_base"),
        ({"softmax": {"exp_range": 8192}}, "unknown softmax keys: exp_range"),
        ({"softmax": {"extension_steps": -1}}, "softmax.extension_steps must be non-negative"),
        ({"softmax": {"inv_range": 100.0}}, "unknown softmax keys: inv_range"),
        # every removed key is named, and a valid key beside one does not help
        ({"softmax": {"inv_range": 1.0, "base_range": 0}},
         "unknown softmax keys: base_range, inv_range"),
        ({"softmax": {"extension_steps": 3, "exp_range": 3}}, "unknown softmax keys: exp_range"),
        ({"softmax": {"extension_steps": 5000}}, "softmax ranges leave the floating-point range"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"max_level": 4}, "max_level must be at least 5, got 4"),
    ],
)
def test_train_config_errors(tmp_path, capsys, overrides, fragment):
    paths = write_split(tmp_path)
    cfg_path = write_config(tmp_path, paths, **overrides)
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("hefit: error [cli.config]:")
    assert fragment in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


def _json_objects(dataclass_type):
    keys = st.sampled_from([f.name for f in dataclasses.fields(dataclass_type)]) | st.text(max_size=6)
    return st.dictionaries(keys, _JSON_VALUES, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    start_valid=st.booleans(),
    run=_json_objects(RunConfig),
    soft=st.none() | _json_objects(SoftmaxConfig),
)
def test_any_json_object_loads_or_raises_config_error(tmp_path_factory, start_valid, run, soft):
    raw = {"train_csv": "t.csv", "val_csv": "v.csv"} if start_valid else {}
    raw.update(run)
    if soft is not None:
        raw["softmax"] = soft
    path = tmp_path_factory.getbasetemp() / "any-config.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_classes_must_fit_the_block_rows(tmp_path):
    # W is tiled vertically, so its period must fit grid_rows as well as the
    # logits' fits the grid columns; otherwise training fails after ingest
    path = tmp_path / "run.json"
    raw = {"train_csv": "t.csv", "val_csv": "v.csv", "slot_count": 4096, "grid_rows": 2,
           "batch_size": 2, "classes": 3}
    path.write_text(json.dumps(raw))
    limits = r"must lie in 2\.\.grid columns \(2048\) and in 2\.\.grid_rows \(2\)"
    with pytest.raises(ConfigError, match=limits):
        load_config(path)
    path.write_text(json.dumps({**raw, "classes": 2}))
    assert load_config(path).classes == 2


def test_train_missing_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"epochs": 3}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "missing required keys: train_csv, val_csv" in capsys.readouterr().err


@pytest.mark.parametrize("key,split", [("val_csv", "validation"), ("test_csv", "test")])
def test_train_feature_mismatch_is_a_data_error(tmp_path, capsys, key, split):
    paths = write_split(tmp_path)
    narrow = make_gaussian_mixture(20, 3, 2, seed=1)
    save_csv(tmp_path / "narrow.csv", *narrow)
    cfg_path = write_config(tmp_path, paths, **{key: str(tmp_path / "narrow.csv")})
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("hefit: error [cli.data]:")
    assert f"{split} features (2) do not match training features (5)" in err


def test_bench_matmul_small_grid(tmp_path, capsys):
    out = tmp_path / "bm.json"
    rc = main(["bench-matmul", "--shapes", "16,16,4;10,40,8",
               "--slots", "256", "--out", str(out)])
    assert rc == 0
    assert "report ->" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["command"] == "bench-matmul"
    assert len(payload["cases"]) == 2 * 7  # 5 executed kernels + 2 jin baselines
    for case in payload["cases"]:
        if case["executed"]:
            assert case["formula_match"] is True
            assert case["rel_error"] < 1e-9
        else:
            assert case["algorithm"].startswith("jin")


def test_bench_matmul_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "bm.json"
    rc = main(["bench-matmul", "--shapes", "4,4,2", "--slots", "256", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"hefit: error [cli.config]: cannot write {out}: ")


def test_bench_matmul_prices_padded_class_count():
    # the diagonal kernels run 5 classes at period 8, and are priced there
    assert main(["bench-matmul", "--shapes", "64,100,5", "--slots", "4096"]) == 0


def test_bench_matmul_rejects_unknown_algorithm(capsys):
    rc = main(["bench-matmul", "--algs", "magic", "--shapes", "4,4,2"])
    assert rc == 1
    assert "unknown algorithms: magic" in capsys.readouterr().err


def test_bench_matmul_rejects_oversized_classes(capsys):
    # c padded to 32 cannot fit a 16x16 grid
    rc = main(["bench-matmul", "--shapes", "16,16,20", "--slots", "256",
               "--algs", "diag_abt"])
    assert rc == 1
    assert "raise --slots" in capsys.readouterr().err


def test_bench_softmax_small_run(tmp_path, capsys):
    out = tmp_path / "bs.json"
    rc = main(["bench-softmax", "--classes", "3", "--samples", "400",
               "--range", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    cells = payload["cells"]
    assert [c["variant"] for c in cells] == ["norm", "extn", "prec"]
    for cell in cells:
        assert cell["boxes"] == [4]
        assert 0 <= cell["avg_error"] <= cell["max_error"] < 0.05
    # on the core box the plain variant is near machine precision
    assert cells[0]["max_error"] < 1e-9


def test_bench_softmax_unwritable_output_is_a_config_error(tmp_path, capsys):
    # the output's directory is a file
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "bs.json"
    rc = main(["bench-softmax", "--classes", "3", "--samples", "100", "--range", "4",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"hefit: error [cli.config]: cannot write {out}: ")


@pytest.mark.parametrize(
    "args,fragment",
    [
        (["bench-softmax", "--classes", "1"], "needs integers >= 2"),
        (["bench-softmax", "--classes", "x"], "bad --classes"),
        (["bench-softmax", "--samples", "5"], "at least 100"),
        (["bench-softmax", "--range", "0"], "at least 1"),
        (["bench-matmul", "--slots", "100"], "power of two"),
        (["gen-data", "--classes", "1", "--features", "2", "--per-class", "3",
          "--out", "x.csv"], "at least 2"),
        (["gen-data", "--classes", "2", "--features", "2", "--per-class", "3",
          "--seed", "-1", "--out", "x.csv"], "--seed must be non-negative"),
        (["bench-softmax", "--range", str(2**1100)], "leave the floating-point range"),
        (["bench-softmax", "--classes", "3", "--samples", "100", "--range", "300"],
         "softmax error is not finite at --range 300: classes 3 extn, classes 3 prec"),
    ],
)
def test_subcommand_validation_errors(capsys, args, fragment):
    assert main(args) == 1
    assert fragment in capsys.readouterr().err
