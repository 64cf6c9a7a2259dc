import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robust_assortment import (ConstantRadius, MnlModel, VaryingRadius, load_model, planning,
                               robust_revenue, save_model)
from robust_assortment.cli import main
from robust_assortment.experiments import EXPERIMENT_NAMES, ExperimentConfig
from robust_assortment.model import R_MAX_CEIL


@pytest.fixture
def model_path(tmp_path):
    m = MnlModel(attractions=np.array([1.0, 0.4, 2.0]),
                 revenues=np.array([1.0, 0.8, 0.3]), r_max=1.0)
    path = tmp_path / "model.json"
    save_model(m, path)
    return str(path)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_plan_outputs_result_json(model_path, tmp_path):
    out = tmp_path / "plan.json"
    code = main(["plan", "--model", model_path, "--rho", "0.1", "--k", "2",
                 "--eps", "1e-5", "--out", str(out)])
    assert code == 0
    payload = _read_json(out)
    assert set(payload) == {"assortment", "value", "certified_level", "evaluations",
                            "best_effort"}
    assert payload["value"] >= 0.0
    brute = tmp_path / "brute.json"
    assert main(["plan", "--model", model_path, "--rho", "0.1", "--k", "2",
                 "--method", "bruteforce", "--out", str(brute)]) == 0
    assert abs(_read_json(brute)["value"] - payload["value"]) <= 1e-4


def test_plan_varying_defaults_vtot_to_model(model_path, tmp_path):
    out = tmp_path / "plan_v.json"
    code = main(["plan", "--model", model_path, "--rho0", "0.05", "--k", "2",
                 "--out", str(out)])
    assert code == 0
    assert _read_json(out)["value"] >= 0.0


def test_simulate_then_learn_deterministic(tmp_path):
    args = ["simulate", "--instance", "exp1", "--n", "2000", "--seed", "7"]
    d1, d2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()

    learn = ["learn", "--data", str(d1), "--k", "3",
             "--rho", "0.1", "--delta", "0.01",
             "--revenues", ",".join(["1.0"] * 15)]
    o1, o2 = tmp_path / "l1.json", tmp_path / "l2.json"
    assert main(learn + ["--out", str(o1)]) == 0
    assert main(learn + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    payload = _read_json(o1)
    assert payload["method"] == "pessimistic"
    assert all(1 <= i <= 15 for i in payload["assortment"])

    baseline = tmp_path / "base.json"
    assert main(learn + ["--baseline", "--out", str(baseline)]) == 0
    assert _read_json(baseline)["method"] == "plugin"

    varying = ["learn", "--data", str(d1), "--k", "3",
               "--rho0", "0.05", "--vtot", "5.03", "--delta", "0.01",
               "--revenues", ",".join(["1.0"] * 15), "--out", str(tmp_path / "v.json")]
    assert main(varying) == 0
    assert all(1 <= i <= 15 for i in _read_json(tmp_path / "v.json")["assortment"])


def test_learn_varying_requires_vtot_without_model(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text('{"assortment": [1], "choice": 1}\n')
    code = main(["learn", "--data", str(data), "--k", "1",
                 "--rho0", "0.05", "--revenues", "1.0"])
    assert code == 1


def test_exp_writes_csvs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "k_grid": [2, 3], "n_effect": 50, "replications": 1,
    }))
    out_dir = tmp_path / "results"
    code = main(["exp", "--name", "exp3", "--seed", "1", "--out", str(out_dir),
                 "--config", str(cfg)])
    assert code == 0
    detail = out_dir / "exp3_detail.csv"
    summary = out_dir / "exp3_summary.csv"
    assert detail.exists() and summary.exists()
    lines = detail.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "mode,family,k,replication,suboptimality"
    sum_header = next(l for l in summary.read_text().splitlines() if not l.startswith("#"))
    assert sum_header == "mode,family,k,mean_suboptimality,replications,loglog_slope"


def _strip_generated(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("# generated")]


def test_exp_rerun_identical_modulo_timestamp(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_grid": [2], "n_effect": 30, "replications": 2}))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["exp", "--name", "exp3", "--seed", "5", "--out", str(d),
                     "--config", str(cfg)]) == 0
    for name in ("exp3_detail.csv", "exp3_summary.csv"):
        assert _strip_generated(d1 / name) == _strip_generated(d2 / name)


def test_demo_subcommand(tmp_path):
    out_dir = tmp_path / "demo"
    assert main(["demo", "--name", "fig2-demo", "--seed", "3", "--out", str(out_dir)]) == 0
    assert (out_dir / "fig2_demo_detail.csv").exists()


def test_usage_error_exits_2():
    for argv in (
        ["plan", "--rho", "0.1"],  # missing required --model
        ["simulate", "--instance", "exp1", "--out", "x.jsonl"],  # missing --seed
        # flags of earlier versions: the revenues give the item count, and the
        # fig demos read no config
        ["learn", "--data", "d.jsonl", "--n-items", "15", "--k", "3", "--rho", "0.1",
         "--revenues", "1"],
        ["demo", "--name", "fig2-demo", "--seed", "1", "--out", "x", "--replications", "1"],
        ["demo", "--name", "fig2-demo", "--seed", "1", "--out", "x", "--config", "c.json"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_runtime_error_exits_1(tmp_path):
    assert main(["plan", "--model", str(tmp_path / "missing.json"),
                 "--rho", "0.1", "--k", "1"]) == 1


def test_model_without_field_is_a_typed_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"revenues": [1.0, 0.5]}))
    assert main(["plan", "--model", str(path), "--rho", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'attractions'" in err and "Traceback" not in err


@pytest.mark.parametrize("payload, named", [
    ({"attractions": {"a": 1}, "revenues": [1]}, "'attractions' must be a list of finite"),
    ({"attractions": [1], "revenues": [1], "r_max": [1]}, "'r_max' must be a finite number"),
    ({"attractions": [1, True], "revenues": [1, 1]}, "'attractions' must be a list of finite"),
    ({"attractions": [1], "revenues": "1"}, "'revenues' must be a list of finite"),
    ({"attractions": [1], "revenues": [10 ** 400]}, "'revenues' must be a list of finite"),
    ({"attractions": [float("nan")], "revenues": [1]}, "'attractions' must be a list of finite"),
])
def test_model_field_of_the_wrong_type_is_one_error_line(tmp_path, capsys, payload, named):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert main(["plan", "--model", str(path), "--rho", "0.1"]) == 1
    _one_error_line(capsys, named)


def test_model_with_an_unknown_field_is_one_error_line(tmp_path, capsys):
    # a misspelt r_max would otherwise plan at r_max = max(revenues)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"attractions": [1, 2], "revenues": [0.5, 0.2], "rmax": 1000}))
    assert main(["plan", "--model", str(path), "--rho", "0.1"]) == 1
    _one_error_line(capsys, "'rmax'")


def test_plan_without_eps_plans_to_the_revenue_scale(tmp_path, monkeypatch):
    # plan_general probes eps/2 above its seed's value first, so the gap between
    # the two shows the eps it plans to: 1e-5 * r_max = 0.01 here
    seeds, levels = [], []
    best_row, min_level_slack = planning._best_row, planning._min_level_slack

    def seed_spy(*args):
        items, value = best_row(*args)
        seeds.append(value)
        return items, value

    def level_spy(fam, level, *args, **kwargs):
        levels.append(level)
        return min_level_slack(fam, level, *args, **kwargs)

    monkeypatch.setattr(planning, "_best_row", seed_spy)
    monkeypatch.setattr(planning, "_min_level_slack", level_spy)
    path = tmp_path / "model.json"
    save_model(MnlModel(attractions=np.array([1.0, 0.4, 2.0]),
                        revenues=np.array([1000.0, 800.0, 300.0])), path)
    assert main(["plan", "--model", str(path), "--rho", "0.1", "--k", "2",
                 "--out", str(tmp_path / "plan.json")]) == 0
    assert len(seeds) == 1 and levels
    assert levels[0] - seeds[0] == pytest.approx(0.005, rel=1e-6)


@pytest.mark.parametrize("name, text, where", [
    ("nochoice.jsonl", '{"assortment": [1], "choice": 1}\n{"assortment": [1]}\n',
     "line 2: record has no 'choice'"),
    ("noassortment.jsonl", '{"choice": 0}\n', "line 1: record has no 'assortment'"),
    ("badjson.jsonl", '{"assortment": [1], "choice": 1}\n\n{"assortment": [1], "choice": 1,}\n',
     "line 3: invalid JSON"),
    ("nochoice.csv", "assortment\n1\n", "line 2: record has no 'choice'"),
    ("baditem.csv", "assortment,choice\n1,1\n1;x,0\n", "line 3: malformed record"),
])
def test_dataset_line_errors_name_the_file_line(tmp_path, capsys, name, text, where):
    data = tmp_path / name
    data.write_text(text)
    assert main(["learn", "--data", str(data), "--k", "1",
                 "--rho", "0.1", "--revenues", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("config, named", [
    ({"replications": 1, "n_efect": 5, "k_gird": [2]}, "k_gird, n_efect"),
    ({"seed": 3}, "seed"),
    # keys that configs of earlier versions set
    ({"workers": 2}, "workers"),
    ({"delta": 0.01}, "delta"),
    ({"eps_plan": 1e-6}, "eps_plan"),
    ({"rho_exp3": 0.2}, "rho_exp3"),
    ({"rho0_exp3": 0.01}, "rho0_exp3"),
])
def test_exp_config_errors_are_typed(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["exp", "--name", "exp3", "--seed", "1", "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_plan_general_method_matches_bruteforce(model_path, tmp_path):
    general, brute = tmp_path / "general.json", tmp_path / "brute.json"
    for method, out in (("general", general), ("bruteforce", brute)):
        assert main(["plan", "--model", model_path, "--rho0", "0.05", "--k", "2",
                     "--eps", "1e-6", "--method", method, "--out", str(out)]) == 0
    payload = _read_json(general)
    assert payload["certified_level"] == payload["value"]
    assert abs(payload["value"] - _read_json(brute)["value"]) <= 1e-6


def test_simulate_exp3_dumps_its_model(tmp_path):
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert main(["simulate", "--instance", "exp3-nonuniform", "--k", "2", "--n-effect", "5",
                 "--seed", "3", "--out", str(data), "--dump-model", str(model)]) == 0
    dumped = _read_json(model)
    assert len(dumped["attractions"]) == 50 and dumped["r_max"] == 1.0
    assert dumped["revenues"][:8] == [1.0] * 8 and dumped["revenues"][8:] == [0.0] * 42
    assert len(data.read_text().splitlines()) == 4 * 2 * 5


def test_learn_takes_revenues_from_the_model(model_path, tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps({"assortment": [1, 2, 3], "choice": c}) + "\n"
                            for c in [0, 1, 2, 3, 1, 3, 3, 0, 1, 2] * 20))
    from_model, given = tmp_path / "m.json", tmp_path / "r.json"
    common = ["learn", "--data", str(data), "--k", "2", "--rho", "0.1"]
    assert main(common + ["--model", model_path, "--out", str(from_model)]) == 0
    assert main(common + ["--revenues", "1.0,0.8,0.3", "--out", str(given)]) == 0
    assert from_model.read_bytes() == given.read_bytes()
    assert len(_read_json(from_model)["v_lcb"]) == 3


def test_learn_plans_at_the_model_r_max(tmp_path, monkeypatch):
    # the model's r_max, not its largest revenue 0.5, sets the planning scale and
    # so the default eps of 1e-5 r_max
    r_maxes, plan_general = [], planning.plan_general

    def spy(model, *args, **kwargs):
        r_maxes.append(model.r_max)
        return plan_general(model, *args, **kwargs)

    monkeypatch.setattr(planning, "plan_general", spy)
    model = tmp_path / "m.json"
    save_model(MnlModel(attractions=np.ones(3), revenues=np.array([0.5, 0.2, 0.4]),
                        r_max=1000.0), model)
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps({"assortment": [1, 2, 3], "choice": c}) + "\n"
                            for c in [0, 1, 2, 3, 1, 3, 3, 0, 1, 2] * 20))
    assert main(["learn", "--data", str(data), "--k", "2", "--rho", "0.1", "--model", str(model),
                 "--out", str(tmp_path / "learned.json")]) == 0
    assert r_maxes == [1000.0]


def test_exp_config_list_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["replications", 1]]))
    assert main(["exp", "--name", "exp3", "--seed", "1", "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "JSON object" in err[0]


def test_exp_replications_flag_sets_the_replications(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_grid": [2], "n_effect": 20}))
    out_dir = tmp_path / "out"
    assert main(["exp", "--name", "exp3", "--seed", "2", "--out", str(out_dir),
                 "--config", str(cfg), "--replications", "3"]) == 0
    rows = [line for line in (out_dir / "exp3_detail.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    assert sorted({line.split(",")[3] for line in rows}) == ["0", "1", "2"]


def test_simulate_negative_record_count_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["simulate", "--instance", "exp1", "--n", "-5", "--seed", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "n must be" in lines[0]
    assert "Traceback" not in err and not out.exists()


def _one_error_line(capsys, named):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
    assert "Traceback" not in err


def test_exp_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replications": "a"}))
    assert main(["exp", "--name", "exp3", "--seed", "1", "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    _one_error_line(capsys, "replications")


def test_exp_zero_replications_is_one_error_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["exp", "--name", "exp3", "--seed", "1", "--out", str(out_dir),
                 "--replications", "0"]) == 1
    _one_error_line(capsys, "replications")
    assert not out_dir.exists()


def test_learn_negative_revenue_is_one_error_line(tmp_path, capsys):
    # item 2 is never chosen, so its lower confidence bound is 0 and the
    # planner never sees its revenue
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps({"assortment": [1, 2], "choice": c}) + "\n"
                            for c in [0, 1, 1, 0, 1] * 20))
    assert main(["learn", "--data", str(data), "--k", "1", "--rho", "0.1",
                 "--revenues", "1.0,-1"]) == 1
    _one_error_line(capsys, "revenue")


@pytest.mark.parametrize("name, data, where", [
    ("d.jsonl", b'{"assortment": [1], "choice": 1}\n{"assortment": [1], "choice": 1\xff}\n',
     "line 2: malformed record: byte 0xff"),
    ("d.csv", b"assortment,choice\n1,1\n1,\xff\n", "line 3: malformed record: byte 0xff"),
])
def test_dataset_that_is_not_utf8_is_one_error_line(tmp_path, capsys, name, data, where):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["learn", "--data", str(path), "--k", "1", "--rho", "0.1",
                 "--revenues", "1.0"]) == 1
    _one_error_line(capsys, where)


def test_learn_without_revenues_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    data.write_text('{"assortment": [1], "choice": 1}\n')
    assert main(["learn", "--data", str(data), "--k", "1", "--rho", "0.1"]) == 1
    _one_error_line(capsys, "--revenues or --model")


def test_simulate_exp3_without_k_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["simulate", "--instance", "exp3-uniform", "--seed", "1",
                 "--out", str(out)]) == 1
    _one_error_line(capsys, "--k is required")
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_learn_k_below_one_is_one_error_line(tmp_path, capsys, k):
    data = tmp_path / "d.jsonl"
    data.write_text('{"assortment": [1], "choice": 1}\n')
    assert main(["learn", "--data", str(data), "--k", k, "--rho", "0.1",
                 "--revenues", "1.0"]) == 1
    _one_error_line(capsys, "k must be")


@pytest.mark.parametrize("revenues, k", [
    ([1.0, 1.0, 1.0], "2"),  # uniform revenues
    ([1.0, 0.8, 0.3], "3"),  # k = n: the unconstrained optimum
    ([1.0, 0.8, 0.3], "2"),  # the general planner
])
def test_eps_that_is_not_positive_is_one_error_line_on_every_path(tmp_path, capsys, revenues, k):
    path = tmp_path / "model.json"
    save_model(MnlModel(attractions=np.array([1.0, 0.4, 2.0]), revenues=np.array(revenues)), path)
    data = tmp_path / "d.jsonl"
    data.write_text("".join(json.dumps({"assortment": [1, 2, 3], "choice": c}) + "\n"
                            for c in [0, 1, 2, 3] * 25))
    for eps in ("0", "-1", "nan"):
        assert main(["plan", "--model", str(path), "--rho", "0.1", "--k", k, "--eps", eps]) == 1
        _one_error_line(capsys, "eps")
        assert main(["learn", "--data", str(data), "--model", str(path), "--rho", "0.1",
                     "--k", k, "--eps", eps]) == 1
        _one_error_line(capsys, "eps")


def test_plan_on_a_subnormal_revenue_scale_is_one_error_line(tmp_path, capsys):
    # the dual's lambda floor, 1e-12 * r_max, would not be a normal float
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"attractions": [1, 2, 0.5, 1.5],
                                "revenues": [1e-318, 5e-319, 8e-319, 2e-319]}))
    assert main(["plan", "--model", str(path), "--rho", "0.1", "--k", "2"]) == 1
    _one_error_line(capsys, "r_max")


# --- malformed input files, generated --------------------------------------

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
                     st.floats(), st.text(max_size=4))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_POSITIVE = st.floats(1e-4, 1e4) | st.integers(1, 4)
_NUMBER = _POSITIVE | st.sampled_from(
    [0, -1.0, 1e-300, 1e300, 10 ** 400, float("nan"), float("inf")])


def _model_payload(pairs, fields) -> dict:
    """Attractions and revenues of one length, with ``fields`` set over them."""
    return {"attractions": [v for v, _ in pairs], "revenues": [r for _, r in pairs], **fields}


_MODELS = st.one_of(_JSON, st.builds(
    _model_payload, st.lists(st.tuples(_POSITIVE, _POSITIVE) | st.tuples(_NUMBER, _NUMBER),
                             max_size=5),
    st.dictionaries(st.sampled_from(("attractions", "revenues", "r_max")),
                    _NUMBER | st.lists(_NUMBER, max_size=5) | _JSON, max_size=2)))
_IDS = st.one_of(st.integers(-1, 4), st.integers(), st.floats(-1.0, 5.0), _SCALARS)
_RECORDS = st.one_of(st.fixed_dictionaries(
    {"assortment": st.lists(_IDS, max_size=3) | _JSON, "choice": _IDS | _JSON}), _JSON)
_CSV_FIELDS = st.text(alphabet="0123;-. ,x\"", max_size=6)
# every config holds one entry that no experiment setting accepts, so none runs
_SETTINGS = sorted(ExperimentConfig.__dataclass_fields__)
_CONFIGS = st.builds(lambda extra, key, bad: {**extra, key: bad},
                     st.dictionaries(st.sampled_from(_SETTINGS) | st.text(max_size=6), _JSON,
                                     max_size=4),
                     st.sampled_from(_SETTINGS),
                     st.one_of(st.text(max_size=4), st.booleans(),
                               st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2)))


def _not_a_config(data: bytes) -> bool:
    try:
        return not isinstance(json.loads(data), dict)
    except ValueError:
        return True


def _json_file(payload) -> bytes:
    return json.dumps(payload).encode()


def _jsonl_file(records) -> bytes:
    return "\n".join(map(json.dumps, records)).encode()


def _csv_file(rows) -> bytes:
    return "".join(f"{a},{b}\n" for a, b in [("assortment", "choice"), *rows]).encode()


_FILES = st.one_of(
    st.tuples(st.just("model.json"), _MODELS.map(_json_file) | st.binary(max_size=20)),
    st.tuples(st.just("data.jsonl"),
              st.lists(_RECORDS, max_size=4).map(_jsonl_file) | st.binary(max_size=20)),
    st.tuples(st.just("data.csv"), st.lists(st.tuples(_CSV_FIELDS, _CSV_FIELDS), max_size=4)
              .map(_csv_file) | st.binary(max_size=20)),
    st.tuples(st.just("config.json"), _CONFIGS.map(_json_file)
              | st.binary(max_size=20).filter(_not_a_config)),
)


def _argv(name: str, path: str, out: str, flag: str) -> list[str]:
    if name == "model.json":
        return ["plan", "--model", path, "--k", "2", flag, "0.05", "--out", out]
    if name == "config.json":
        return ["exp", "--name", flag, "--seed", "1", "--out", out, "--config", path]
    return ["learn", "--data", path, "--k", "2", "--rho", "0.1", "--revenues", "1,0.5,0.2",
            "--out", out]


@settings(max_examples=300, deadline=None)
@example(("model.json", b'{"attractions": {"a": 1}, "revenues": [1]}'), "--rho", "exp1")
@example(("model.json", b'{"attractions": [1], "revenues": [1e300]}'), "--rho", "exp1")
@example(("config.json", b'{"rho_grid": [1' + b"0" * 400 + b'], "k_grid": "x"}'),
         "--rho", "exp1")
@given(_FILES, st.sampled_from(("--rho", "--rho0")), st.sampled_from(EXPERIMENT_NAMES))
def test_malformed_files_exit_with_one_error_line(file, flag, experiment):
    """A model, dataset or config file of any content ends the run with exit 0, 1
    or 2.  An exception that escapes ``main`` is what would print a traceback;
    exit 1 prints exactly one ``error:`` line."""
    name, data = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        argv = _argv(name, str(path), str(Path(tmp) / "out"),
                     experiment if name == "config.json" else flag)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (code == 1)


# --- valid model files at extreme scales, planned through the CLI ----------

def _log_scale(lo: float, hi: float):
    """Numbers from lo to hi, spread evenly over their logarithms."""
    return st.floats(0.0, 1.0).map(lambda x: min(hi, max(lo, lo * (hi / lo) ** x)))


@st.composite
def _planned_models(draw):
    """A valid model payload with 1-7 items: attractions 1e-4 to 1e4, revenues
    on a grid of r_max (so tied and zero) or anywhere below it, and r_max from
    1e-3 up to ``R_MAX_CEIL``."""
    n = draw(st.integers(1, 7))
    r_max = draw(_log_scale(1e-3, R_MAX_CEIL))
    shares = st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0)
    return {"attractions": draw(st.lists(_log_scale(1e-4, 1e4), min_size=n, max_size=n)),
            "revenues": [share * r_max for share in
                         draw(st.lists(shares, min_size=n, max_size=n))],
            "r_max": r_max}


@settings(max_examples=300, deadline=None)
@given(_planned_models(), st.data(), st.sampled_from(("--rho", "--rho0")))
def test_plan_of_a_valid_model_is_its_own_robust_revenue(payload, data, flag):
    """The CLI plans every valid model: it prints a plan whose value is the robust
    revenue of its assortment, bit for bit, or refuses a --rho0 beyond its bound
    with one ``error:`` line."""
    n = len(payload["attractions"])
    k = data.draw(st.integers(1, n), label="k")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        model = load_model(path)
        if flag == "--rho":
            radius = data.draw(_log_scale(1e-11, 30.0), label="rho")
            spec, beyond = ConstantRadius(radius), False
        else:
            bound = math.log1p(1.0 / model.v_tot)
            radius = data.draw(st.floats(0.0, 1.2), label="share of the bound") * bound
            beyond = not radius < bound
            spec = None if beyond else VaryingRadius(radius, model.v_tot)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["plan", "--model", str(path), "--k", str(k), flag, repr(radius)])
    if beyond:
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: rho0 must")
        return
    assert code == 0, err.getvalue()
    result = json.loads(out.getvalue())
    assert len(result["assortment"]) <= k
    own = robust_revenue(model, result["assortment"], spec, allow_degenerate=True).value
    assert result["value"] == own
