import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from helpers import toy_box, toy_net

from plverify import formats
from plverify.canon import AllClause, AnyClause, Geq, validate_counterexample
from plverify.cli import (
    METHODS,
    cactus,
    main,
    run_bench,
    run_verify,
    write_cactus_csv,
    write_records_csv,
)
from plverify.gensuite import GenSpec, write_suite
from plverify.model import BoxDomain, Linear, MaxPool, Network, Relu


def _write_toy(tmp_path, b=-5.0):
    net_path = tmp_path / "toy.net.json"
    prop_path = tmp_path / "toy.prop.json"
    formats.save_network(toy_net(), net_path)
    formats.save_property(Geq(np.array([1.0]), b), toy_box(), prop_path)
    return net_path, prop_path


def test_network_round_trip_bytes(tmp_path):
    net = Network(
        2,
        (
            Linear(np.array([[0.1, -2.5], [1.0, 3.0]]), np.array([0.0, -1.25])),
            Relu(),
            Linear(np.array([[1.0, 1.0]]), np.array([0.5])),
        ),
    )
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    formats.save_network(net, p1)
    formats.save_network(formats.load_network(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_property_round_trip_bytes(tmp_path):
    prop = AnyClause(
        (
            Geq(np.array([1.0, -1.0]), 0.25),
            AllClause((Geq(np.array([0.5, 0.5]), -1.0), Geq(np.array([-1.0, 0.0]), 0.0))),
        )
    )
    box = BoxDomain(np.array([-1.0, 0.125]), np.array([1.0, 2.0]))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    formats.save_property(prop, box, p1)
    loaded_prop, loaded_box = formats.load_property(p1)
    formats.save_property(loaded_prop, loaded_box, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_network_validates(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other", "input_size": 1, "layers": []}))
    with pytest.raises(ValueError, match="unsupported format"):
        formats.load_network(path)
    path.write_text("{ truncated")
    with pytest.raises(json.JSONDecodeError):
        formats.load_network(path)
    doc = {
        "format": "plnn-v1",
        "input_size": 2,
        "layers": [{"relu": {}}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="first layer must be linear"):
        formats.load_network(path)
    # a count or an index that is not a whole number is rejected, not truncated
    linear = {"linear": {"weight": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]}}
    for size in (2.5, True, "2"):
        path.write_text(json.dumps({"format": "plnn-v1", "input_size": size, "layers": [linear]}))
        with pytest.raises(ValueError, match=f"input_size must be a whole number, got {size!r}"):
            formats.load_network(path)
    for group in ([0.0, 1.5], [True, 0]):
        path.write_text(json.dumps({"format": "plnn-v1", "input_size": 2, "layers": [linear, {"maxpool": {"groups": [group]}}]}))
        with pytest.raises(ValueError, match="maxpool group index must be a whole number"):
            formats.load_network(path)
    doc = {"format": "plnn-v1", "input_size": 2.0, "layers": [linear, {"maxpool": {"groups": [[1.0, 0]]}}]}
    path.write_text(json.dumps(doc))
    assert formats.load_network(path).layers[1].groups == ((1, 0),)


def test_load_property_rejects_bad_box(tmp_path):
    path = tmp_path / "bad.prop.json"
    path.write_text(json.dumps({"input_lb": [0.0], "input_ub": [-1.0], "property": {"geq": {"c": [1.0], "b": 0.0}}}))
    with pytest.raises(ValueError):
        formats.load_property(path)


def test_toy_network_file_roundtrip(tmp_path):
    net_path, prop_path = _write_toy(tmp_path)
    net = formats.load_network(net_path)
    assert net.input_size == 2
    assert [l.out_width for l in net.layers if hasattr(l, "out_width")] == [2, 1]
    prop, box = formats.load_property(prop_path)
    assert isinstance(prop, Geq)
    assert np.allclose(box.lb, [-2.0, -2.0])


def test_run_verify_toy_unsat_and_sat(tmp_path):
    net, box = toy_net(), toy_box()
    rec = run_verify(net, Geq(np.array([1.0]), -5.0), box, "babsb", out=tmp_path / "r.json")
    assert rec.status == "UNSAT"
    doc = formats.load_result(tmp_path / "r.json")
    assert doc["status"] == "UNSAT"
    assert doc["margin"] == pytest.approx(1.0, abs=1e-3)

    rec = run_verify(net, Geq(np.array([1.0]), -3.0), box, "mip-planet-opt", out=tmp_path / "s.json")
    assert rec.status == "SAT"
    doc = formats.load_result(tmp_path / "s.json")
    assert doc["counterexample"] is not None


def test_run_verify_timeout_zero(tmp_path):
    rec = run_verify(toy_net(), Geq(np.array([1.0]), -5.0), toy_box(), "babsb", timeout=0.0)
    assert rec.status == "TIMEOUT"


def test_run_verify_handles_maxpool_property(tmp_path):
    # OR property introduces a MaxPool; every method must lower and solve it
    prop = AnyClause((Geq(np.array([1.0]), -5.0), Geq(np.array([1.0]), -4.9)))
    for method in ("babsb", "mip-planet-feas"):
        rec = run_verify(toy_net(), prop, toy_box(), method)
        assert rec.status == "UNSAT"


def test_cli_main_exit_codes(tmp_path):
    net_path, prop_path = _write_toy(tmp_path, b=-5.0)
    code = main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--method", "babsb", "--out", str(tmp_path / "out.json")])
    assert code == 0
    net_path, prop_path = _write_toy(tmp_path, b=-3.0)
    code = main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--method", "bab-input"])
    assert code == 1
    code = main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--method", "babsb", "--timeout", "0"])
    assert code == 2
    code = main(["verify", "--net", str(tmp_path / "missing.json"), "--prop", str(prop_path), "--method", "babsb"])
    assert code == 3


@pytest.mark.parametrize("method", ["babsb", "mip-planet-opt"])
def test_cli_rejects_a_nested_box(tmp_path, capsys, method):
    net_path, prop_path = _write_toy(tmp_path)
    doc = json.loads(prop_path.read_text())
    doc["input_lb"] = [[v] for v in doc["input_lb"]]
    doc["input_ub"] = [[v] for v in doc["input_ub"]]
    prop_path.write_text(json.dumps(doc))
    code = main(["verify", "--net", str(net_path), "--prop", str(prop_path), "--method", method])
    assert code == 3
    assert "error: domain bounds must be vectors, got shape (2, 1)" in capsys.readouterr().err


def test_bench_and_cactus(tmp_path):
    suite = tmp_path / "suite"
    write_suite([GenSpec(2, 2, 3, margin=1.0, seed=21), GenSpec(2, 2, 3, margin=-1.0, seed=22)], suite)
    out_csv = tmp_path / "runs.csv"
    records = run_bench(suite, ["babsb", "mip-planet-opt"], out_csv, timeout=30.0)
    assert len(records) == 4  # 2 problems x 2 methods
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["status"] for r in rows} == {"UNSAT", "SAT"}

    # SAT rows reference a result file whose counterexample re-validates
    for r in rows:
        if r["status"] != "SAT":
            continue
        doc = formats.load_result(r["result_file"])
        net = formats.load_network(suite / f"{r['problem']}.net.json")
        prop, box = formats.load_property(suite / f"{r['problem']}.prop.json")
        from plverify.canon import canonicalize

        problem = canonicalize(net, prop, box)
        assert validate_counterexample(problem, np.array(doc["counterexample"]), 1e-6)

    rows = cactus(out_csv)
    for method in ("babsb", "mip-planet-opt"):
        sub = [(b, f) for m, b, f in rows if m == method]
        assert sub == sorted(sub)
        fractions = [f for _, f in sub]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0)


def test_bench_names_the_result_file_of_an_error_run(tmp_path, monkeypatch):
    from plverify import cli

    def failing(*args, **kwargs):
        raise RuntimeError("forced")

    suite = tmp_path / "suite"
    write_suite([GenSpec(2, 2, 3, margin=1.0, seed=21)], suite)
    monkeypatch.setattr(cli, "run_verify", failing)
    out_csv = tmp_path / "runs.csv"
    records = run_bench(suite, ["babsb"], out_csv)
    with open(out_csv) as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == records[0].status == "ERROR"
    assert row["result_file"] == records[0].result_file
    doc = json.loads(open(row["result_file"], encoding="utf-8").read())
    assert doc == {"status": "ERROR", "error": "forced"}


def test_cactus_all_timeout_and_instant(tmp_path):
    path = tmp_path / "runs.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["problem", "method", "status", "time_s", "nodes", "lb", "ub", "spurious_candidates", "result_file"])
        w.writerow(["p1", "slow", "TIMEOUT", "60.0", "5", "0", "0", "0", ""])
        w.writerow(["p2", "slow", "TIMEOUT", "60.0", "5", "0", "0", "0", ""])
        w.writerow(["p1", "fast", "UNSAT", "0.0", "1", "1", "1", "0", ""])
        w.writerow(["p2", "fast", "SAT", "0.0", "1", "-1", "-1", "0", ""])
    rows = cactus(path)
    slow = [(b, f) for m, b, f in rows if m == "slow"]
    assert slow == [(0.0, 0.0)]
    fast = [(b, f) for m, b, f in rows if m == "fast"]
    assert fast == [(0.0, 1.0)]  # both instant solves collapse into one row


def test_deterministic_csv_identical_modulo_time(tmp_path):
    suite = tmp_path / "suite"
    write_suite([GenSpec(2, 2, 3, margin=0.5, seed=31), GenSpec(3, 2, 3, margin=-0.5, seed=32)], suite)
    rows = []
    for k in range(2):
        out_csv = tmp_path / f"runs{k}.csv"
        run_bench(suite, ["babsb", "bab-relusplit"], out_csv, timeout=30.0, seed=5)
        with open(out_csv) as fh:
            rows.append([{k: v for k, v in r.items() if k != "time_s"} for r in csv.DictReader(fh)])
    assert rows[0] == rows[1]


def test_nnet_import(tmp_path):
    content = """// test network
2,2,1,2,
2,2,1,
0,
-1.0,-1.0,
1.0,1.0,
0.0,0.0,0.0,
1.0,1.0,1.0,
1.0,0.5,
-0.5,1.0,
0.1,
-0.2,
1.0,-1.0,
0.0,
"""
    path = tmp_path / "tiny.nnet"
    path.write_text(content)
    net = formats.load_nnet(path)
    assert net.input_size == 2
    from plverify.model import forward_eval

    # hidden = relu([x1 + 0.5 x2 + 0.1, -0.5 x1 + x2 - 0.2]); out = h1 - h2
    out = forward_eval(net, np.array([1.0, 1.0]))
    h1, h2 = max(1.6, 0.0), max(0.3, 0.0)
    assert out[0] == pytest.approx(h1 - h2)
    # a truncated file names the part it lacks
    lines = content.splitlines()
    cuts = [
        (1, "header"),
        (2, "layer sizes"),
        (5, "flag or input normalisation lines"),
        (8, "weight row 0 of layer 1"),
        (11, "bias 1 of layer 1"),
        (13, "bias 0 of layer 2"),
    ]
    for keep, missing in cuts:
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(ValueError, match=f"truncated .nnet file: missing the {missing}$"):
            formats.load_nnet(path)
    # a count that is not a whole number is rejected, not truncated
    for at, line, field in ((1, "2.5,2,1,2,", "header count"), (1, "2,2,1,2.5,", "header count"), (2, "2,2.5,1,", "layer size")):
        path.write_text("\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n")
        with pytest.raises(ValueError, match=f"{field} must be a whole number, got 2.5$"):
            formats.load_nnet(path)


def test_cli_gen_suite_and_entry_point(tmp_path):
    code = main(["gen-suite", "--out-dir", str(tmp_path / "g"), "--count", "4", "--seed", "500"])
    assert code == 0
    assert len(list((tmp_path / "g").glob("*.net.json"))) == 4
