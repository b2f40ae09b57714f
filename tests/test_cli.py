import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from helpers import load_result, toy_box, toy_net

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
from plverify.gensuite import GenSpec, generate, standard_suite, write_suite
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


def test_loaders_reject_non_finite_numbers(tmp_path):
    # Python's json reads NaN and Infinity: a non-finite weight or bias is
    # rejected at load, naming its layer, and so is a non-finite property
    # coefficient, instead of failing later inside an LP
    path = tmp_path / "bad.json"
    for layer, key, value in ((0, "weight", [[float("nan"), 1.0], [-1.0, -1.0]]), (2, "bias", [float("inf")])):
        doc = formats.network_to_dict(toy_net())
        doc["layers"][layer]["linear"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"layer {layer + 1}: linear weights and biases must be finite"):
            formats.load_network(path)
    for geq in ({"c": [1.0], "b": float("nan")}, {"c": [float("-inf")], "b": 0.0}):
        prop = {"input_lb": [-1.0, -1.0], "input_ub": [1.0, 1.0], "property": {"any": [{"geq": geq}]}}
        path.write_text(json.dumps(prop))
        with pytest.raises(ValueError, match="property coefficients and threshold must be finite"):
            formats.load_property(path)
    nnet = tmp_path / "bad.nnet"
    nnet.write_text("1,1,1,1,\n1,1,\n0,\n-1,\n1,\n0,0,\n1,1,\nnan,\n0.0,\n")
    with pytest.raises(ValueError, match="layer 1: linear weights and biases must be finite"):
        formats.load_nnet(nnet)


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
    doc = load_result(tmp_path / "r.json")
    assert doc["status"] == "UNSAT"
    assert doc["margin"] == pytest.approx(1.0, abs=1e-3)

    rec = run_verify(net, Geq(np.array([1.0]), -3.0), box, "mip-planet-opt", out=tmp_path / "s.json")
    assert rec.status == "SAT"
    doc = load_result(tmp_path / "s.json")
    assert doc["counterexample"] is not None


def test_result_bounds_are_json_and_bracket_the_margin(tmp_path):
    # ub is the smallest output the run saw at a point of the box, so an
    # UNSAT result has lb <= ub; a bound the run never found is null
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    unsat = Geq(np.array([1.0]), -5.0)
    for method in ("babsb", "mip-planet-opt"):
        run_verify(toy_net(), unsat, toy_box(), method, out=tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"), parse_constant=no_constant)
        assert doc["status"] == "UNSAT" and doc["lb"] <= doc["ub"], method
    run_verify(toy_net(), unsat, toy_box(), "mip-planet-opt", timeout=0.0, out=tmp_path / "t.json")
    doc = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"), parse_constant=no_constant)
    assert doc["status"] == "TIMEOUT" and doc["lb"] is None and doc["ub"] is None


def test_sat_lb_is_at_most_the_minimum(tmp_path):
    # a generated instance's minimum is its spec margin, so the lb of a SAT
    # result, when the run found one, is at most that margin (up to the
    # rounding of an LP objective)
    specs = [spec for spec in standard_suite(12, 1000) if spec.margin < 0.0]
    for spec in specs:
        inst = generate(spec.seed, spec)
        for method in METHODS:
            run_verify(inst.net, inst.prop, inst.box, method, out=tmp_path / "r.json")
            doc = load_result(tmp_path / "r.json")
            assert doc["status"] == "SAT", (spec.seed, method)
            assert doc["lb"] is None or doc["lb"] <= spec.margin + 1e-9, (spec.seed, method, doc["lb"])


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
        doc = load_result(r["result_file"])
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
    # a header count that disagrees with the layer sizes is named
    for line, count in (("2,7,3,9,", "input size 7"), ("2,2,3,2,", "output size 3"), ("2,2,1,9,", "largest layer size 9")):
        path.write_text("\n".join(lines[:1] + [line] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match=f"^header {count} does not match the layer sizes"):
            formats.load_nnet(path)
    path.write_text("\n".join(lines[:1] + ["2,2,1,"] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="^header: expected 4 counts, got 3$"):
        formats.load_nnet(path)
    # a count that is not a whole number is rejected, not truncated
    for at, line, field in ((1, "2.5,2,1,2,", "header count"), (1, "2,2,1,2.5,", "header count"), (2, "2,2.5,1,", "layer size")):
        path.write_text("\n".join(lines[:at] + [line] + lines[at + 1 :]) + "\n")
        with pytest.raises(ValueError, match=f"{field} must be a whole number, got 2.5$"):
            formats.load_nnet(path)


def test_nnet_rejects_extra_numbers_and_trailing_lines(tmp_path):
    # one layer 2 -> 1: its weight row holds two numbers, its bias line one,
    # and nothing follows it; each fault is named with its line in the
    # file, comments counted
    head = "// one layer\n1,2,1,2,\n2,1,\n0,\n-1,-1,\n1,1,\n0,0,0,\n1,1,1,\n1.0,2.0,\n"
    path = tmp_path / "bad.nnet"
    path.write_text(head + "0.1,\n")
    assert formats.load_nnet(path).layers[0].bias.tolist() == [0.1]
    path.write_text(head + "0.1,0.2,\n")
    with pytest.raises(ValueError, match="^line 10: bias 0 of layer 1 holds 2 numbers, expected 1$"):
        formats.load_nnet(path)
    path.write_text(head.replace("1.0,2.0,", "1.0,2.0,3.0,") + "0.1,\n")
    with pytest.raises(ValueError, match="^line 9: weight row 0 of layer 1 holds 3 numbers, expected 2$"):
        formats.load_nnet(path)
    path.write_text(head + "0.1,\n// trailer\n9.0,\n")
    with pytest.raises(ValueError, match="^line 12: unexpected content after the last bias$"):
        formats.load_nnet(path)


def test_cli_gen_suite_and_entry_point(tmp_path):
    code = main(["gen-suite", "--out-dir", str(tmp_path / "g"), "--count", "4", "--seed", "500"])
    assert code == 0
    assert len(list((tmp_path / "g").glob("*.net.json"))) == 4



def _rescaled_suite_instance(seed: int, draw: int):
    """Instance ``seed`` of ``standard_suite(60)`` with Linear layer k's
    weights times f_k = 10^U(-6, 6), its bias times F_k = f_1 ... f_k and the
    property threshold times the last F; the factors come from
    ``default_rng(7070)``, two draws per instance in suite order. ReLU is
    positively homogeneous, so the expected verdict stays the instance's."""
    rng = np.random.default_rng(7070)
    for spec in standard_suite(60):
        for d in range(2):
            factors = 10.0 ** rng.uniform(-6.0, 6.0, size=spec.depth + spec.maxpool + 1)
            if (spec.seed, d) != (seed, draw):
                continue
            inst = generate(spec.seed, spec)
            f, scale, layers = iter(factors), 1.0, []
            for layer in inst.net.layers:
                if isinstance(layer, Linear):
                    fk = next(f)
                    scale *= fk
                    layer = Linear(layer.weight * fk, layer.bias * scale)
                layers.append(layer)
            return Network(inst.net.input_size, tuple(layers)), Geq(inst.prop.c, inst.prop.b * scale), inst.box, inst.expected
    raise ValueError(f"no draw {draw} of seed {seed}")


@pytest.mark.parametrize("method", ["mip-planet-opt", "mip-planet-feas"])
def test_a_rescaled_net_ends_without_an_exception(method):
    # seed 1028, draw 0 (last F = 9.6e11): a node LP's dual pass once met a
    # pivot entry that rounds to 0 and divided by it; a numerical failure
    # must end in a verdict or a TIMEOUT, never in an exception
    net, prop, box, expected = _rescaled_suite_instance(1028, 0)
    record = run_verify(net, prop, box, method, timeout=5.0)
    assert record.status in (expected.upper(), "TIMEOUT")
