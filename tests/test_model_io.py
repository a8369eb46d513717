"""Model/index file loading: schema errors, semantic checks, round trips."""

import json
import math
from importlib import resources

import pytest

import resil.model_io
from resil.model_io import Model, load_indices, load_model, write_indices
from resil.oracle import OracleSettings
from resil.resilience import ResilienceIndex
from resil.subsystem import ModelError

from test_interconnect import make_pair


def doc_single():
    return {
        "alpha_z": 1.0,
        "subsystems": [{
            "name": "S1",
            "states": ["x1"], "inputs": ["u1"],
            "f": ["0"], "g": [["1"]],
            "h": "1 - x1", "mu": ["-1"],
            "state_box": [[-1, 1]], "input_box": [[-1, 1]],
        }],
        "couplings": [],
    }


def doc_pair():
    doc = doc_single()
    doc["subsystems"].append({
        "name": "S2",
        "states": ["x2"], "inputs": ["u2"],
        "f": ["0"], "g": [["1"]],
        "h": "1 - x2", "mu": ["-1"],
        "state_box": [[-1, 1]], "input_box": [[-1, 1]],
    })
    doc["couplings"] = [{"from": "S1", "to": "S2", "w": ["0.1*(x1 - x2)"]}]
    return doc


def load_doc(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return load_model(str(path))


def fails_with(tmp_path, doc, fragment):
    with pytest.raises(ModelError) as err:
        load_doc(tmp_path, doc)
    assert fragment in str(err.value)


def test_load_pair_model(tmp_path):
    model = load_doc(tmp_path, doc_pair())
    assert isinstance(model, Model)
    assert model.alpha_z == 1.0
    net = model.network
    assert net.names == ("S1", "S2")
    assert set(net.couplings) == {(0, 1)}
    assert net.incoming(1) == [(0, net.couplings[(0, 1)])]
    assert net.incoming(0) == []


def test_bundled_models_load():
    base = resources.files("resil") / "models"
    for stem in ("toy_linear", "toy_pair", "cstr_series"):
        model = load_model(str(base / f"{stem}.json"))
        assert model.network.subsystems


def test_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{nope")
    with pytest.raises(ModelError) as err:
        load_model(str(path))
    assert "not valid JSON" in str(err.value)


def test_schema_errors_carry_location(tmp_path):
    doc = doc_single()
    del doc["alpha_z"]
    fails_with(tmp_path, doc, "alpha_z")

    for bad in (0, math.inf, math.nan):
        doc = doc_single()
        doc["alpha_z"] = bad
        fails_with(tmp_path, doc, "model.alpha_z")

    doc = doc_single()
    doc["subsystems"] = []
    fails_with(tmp_path, doc, "model.subsystems")

    doc = doc_single()
    doc["subsystems"][0]["f"] = ["x9 + 1"]
    fails_with(tmp_path, doc, "model.subsystems[0].f[0]")

    doc = doc_single()
    doc["subsystems"][0]["h"] = "1 -"
    fails_with(tmp_path, doc, "model.subsystems[0].h")

    doc = doc_single()
    doc["subsystems"][0]["state_box"] = [[-1]]
    fails_with(tmp_path, doc, "state_box[0]")

    doc = doc_single()
    doc["subsystems"][0]["state_box"] = [[-1, "1"]]
    fails_with(tmp_path, doc, "expected a number")


def test_duplicate_subsystem_names(tmp_path):
    doc = doc_pair()
    doc["subsystems"][1]["name"] = "S1"
    doc["couplings"] = []
    fails_with(tmp_path, doc, "unique")


def test_coupling_errors(tmp_path):
    doc = doc_pair()
    doc["couplings"][0]["to"] = "S9"
    fails_with(tmp_path, doc, "model.couplings[0].to")

    doc = doc_pair()
    doc["couplings"].append(dict(doc["couplings"][0]))
    fails_with(tmp_path, doc, "duplicate coupling")

    doc = doc_pair()
    doc["couplings"][0]["w"] = ["x1", "x2"]  # S2 has one state component
    with pytest.raises(ModelError):
        load_doc(tmp_path, doc)

    doc = doc_pair()
    doc["couplings"][0]["w"] = ["u1 + x2"]  # inputs are not coupling vars
    fails_with(tmp_path, doc, "model.couplings[0].w[0]")


def test_empty_safety_set_rejected(tmp_path):
    doc = doc_single()
    doc["subsystems"][0]["h"] = "-1 - x1*x1"
    fails_with(tmp_path, doc, "safety set")


def test_mu_outside_input_box(tmp_path):
    doc = doc_single()
    doc["subsystems"][0]["mu"] = ["10"]
    fails_with(tmp_path, doc, "mu[0]")

    # An explicit saturation clamp makes the same law acceptable.
    doc["subsystems"][0]["mu_saturation"] = [[-1, 1]]
    model = load_doc(tmp_path, doc)
    s = model.network.subsystems[0]
    assert list(s.mu_values((0.0,))) == [1.0]


def test_checks_run_at_the_settings_passed(tmp_path, monkeypatch):
    # The safety-set and mu range checks scan at the caller's settings, and
    # at OracleSettings() when none are given; there is no grid of their own.
    seen = []

    def recording(fn):
        def wrapper(*args):
            seen.append((fn.__name__, args[-1]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(resil.model_io, "sup_h", recording(resil.model_io.sup_h))
    monkeypatch.setattr(resil.model_io, "minimum", recording(resil.model_io.minimum))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc_single()))
    settings = OracleSettings(grid_points_per_dim=7, refinement_rounds=0)
    for passed, expected in ((settings, settings), (None, OracleSettings())):
        seen.clear()
        load_model(str(path), passed)
        assert seen == [("sup_h", expected), ("minimum", expected), ("minimum", expected)]


def test_indices_round_trip(tmp_path):
    net = make_pair()
    indices = {0: ResilienceIndex(0.1, 0.1, 0.1, 1.0),
               1: ResilienceIndex(0.2, 0.3, 0.4, 0.5)}
    path = tmp_path / "idx.json"
    write_indices(str(path), net, indices)
    doc = json.loads(path.read_text())
    assert list(doc) == ["S1", "S2"]
    assert doc["S2"] == {"d": 0.2, "tau": 0.3, "phi": 0.4, "eta": 0.5}
    assert load_indices(str(path), net) == indices


def test_load_indices_errors(tmp_path):
    net = make_pair()
    path = tmp_path / "idx.json"

    path.write_text("[]")
    with pytest.raises(ModelError):
        load_indices(str(path), net)

    path.write_text(json.dumps({"S9": {"d": 0, "tau": 1, "phi": 1, "eta": 0}}))
    with pytest.raises(ModelError) as err:
        load_indices(str(path), net)
    assert "S9" in str(err.value)

    entry = {"d": 0.1, "tau": 0.1, "phi": 0.1, "eta": 1.0}
    path.write_text(json.dumps({"S1": entry}))
    with pytest.raises(ModelError) as err:
        load_indices(str(path), net)
    assert "missing" in str(err.value)

    path.write_text(json.dumps({"S1": entry, "S2": {**entry, "tau": -1}}))
    with pytest.raises(ModelError) as err:
        load_indices(str(path), net)
    assert "S2" in str(err.value)

    path.write_text(json.dumps({"S1": entry, "S2": {**entry, "phi": "x"}}))
    with pytest.raises(ModelError) as err:
        load_indices(str(path), net)
    assert "expected a number" in str(err.value)

    path.write_text(json.dumps({"S1": {"d": 0.1, "tau": 0.1}, "S2": entry}))
    with pytest.raises(ModelError) as err:
        load_indices(str(path), net)
    assert "phi" in str(err.value)
