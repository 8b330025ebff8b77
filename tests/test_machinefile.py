import hashlib
import json
import re
import time
import tracemalloc

import pytest

from digitseq import catalog, dfao, morphic
from digitseq.dpao import Dpao
from digitseq.errors import ValidationError
from digitseq.machinefile import (load_machine, loads_machine,
                                  machine_to_dict, save_machine)


class TestRoundTrips:
    def test_every_catalog_machine(self, tmp_path):
        for name in catalog.names():
            machine = catalog.get(name)
            path = tmp_path / f"{name}.json"
            save_machine(machine, path)
            assert load_machine(path) == machine
            assert load_machine(path, with_digest=True) == (
                machine, hashlib.sha256(path.read_bytes()).hexdigest())

    # sha256 of each exported catalogue file: the bytes the catalogue
    # wrote when it built each model and saved it
    CATALOGUE_SHA256 = {
        "three-squares": "3d8681b88eac2fcecb9bc02c08bec6ada971fb0f34f531cdf2a928deffafd6ba",
        "thue-morse": "2c3364bf22175adb134ff8626f2863a3b4df4f2a8452192584e0373ae5b8aa72",
        "thue-morse-morphic": "467de4766634b0a2c57b4ff3f25f02e2a4093e2661e2835b6c27ebbe550877f5",
        "xi1": "3dc91862390d1b18909fd97bfa7bdf20075a36c9fb75a69eef1e2497d63949ed",
        "squares": "864cf3f690d923be516604c79b2e8ac403215415fc090494ea830806948cd035",
        "xi2": "994810972a81bd20df741e726cc9c112cc2c07ab23d82c2cb29ef6cd18701d55",
    }

    def test_catalogue_documents_are_valid_models(self):
        kinds = {"three-squares": dfao.Dfao, "thue-morse": dfao.Dfao,
                 "thue-morse-morphic": morphic.MorphicSpec,
                 "xi1": morphic.MorphicSpec, "squares": morphic.MorphicSpec,
                 "xi2": Dpao}
        assert catalog.names() == tuple(kinds)
        for name, model in kinds.items():
            machine = catalog.get(name)
            assert type(machine) is model
            assert machine.validate().ok, name
        with pytest.raises(ValueError, match="unknown catalog machine"):
            catalog.get("thue_morse")

    def test_catalogue_export_is_the_saved_models_byte_for_byte(
            self, tmp_path):
        written = catalog.export_all(tmp_path / "export")
        assert written == [str(tmp_path / "export" / f"{name}.json")
                           for name in catalog.names()]
        for name in catalog.names():
            saved = tmp_path / f"{name}.json"
            save_machine(catalog.get(name), saved)
            data = (tmp_path / "export" / f"{name}.json").read_bytes()
            assert data == saved.read_bytes(), name
            assert (hashlib.sha256(data).hexdigest()
                    == self.CATALOGUE_SHA256[name]), name

    def test_dfao_document_shape(self, tm_dfao):
        doc = machine_to_dict(tm_dfao)
        assert doc["kind"] == "dfao"
        assert doc["delta"]["q0"] == {"0": "q0", "1": "q1"}
        assert doc["output"]["q1"] == "1"

    def test_morphic_document_shape(self, xi1):
        doc = machine_to_dict(xi1)
        assert doc["rules"] == {"a": "acb", "b": "abc", "c": "c"}
        assert doc["coding"] == {"a": "0", "b": "1", "c": "2"}

    def test_dpao_document_shape(self, xi2):
        doc = machine_to_dict(xi2)
        assert doc["stack"] == ["X"]
        pushes = {(t["state"], t["top"], t["input"]): t["push"]
                  for t in doc["transitions"]}
        assert pushes[("q1", "X", "1")] == "XX"
        assert pushes[("q0", "#", "1")] == ""
        assert doc["output"]["q0"] == {"#": "1", "X": "0"}


class TestStrictness:
    def test_unknown_top_level_field(self, tm_dfao):
        doc = machine_to_dict(tm_dfao)
        doc["comment"] = "hello"
        with pytest.raises(ValueError, match="unknown"):
            loads_machine(json.dumps(doc))

    def test_unknown_transition_field(self, xi2):
        doc = machine_to_dict(xi2)
        doc["transitions"][0]["note"] = "x"
        with pytest.raises(ValueError, match="unknown"):
            loads_machine(json.dumps(doc))

    def test_unknown_kind(self):
        # a kind that is no string, and so may be no dict key, is unknown
        # too rather than a TypeError
        for kind in ('"turing"', '["dfao"]', "{}", "null", "7"):
            with pytest.raises(ValueError, match="unknown machine kind"):
                loads_machine(f'{{"kind": {kind}}}')

    def test_only_a_model_serializes(self, tm_dfao):
        # MODELS is keyed by class: anything else is a TypeError naming
        # its type, not a KeyError
        for thing in ("dfao", machine_to_dict(tm_dfao), None):
            with pytest.raises(TypeError, match="^cannot serialize "
                               f"{type(thing).__name__}$"):
                machine_to_dict(thing)

    def test_duplicate_transition_is_a_determinism_conflict(self, xi2):
        doc = machine_to_dict(xi2)
        doc["transitions"].append(dict(doc["transitions"][0]))
        with pytest.raises(ValidationError):
            loads_machine(json.dumps(doc))

    def test_missing_digit_transition(self, tm_dfao):
        # the model's own rule reports it: the reader only parses the row
        for digit in ("0", "1"):
            doc = machine_to_dict(tm_dfao)
            del doc["delta"]["q0"][digit]
            with pytest.raises(ValidationError) as info:
                loads_machine(json.dumps(doc))
            assert info.value.report.errors == [
                ("missing-transition", "state 'q0' defines 1 of 2 digit "
                                       "transitions")]
        # a row with a gap names no digit for the targets after the gap
        doc = machine_to_dict(tm_dfao) | {"k": 3}
        doc["delta"]["q0"] = {"0": "q0", "2": "zz"}
        doc["delta"]["q1"] = {"0": "q0", "1": "q1", "2": "q0"}
        with pytest.raises(ValidationError) as info:
            loads_machine(json.dumps(doc))
        assert info.value.report.errors == [
            ("missing-transition", "state 'q0' defines 2 of 3 digit "
                                   "transitions")]

    @pytest.mark.parametrize("name, edit, message", [
        # read as 0, " 0" replaced the "0" entry: another machine, picked
        # by key order, printed 0110101110111010 for thue-morse
        ("thue-morse",
         lambda d: d["delta"].update(q0={"0": "q0", " 0": "q1", "1": "q1"}),
         '" 0" is not a base-2 digit 0..1'),
        ("thue-morse", lambda d: d.update(k="2"),
         "'k' must be a JSON integer, got \"2\""),
        ("thue-morse", lambda d: d.update(k=2.9),
         "'k' must be a JSON integer, got 2.9"),
        ("xi2", lambda d: next(t for t in d["transitions"]
                               if t["input"] == "0").update(input=0.7),
         "0.7 is not a base-2 digit 0..1"),
    ], ids=["dfao-digit-with-space", "k-string", "k-float",
            "dpao-input-float"])
    def test_digits_and_k_are_written_one_way(self, name, edit, message):
        doc = machine_to_dict(catalog.get(name))
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            loads_machine(json.dumps(doc))

    @pytest.mark.parametrize("name", ["xi2", "thue-morse"])
    def test_huge_base_costs_the_file_not_k(self, name):
        # rows are filled and checked from their own entries, never range(k)
        doc = machine_to_dict(catalog.get(name))
        doc["k"] = 10 ** 9
        text = json.dumps(doc)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValidationError):
                loads_machine(text)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 2 ** 20


class TestEncodings:
    def test_tag_kind_is_a_morphic_alias(self, xi1):
        doc = machine_to_dict(xi1)
        doc["kind"] = "tag"
        assert loads_machine(json.dumps(doc)) == xi1

    def test_tag_is_written_back_as_morphic(self, xi1):
        doc = machine_to_dict(xi1) | {"kind": "tag"}
        written = machine_to_dict(loads_machine(json.dumps(doc)))
        assert written == doc | {"kind": "morphic"}

    def test_eps_input_encoding(self):
        doc = {
            "kind": "dpao",
            "k": 2,
            "states": ["p", "q"],
            "initial": "p",
            "stack": ["X"],
            "transitions": [
                {"state": "p", "top": "#", "input": "0", "to": "p", "push": "X"},
                {"state": "p", "top": "#", "input": "1", "to": "q", "push": ""},
                {"state": "p", "top": "X", "input": "0", "to": "p", "push": "XX"},
                {"state": "p", "top": "X", "input": "1", "to": "q", "push": "X"},
                {"state": "q", "top": "X", "input": "eps", "to": "p", "push": ""},
                {"state": "q", "top": "#", "input": "0", "to": "q", "push": ""},
                {"state": "q", "top": "#", "input": "1", "to": "q", "push": ""},
            ],
            "output": {"p": {"#": "0", "X": "1"}, "q": {"#": "0", "X": "1"}},
        }
        m = loads_machine(json.dumps(doc))
        assert (("q", "X", None) in m.transitions)
        assert m.validate().ok
        # round trip keeps the eps row
        back = loads_machine(json.dumps(machine_to_dict(m)))
        assert back == m

    def test_multi_character_letters_use_arrays(self, tm_morphic):
        doc = machine_to_dict(tm_morphic)
        assert doc["rules"]["q0"] == ["q0", "q1"]
        assert loads_machine(json.dumps(doc)) == tm_morphic


class TestConversionFiles:
    def test_converted_machine_file_matches_catalog(self, tmp_path,
                                                    tm_morphic, tm_dfao):
        converted = morphic.to_dfao(tm_morphic)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_machine(converted, a)
        save_machine(tm_dfao, b)
        assert a.read_text() == b.read_text()
