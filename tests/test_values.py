"""The contract of the package's eleven immutable value types: how they bind
their fields, compare, hash, print, copy and pickle, and that they refuse
assignment and deletion."""

import copy
import pickle

import pytest

from latinplex.constructions import WitnessCertificate
from latinplex.core import Isotopy, StepTypeSpec
from latinplex.lsgraph import (
    CorrespondenceReport,
    DomaticReport,
    DominationCertificate,
    EquivalenceReport,
)
from latinplex.plexes import CellSet, PlexCensus, SweepReport, SweepRow

DIAGONAL = CellSet(3, [(3, 3), (1, 1), (2, 2)], "transversal")
ROW = SweepRow("cyclic(3)", 3, True, True, True)
CELLS = ((1, 1), (2, 2), (3, 3))

#: (class, every field by name in order, the defaults, repr of the first)
CASES = [
    (StepTypeSpec, {"m": 2, "q": 3}, {}, "StepTypeSpec(m=2, q=3)"),
    (Isotopy, {"f": (2, 1), "g": (1, 2), "h": (2, 1)}, {},
     "Isotopy(f=(2, 1), g=(1, 2), h=(2, 1))"),
    (CellSet, {"square_order": 3, "cells": [(3, 3), (1, 1), (2, 2)], "kind": "transversal",
               "k": None}, {"k": None},
     "CellSet(square_order=3, cells=((1, 1), (2, 2), (3, 3)), kind='transversal', k=None)"),
    (PlexCensus, {"square_order": 3, "kind": "transversal", "count": 3,
                  "witnesses": (DIAGONAL,), "truncated": True},
     {"witnesses": (), "truncated": False},
     "PlexCensus(square_order=3, kind='transversal', count=3, witnesses=(CellSet("
     "square_order=3, cells=((1, 1), (2, 2), (3, 3)), kind='transversal', k=None),), "
     "truncated=True)"),
    (SweepRow, {"label": "cyclic(2)", "order": 2, "near": True, "quasi": False,
                "two_plex": False, "note": "vacuous"}, {"note": ""},
     "SweepRow(label='cyclic(2)', order=2, near=True, quasi=False, two_plex=False, "
     "note='vacuous')"),
    (SweepReport, {"rows": (ROW,), "counterexample": ROW}, {"counterexample": None},
     "SweepReport(rows=(SweepRow(label='cyclic(3)', order=3, near=True, quasi=True, "
     "two_plex=True, note=''),), counterexample=SweepRow(label='cyclic(3)', order=3, "
     "near=True, quasi=True, two_plex=True, note=''))"),
    (DominationCertificate, {"k": 3, "ell": None, "cells": CELLS, "verdict": False,
                             "deficient": ((1, 2, 2),)}, {"deficient": ()},
     "DominationCertificate(k=3, ell=None, cells=((1, 1), (2, 2), (3, 3)), verdict=False, "
     "deficient=((1, 2, 2),))"),
    (EquivalenceReport, {"is_3ds_of_size_n": True, "is_13_ids_of_size_n": True,
                         "is_transversal": False}, {},
     "EquivalenceReport(is_3ds_of_size_n=True, is_13_ids_of_size_n=True, "
     "is_transversal=False)"),
    (DomaticReport, {"k": 3, "parts": (CELLS,), "verdict": True, "is_partition": False,
                     "implied_lower_bound": 1, "failures": ("part 2 is empty",)},
     {"failures": ()},
     "DomaticReport(k=3, parts=(((1, 1), (2, 2), (3, 3)),), verdict=True, "
     "is_partition=False, implied_lower_bound=1, failures=('part 2 is empty',))"),
    (CorrespondenceReport, {"is_quasi": True, "is_3ds": True, "forward_ok": True,
                            "scan_total_3ds": 4, "scan_quasi_count": 3,
                            "scan_non_quasi_examples": (CELLS,)},
     {"scan_total_3ds": None, "scan_quasi_count": None, "scan_non_quasi_examples": ()},
     "CorrespondenceReport(is_quasi=True, is_3ds=True, forward_ok=True, scan_total_3ds=4, "
     "scan_quasi_count=3, scan_non_quasi_examples=(((1, 1), (2, 2), (3, 3)),))"),
    (WitnessCertificate, {"claim": "3ds-q1", "square": {"generator": "cyclic",
                                                        "params": {"n": 3}},
                          "witness": DIAGONAL, "provenance": "paper-formula",
                          "verdict": True, "notes": ("a note",)},
     {"notes": ()},
     "WitnessCertificate(claim='3ds-q1', square={'generator': 'cyclic', 'params': {'n': 3}}, "
     "witness=CellSet(square_order=3, cells=((1, 1), (2, 2), (3, 3)), kind='transversal', "
     "k=None), provenance='paper-formula', verdict=True, notes=('a note',))"),
]
IDS = [case[0].__name__ for case in CASES]


def build(cls, fields):
    return cls(*fields.values())


@pytest.mark.parametrize("cls,fields,defaults,text", CASES, ids=IDS)
class TestValueContract:
    def test_positional_and_keyword_binding_agree(self, cls, fields, defaults, text):
        value = build(cls, fields)
        assert value == cls(**fields)
        assert value == cls(*list(fields.values())[:1], **dict(list(fields.items())[1:]))
        for name, given in fields.items():
            if name != "cells":  # a CellSet stores its cells sorted
                assert getattr(value, name) == given

    def test_omitted_fields_take_their_defaults(self, cls, fields, defaults, text):
        value = cls(**{name: v for name, v in fields.items() if name not in defaults})
        for name, default in defaults.items():
            assert getattr(value, name) == default
        if any(fields[name] != default for name, default in defaults.items()):
            assert value != build(cls, fields)

    def test_bad_calls_raise_type_error(self, cls, fields, defaults, text):
        values = list(fields.values())
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*values, values[0])  # one value too many
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values[:1], **{first: values[0]})  # the first field twice
        required = [name for name in fields if name not in defaults]
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in required[1:]})

    def test_equal_only_within_the_class(self, cls, fields, defaults, text):
        value = build(cls, fields)
        assert value == build(cls, fields) and not value != build(cls, fields)
        assert value != tuple(getattr(value, name) for name in fields)
        subclass = type("Sub" + cls.__name__, (cls,), {})
        assert value != build(subclass, fields)
        others = [build(c, f) for c, f, _, _ in CASES if c is not cls]
        assert all(value != other for other in others)

    def test_equal_values_hash_equal(self, cls, fields, defaults, text):
        value = build(cls, fields)
        if cls is WitnessCertificate:  # its square descriptor is a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(build(cls, fields))
            assert len({value, build(cls, fields)}) == 1

    def test_repr(self, cls, fields, defaults, text):
        assert repr(build(cls, fields)) == text

    def test_assignment_and_deletion_raise(self, cls, fields, defaults, text):
        value = build(cls, fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            value.no_such_field = 1
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == build(cls, fields)

    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy,
        *(lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_round_trip_equal(self, cls, fields, defaults, text, round_trip):
        value = build(cls, fields)
        twin = round_trip(value)
        assert twin == value and type(twin) is cls
        assert repr(twin) == text
