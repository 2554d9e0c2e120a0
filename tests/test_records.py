"""chorkit's records: how they are built, compared and printed, and what
a fresh import of the CLI loads.

The frozen records are NamedTuples; ``Verdict`` is a mutable
``__slots__`` class.  ``str()`` and repr read as they did when
the records were dataclasses, and ``tests/cli_golden.json`` pins what
the CLI prints from them.
"""

import json
import os
import subprocess
import sys

import pytest
from conftest import CORPUS, load_program

from chorkit.checker import Counterexample, HypothesisFailure, Verdict, verify_epp
from chorkit.chor import CHOR_END, ChorProgram, CommEta, Interaction, WfViolation
from chorkit.core import EMPTY_STATE, Lit, RunResult
from chorkit.net import Network
from chorkit.projection import ProjectionError, ProjectionFailure, epp, infer_params
from chorkit.runtime import ExecutionReport, RuntimeConfig

SRC = CORPUS.parent / "src"

# ``dataclasses`` and the modules it loads: about 16 ms of start-up.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _loaded_by(module: str) -> list:
    """The modules of HEAVY that a fresh interpreter loads to import
    ``module`` from ``src``, beyond what it had loaded at start-up."""
    code = (
        "import sys; before = set(sys.modules); import " + module + "; import json; "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules and m not in before]))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(out.stdout)


class TestImportFootprint:
    def test_cli_imports_none_of_the_heavy_modules(self):
        assert _loaded_by("chorkit.cli") == []

    def test_the_check_sees_a_heavy_import(self):
        # the same subprocess check reports a module that does load them
        assert "inspect" in _loaded_by("dataclasses")


# field names, in order, and defaults of each frozen record
FROZEN = {
    RunResult: (("trace", "final", "final_state", "outcome"), {}),
    WfViolation: (("rule", "path", "detail"), {}),
    ProjectionFailure: (
        ("process", "path", "kind", "conflict", "detail"),
        {"conflict": None, "detail": ""},
    ),
    Counterexample: (
        ("direction", "config", "depth", "label", "explanation", "successors"),
        {"successors": ()},
    ),
    HypothesisFailure: (("name", "detail"), {}),
    ExecutionReport: (
        ("trace", "final_state", "final_net", "outcome", "error"),
        {"error": None},
    ),
    RuntimeConfig: (
        ("seed", "step_timeout_ms", "max_steps"),
        {"seed": 0, "step_timeout_ms": 2000, "max_steps": 10000},
    ),
}
FROZEN_IDS = [cls.__name__ for cls in FROZEN]

VERDICT_FIELDS = (
    "status", "depth", "configs_explored", "transitions_matched", "counterexample",
    "hypothesis_failures", "determinism_checks", "determinism_violations",
    "stability_checks", "stability_violations", "locality_checks",
    "locality_violations", "successors_derived", "successors_reused",
)


class TestFrozenRecords:
    @pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
    def test_fields_and_defaults(self, cls):
        fields, defaults = FROZEN[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        required = len(fields) - len(defaults)
        built = cls(*range(1, required + 1))
        assert tuple(getattr(built, f) for f in fields[required:]) == tuple(defaults.values())

    @pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
    def test_positional_and_keyword_construction_agree(self, cls):
        fields = FROZEN[cls][0]
        values = range(1, len(fields) + 1)
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert [getattr(by_keyword, f) for f in fields] == list(values)
        assert by_position != cls(*[v + 1 for v in values])

    @pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
    def test_fields_cannot_be_assigned(self, cls):
        fields = FROZEN[cls][0]
        record = cls(*range(1, len(fields) + 1))
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    @pytest.mark.parametrize("field", ["max_steps", "step_timeout_ms"])
    def test_runtime_config_rejects_a_bound_below_one(self, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            RuntimeConfig(**{field: 0})
        with pytest.raises(ValueError):
            RuntimeConfig(*[0 if f == field else 1 for f in FROZEN[RuntimeConfig][0]])
        with pytest.raises(ValueError):
            RuntimeConfig()._replace(**{field: 0})
        assert RuntimeConfig(**{field: 1}) == RuntimeConfig()._replace(**{field: 1})

    def test_execution_report_is_built_by_position(self):
        # as chorbench builds one from an exec trace
        report = ExecutionReport((), EMPTY_STATE, Network(), "terminated")
        assert report.error is None and report.trace == ()

    def test_repr_names_every_field(self):
        assert repr(RuntimeConfig()) == (
            "RuntimeConfig(seed=0, step_timeout_ms=2000, max_steps=10000)"
        )
        assert repr(ProjectionFailure("p", ("main",), "undefined")) == (
            "ProjectionFailure(process='p', path=('main',), kind='undefined', "
            "conflict=None, detail='')"
        )


class TestVerdict:
    def test_fields_defaults_and_construction(self):
        assert Verdict.__slots__ == VERDICT_FIELDS
        values = ("verified", 3) + tuple(range(12))
        by_position = Verdict(*values)
        by_keyword = Verdict(**dict(zip(VERDICT_FIELDS, values)))
        assert [getattr(by_position, f) for f in VERDICT_FIELDS] == list(values)
        assert [getattr(by_keyword, f) for f in VERDICT_FIELDS] == list(values)
        v = Verdict("verified", 3)
        assert (v.counterexample, v.hypothesis_failures) == (None, ())
        counts = [getattr(v, f) for f in VERDICT_FIELDS if f not in ("status", "depth")]
        assert counts == [0, 0, None, ()] + [0] * 8

    def test_equality_leaves_out_the_table_costs(self):
        v = Verdict("verified", 3, 5, successors_derived=7, successors_reused=2)
        assert v == Verdict("verified", 3, 5)
        assert v != Verdict("verified", 3, 6)
        assert v != Verdict("verified-to-depth", 3, 5)
        assert v != ("verified", 3, 5)

    def test_mutable_and_unhashable(self):
        v = Verdict("verified", 3)
        v.configs_explored += 1
        v.status = "counterexample"
        assert (v.configs_explored, v.status) == (1, "counterexample")
        with pytest.raises(TypeError):
            hash(v)
        with pytest.raises(AttributeError):
            v.extra = 0

    def test_repr_in_dataclass_form(self):
        assert repr(Verdict("verified", 3, successors_derived=2)) == (
            "Verdict(status='verified', depth=3, configs_explored=0, "
            "transitions_matched=0, counterexample=None, hypothesis_failures=(), "
            "determinism_checks=0, determinism_violations=0, stability_checks=0, "
            "stability_violations=0, locality_checks=0, locality_violations=0, "
            "successors_derived=2, successors_reused=0)"
        )


class TestPrintedFailures:
    """``str()`` of the failures the corpus and the negative controls
    (``test_checker.py::TestNegativeControls``) produce."""

    AUTH_NOSELECT = [
        "projection fails for c at main/cont (merge-conflict): "
        "branch views of this conditional do not merge",
        "projection fails for s at main/cont (merge-conflict): "
        "branch views of this conditional do not merge",
    ]

    def test_unprojectable_corpus_program(self):
        p = load_program("auth_noselect")
        with pytest.raises(ProjectionError) as e:
            epp(*infer_params(p), p)
        assert [str(f) for f in e.value.failures] == self.AUTH_NOSELECT
        v = verify_epp(p)
        hypotheses = [f"projectability: {f}" for f in self.AUTH_NOSELECT] + [
            "strong-projectability: main not strongly projectable at c",
            "strong-projectability: main not strongly projectable at s",
        ]
        assert [str(h) for h in v.hypothesis_failures] == hypotheses
        assert str(v) == "hypotheses violated: " + "; ".join(hypotheses)

    def test_well_formedness_violation(self):
        p = ChorProgram({}, Interaction(CommEta("p", Lit(1), "p", "x"), CHOR_END))
        assert str(verify_epp(p)) == (
            "hypotheses violated: well-formedness: "
            "[self-communication] at main: process p interacts with itself"
        )

    def test_records_at_the_root_and_without_a_label(self):
        assert str(WfViolation("r", (), "d")) == "[r] at <root>: d"
        assert str(WfViolation("s", ("main", "cont"), "e")) == "[s] at main/cont: e"
        assert str(ProjectionFailure("p", (), "undefined")) == (
            "projection fails for p at <root> (undefined)"
        )
        assert str(Counterexample("deadlock", (), 2, None, "stuck")) == (
            "deadlock failure at depth 2: stuck"
        )
