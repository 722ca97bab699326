"""The package's records are named tuples, `Mat` is a plain slotted class,
and importing the package and its CLI loads neither `dataclasses` nor
`inspect` (nor numpy).

A record keeps the text of the frozen dataclass it replaced: its repr, `==`
and `hash` by value, and no attribute can be set.  A record stores only what
it cannot derive, so seven records list fewer fields than their dataclasses
did and derive the rest as properties, which no constructor or `_replace`
can set apart from the fields they follow from.  The records that check
their fields at construction still raise the same `ValueError`s, and so
does their `_replace`.  `Mat` keeps the repr, `==` and `hash` of the
dataclass it was, refuses to set or delete any attribute, and supports no
tuple operation.  Named tuples differ in their internals across Python
3.10-3.13, so this file runs on each of them.  Needs nothing beyond pytest.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from projconst.acceptance import Context, Criterion, CriterionResult
from projconst.banach_mazur import (
    BMParameterSet,
    BoundComparison,
    Clause,
    ClosedFormOptimum,
    NonExactParameterError,
    NumericOptimum,
    SeqOperator,
    SequenceModel,
    bm_params,
    build_model,
)
from projconst.linalg import Mat, Subspace
from projconst.minproj import LPBudget, OracleConfig, ProjectionConstantResult
from projconst.planner import AmplificationPlan, DemoStep, ScheduleEntry, ScheduleReport
from projconst.simplex import LinearProgram
from projconst.zerosum import (
    MultiplicationLawReport,
    SymmetrizationDecomposition,
    ZeroSumSpace,
    centring_projection,
    extract_r,
    sigma_subspace,
)

SRC = Path(__file__).resolve().parent.parent / "src"

LINE = Subspace.from_rows([[1, F(1, 2)]])
PLANE = Subspace.from_rows([[1, 0], [0, 1]])
LINE_REPR = "Subspace(basis=Mat(rows=1, cols=2, nums=(2, 1), den=2))"
CLAUSE_REPR = ("Clause(out_modulus=3, out_residue=0, in_modulus=4, in_residue=2, "
               "coeff=Fraction(1, 2))")
PARAMS_REPR = "BMParameterSet(a=Fraction(4, 1))"


def _criterion_run(ctx):
    return "ok"


def _decomposition():
    return extract_r(centring_projection(2, 3), PLANE, 3)


def _model_repr() -> str:
    model = build_model(4)
    return (f"SequenceModel(params={PARAMS_REPR}, stages={model.stages!r}, "
            f"inverse_stages={model.inverse_stages!r}, forward={model.forward!r}, "
            f"inverse={model.inverse!r})")


def _decomposition_repr() -> str:
    dec = _decomposition()
    return (f"SymmetrizationDecomposition(p_tilde={dec.p_tilde!r}, "
            "r=Mat(rows=2, cols=2, nums=(1, 0, 0, 1), den=1), "
            "p_tilde_norm=Fraction(4, 3), r_norm=Fraction(1, 1))")


# (record, a factory that builds one instance afresh, the dataclass repr of it)
RECORDS = [
    (Context, lambda: Context(seed=3, budget=LPBudget(4, 2)),
     lambda: "Context(seed=3, budget=LPBudget(max_ambient=4, max_dim=2))"),
    (Criterion, lambda: Criterion("k", "title", _criterion_run),
     lambda: f"Criterion(key='k', title='title', run={_criterion_run!r})"),
    (CriterionResult, lambda: CriterionResult("k", "t", True, "d"),
     lambda: "CriterionResult(key='k', title='t', passed=True, detail='d')"),
    (BMParameterSet, lambda: bm_params(4), lambda: PARAMS_REPR),
    (BoundComparison, lambda: BoundComparison(19.5, 19.75),
     lambda: "BoundComparison(ours=19.5, prior=19.75)"),
    (Clause, lambda: Clause(3, 0, 4, 2, F(1, 2)), lambda: CLAUSE_REPR),
    (SeqOperator, lambda: SeqOperator((Clause(3, 0, 4, 2, F(1, 2)),), "X"),
     lambda: f"SeqOperator(clauses=({CLAUSE_REPR},), descriptor='X')"),
    (SequenceModel, lambda: build_model(4), _model_repr),
    (LPBudget, lambda: LPBudget(), lambda: "LPBudget(max_ambient=12, max_dim=6)"),
    (ProjectionConstantResult,
     lambda: ProjectionConstantResult(F(1), Mat(1, 2, (1, 0)), LINE, (1, 1)),
     lambda: ("ProjectionConstantResult(value=Fraction(1, 1), "
              f"minimizer_c=Mat(rows=1, cols=2, nums=(1, 0), den=1), space={LINE_REPR}, "
              "witness=(1, 1))")),
    (OracleConfig, lambda: OracleConfig(2, 3, seed=4),
     lambda: "OracleConfig(restarts=2, iterations=3, seed=4)"),
    (ScheduleEntry, lambda: ScheduleEntry(1, F(3, 2), "x"),
     lambda: "ScheduleEntry(step=1, lambda_k=Fraction(3, 2), ambient='x')"),
    (AmplificationPlan, lambda: AmplificationPlan(1, 9, F(63, 32)),
     lambda: "AmplificationPlan(m=1, copies=9, alpha=Fraction(63, 32))"),
    (DemoStep, lambda: DemoStep(1, 4, F(4, 3), None),
     lambda: "DemoStep(step=1, ambient_dim=4, expected=Fraction(4, 3), computed=None)"),
    (ScheduleReport, lambda: ScheduleReport(F(2), (DemoStep(1, 4, F(4, 3), F(4, 3)),)),
     lambda: ("ScheduleReport(base_lambda=Fraction(2, 1), steps=(DemoStep(step=1, "
              "ambient_dim=4, expected=Fraction(4, 3), computed=Fraction(4, 3)),))")),
    (LinearProgram,
     lambda: LinearProgram([0, 1], 1, [{0: 1}], [1], [1], [{1: -1}], [0], [1], [True, False]),
     lambda: ("LinearProgram(objective=[0, 1], objective_den=1, eq_rows=[{0: 1}], "
              "eq_rhs=[1], eq_dens=[1], ub_rows=[{1: -1}], ub_rhs=[0], ub_dens=[1], "
              "free=[True, False])")),
    (Subspace, lambda: Subspace.from_rows([[1, F(1, 2)]]), lambda: LINE_REPR),
    (ZeroSumSpace, lambda: sigma_subspace(LINE, 2),
     lambda: f"ZeroSumSpace(base={LINE_REPR}, copies=2)"),
    (SymmetrizationDecomposition, _decomposition, _decomposition_repr),
    (MultiplicationLawReport,
     lambda: MultiplicationLawReport(F(1), F(4, 3), 3, 6),
     lambda: ("MultiplicationLawReport(base_lambda=Fraction(1, 1), "
              "sigma_lambda=Fraction(4, 3), copies=3, ambient_dim=6)")),
]
IDS = [record.__name__ for record, _, _ in RECORDS]
# a valid value, other than the instance's own, for the first field of each
# record that checks its fields; the other records take any value
CHANGED_FIRST = {
    BMParameterSet: F(12),
    Clause: 5,
    OracleConfig: 5,
    AmplificationPlan: 2,
    Subspace: Mat(1, 2, (1, 0)),
    ZeroSumSpace: Subspace.from_rows([[1, 0]]),
}


def test_importing_the_package_loads_no_dataclasses_inspect_or_numpy():
    code = (
        "import sys\n"
        "import projconst, projconst.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_every_record_is_covered():
    assert len(RECORDS) == 20
    assert all(issubclass(record, tuple) and hasattr(record, "_fields")
               for record, _, _ in RECORDS)


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_repr_keeps_the_dataclass_text(record, make, text):
    value = make()
    assert type(value) is record
    assert repr(value) == text()


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(record, make, text):
    one, two = make(), make()
    assert one is not two and one == two
    assert not one != two
    first = one._fields[0]
    assert one != one._replace(**{first: CHANGED_FIRST.get(record, "changed")})
    if record is LinearProgram:
        # lists inside, as in the unfrozen dataclass it replaced: unhashable
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("record, make, text", RECORDS, ids=IDS)
def test_no_attribute_can_be_set(record, make, text):
    value = make()
    for name in (value._fields[0], value._fields[-1], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    assert repr(value) == text()


def test_attained_is_a_class_constant():
    result = RECORDS[IDS.index("ProjectionConstantResult")][1]()
    assert result.attained is True and "attained" not in result._fields
    assert ProjectionConstantResult.attained is True


@pytest.mark.parametrize("make, message", [
    (lambda: OracleConfig(restarts=1.5),
     "oracle needs integer restarts and iterations, got "
     "OracleConfig(restarts=1.5, iterations=4000, seed=0)"),
    (lambda: OracleConfig(iterations=True),
     "oracle needs integer restarts and iterations, got "
     "OracleConfig(restarts=8, iterations=True, seed=0)"),
    (lambda: OracleConfig(0, 5),
     "oracle needs restarts >= 1 and iterations >= 1, got "
     "OracleConfig(restarts=0, iterations=5, seed=0)"),
    (lambda: AmplificationPlan(0, 3, F(3, 2)), "a plan of 0 steps cannot have block count 3"),
    (lambda: AmplificationPlan(2, None, F(3, 2)),
     "a plan of 2 steps cannot have block count None"),
    (lambda: AmplificationPlan(-1, 3, F(3, 2)), "a plan of -1 steps cannot have block count 3"),
    (lambda: AmplificationPlan(1, 1, F(3, 2)), "need at least 2 copies, got 1"),
    (lambda: ZeroSumSpace(LINE, 0), "need at least 2 copies, got 0"),
    (lambda: BMParameterSet(F(2)), "2*2+1 is not the square of a rational"),
    (lambda: BMParameterSet(4), "shape parameter must be a positive Fraction or float, got 4"),
    (lambda: BMParameterSet(-2.0),
     "shape parameter must be a positive Fraction or float, got -2.0"),
    (lambda: Clause(0, 0, 1, 0, F(1)),
     "clause needs moduli >= 1 and residues >= 0, got "
     "Clause(out_modulus=0, out_residue=0, in_modulus=1, in_residue=0, coeff=Fraction(1, 1))"),
    (lambda: Clause(1, 0, 1, -1, F(1)),
     "clause needs moduli >= 1 and residues >= 0, got "
     "Clause(out_modulus=1, out_residue=0, in_modulus=1, in_residue=-1, coeff=Fraction(1, 1))"),
])
def test_checked_records_raise_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: OracleConfig()._replace(restarts=0),
     "oracle needs restarts >= 1 and iterations >= 1, got "
     "OracleConfig(restarts=0, iterations=4000, seed=0)"),
    (lambda: OracleConfig._make((8, 2.5, 0)),
     "oracle needs integer restarts and iterations, got "
     "OracleConfig(restarts=8, iterations=2.5, seed=0)"),
    (lambda: Clause(3, 0, 4, 2, F(1, 2))._replace(out_modulus=0),
     "clause needs moduli >= 1 and residues >= 0, got "
     "Clause(out_modulus=0, out_residue=0, in_modulus=4, in_residue=2, coeff=Fraction(1, 2))"),
    (lambda: sigma_subspace(LINE, 2)._replace(copies=1), "need at least 2 copies, got 1"),
    (lambda: sigma_subspace(LINE, 2)._replace(space=sigma_subspace(PLANE, 2).space),
     "Got unexpected field names: ['space']"),
    (lambda: bm_params(4)._replace(a=F(1, 3)), "2*1/3+1 is not the square of a rational"),
    (lambda: AmplificationPlan(1, 3, F(3, 2))._replace(copies=None),
     "a plan of 1 steps cannot have block count None"),
    (lambda: LINE._replace(basis=Mat(3, 2, (1, 0, 0, 1, 1, 1))),
     "subspace dimension 3 out of range for ambient 2"),
    (lambda: LINE._replace(basis=Mat(2, 2, (1, 2, 2, 4))),
     "basis rows are linearly dependent: rank < 2"),
])
def test_replace_and_make_check_like_the_constructor(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_checked_records_take_keywords_and_defaults():
    assert OracleConfig() == OracleConfig(8, 4000, 0) == OracleConfig(seed=0)
    assert AmplificationPlan(m=0, copies=None, alpha=F(3, 2)).copies is None
    assert Clause(3, 0, 4, 2, coeff=F(1, 2)) == Clause(3, 0, 4, 2, F(1, 2))
    assert ZeroSumSpace(base=LINE, copies=2) == sigma_subspace(LINE, 2)


# the values each record derives from its fields; no field stores one
DERIVED = {
    ZeroSumSpace: ("space", "ambient_dim", "mu"),
    MultiplicationLawReport: ("mu", "status"),
    BMParameterSet: ("mu", "nu", "b", "root", "bound", "bound_sq", "exact"),
    SymmetrizationDecomposition: ("a", "b"),
    SequenceModel: ("bound",),
    NumericOptimum: ("g_star",),
    ClosedFormOptimum: ("cubic_residual",),
}


def test_records_store_only_what_they_cannot_derive():
    assert sum(len(record._fields) for record in DERIVED) == 20
    for record, names in DERIVED.items():
        for name in names:
            assert name not in record._fields
            assert isinstance(getattr(record, name), property)


@pytest.mark.parametrize("make", [
    lambda: ZeroSumSpace(Subspace.from_rows([[1, 0]]), 2, sigma_subspace(LINE, 2).space),
    lambda: ZeroSumSpace(LINE, 2, space=sigma_subspace(LINE, 2).space),
    lambda: MultiplicationLawReport(F(1), F(5), F(1), 3, 3, "ok"),
    lambda: MultiplicationLawReport(F(1), F(1), 3, 3, mu=F(5)),
    lambda: BMParameterSet(1, 5, 5, 5, 5, 5, 5, True),
    lambda: BMParameterSet(F(4), bound=5),
], ids=["ZeroSumSpace", "ZeroSumSpace-keyword", "MultiplicationLawReport",
        "MultiplicationLawReport-keyword", "BMParameterSet", "BMParameterSet-keyword"])
def test_a_derived_value_cannot_be_passed(make):
    with pytest.raises(TypeError):
        make()


def test_a_zero_sum_space_follows_its_base_and_block_count():
    zs = sigma_subspace(LINE, 2)
    for changed, base, copies in ((zs._replace(base=PLANE), PLANE, 2),
                                  (zs._replace(copies=3), LINE, 3),
                                  (zs._replace(base=PLANE, copies=4), PLANE, 4)):
        assert changed == sigma_subspace(base, copies)
        assert changed.space == sigma_subspace(base, copies).space
        assert changed.ambient_dim == changed.space.ambient_dim == 2 * copies


@pytest.mark.parametrize("copies", [2, 3, 4, 7, 100])
def test_a_report_reads_mu_and_status_off_its_fields(copies):
    mu = 2 - F(2, copies)
    done = MultiplicationLawReport(F(1), mu, copies, copies)
    assert done.mu == mu and done.to_json_dict()["mu_N"] == str(mu)
    assert done.status == "ok" and done.equal is True
    assert done._replace(copies=3).mu == F(4, 3)
    for open_side in (done._replace(sigma_lambda=None),
                      MultiplicationLawReport(None, None, copies, copies)):
        assert open_side.mu == mu and open_side.status == "inconclusive"


def test_an_exact_parameter_set_needs_a_rational_root():
    for a in (F(2), F(1, 3), F(5, 2)):
        with pytest.raises(NonExactParameterError):
            BMParameterSet(a)
        assert bm_params(a) == BMParameterSet(float(a))
    assert bm_params(4) == BMParameterSet(F(4)) and bm_params(4).exact


@pytest.mark.parametrize("change", [
    lambda m, space: setattr(m, "rows", 2),
    lambda m, space: setattr(m, "foo", 1),
    lambda m, space: delattr(m, "den"),
    lambda m, space: setattr(space, "basis", m),
    lambda m, space: setattr(space, "integer_basis", space.integer_basis),
    lambda m, space: setattr(space, "foo", 1),
    lambda m, space: delattr(space, "basis"),
], ids=["m.rows", "m.foo", "del m.den", "space.basis", "space.integer_basis", "space.foo",
        "del space.basis"])
def test_no_attribute_of_a_matrix_or_subspace_can_be_set_or_deleted(change):
    m, space = Mat(1, 2, (1, 0)), Subspace.from_rows([[1, F(1, 2)]])
    with pytest.raises(AttributeError):
        change(m, space)
    assert repr(m) == "Mat(rows=1, cols=2, nums=(1, 0), den=1)"
    assert repr(space) == LINE_REPR


@pytest.mark.parametrize("operation", [
    lambda m: m + m,
    lambda m: m * m,
    lambda m: m < m,
    lambda m: len(m),
    lambda m: iter(m),
], ids=["+", "*", "<", "len", "iter"])
def test_a_matrix_is_no_tuple(operation):
    with pytest.raises(TypeError):
        operation(Mat(1, 2, (1, 0)))


def test_a_matrix_keeps_its_dataclass_equality_and_hash():
    m = Mat(2, 2, (2, 4, 6, 8), 2)
    assert repr(m) == "Mat(rows=2, cols=2, nums=(1, 2, 3, 4), den=1)"
    assert m == Mat(2, 2, (1, 2, 3, 4)) and not m != Mat(2, 2, (1, 2, 3, 4))
    assert m != Mat(2, 2, (1, 2, 3, 4), 2) and m != (2, 2, (1, 2, 3, 4), 1)
    assert hash(m) == hash((2, 2, (1, 2, 3, 4), 1))
    for again in copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)):
        assert again == m and type(again) is Mat
