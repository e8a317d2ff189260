"""Entry-point checks that compare universes by identity first and labels
second: an equal universe built apart is accepted with the same result, a
different label list keeps its message, value types and range messages stay
as they were, and objects that share one universe make no
``GoodsUniverse.__eq__`` call at all."""
import contextlib
import io
import json
import re
from fractions import Fraction

import pytest

from vcbundle import (
    Allocation,
    BundleFamily,
    GoodsUniverse,
    InvalidInputError,
    Profile,
    TieBreak,
    Valuation,
    deviation_gap,
    equilibrium_counterexample,
    jsonio,
    optimal_allocation,
    project_profile,
    project_valuation,
    quasi_field_closure,
    run_vc,
    sigma_optimal_surplus,
    unanimity_profile,
    unanimity_valuation,
    zero_valuation,
)
from vcbundle.cli import main as cli_main
from vcbundle.equilibrium import max_profile_gap

U = GoodsUniverse.of_size(4)
TWIN = GoodsUniverse.of_size(4)  # equal labels, another object
OTHER = GoodsUniverse(("a", "b", "c", "e"))
FAMILY_MEMBERS = (0b0001, 0b1000, 0b1110, 0b0111, 0b1111)  # not a quasi field
TABLE = tuple(min(mask.bit_count(), 2) + (mask & 1) for mask in range(16))


def _raises_exactly(message: str):
    return pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$")


def _profile(universe):
    return Profile(universe, (
        unanimity_valuation(universe, 0b0011, 2),
        Valuation.from_atoms(universe, [(0b0100, 1), (0b1100, 3)]),
        Valuation.dense(universe, TABLE),
    ))


def _sparse_profile(universe):
    return Profile(universe, (
        Valuation.from_atoms(universe, [(0b0011, 2), (0b0110, 2)]),
        unanimity_valuation(universe, 0b0110, 3),
    ))


def _family(universe):
    return BundleFamily.of(universe, FAMILY_MEMBERS)


# Each entry point as a function of the universe that its second object is
# built over, and the message a different label list gets.
ENTRY_POINTS = {
    "profile": (
        lambda u: Profile(U, (unanimity_valuation(U, 1), unanimity_valuation(u, 6, 2))),
        "all valuations must share the profile's universe",
    ),
    "project-single-atom": (
        lambda u: project_valuation(unanimity_valuation(u, 0b0110, 2), _family(U)),
        "valuation and family universes differ",
    ),
    "project-dense": (
        lambda u: project_valuation(Valuation.dense(u, TABLE), _family(U)),
        "valuation and family universes differ",
    ),
    "sigma-optimal-surplus": (
        lambda u: sigma_optimal_surplus(_profile(U), _family(u)),
        "profile and family universes differ",
    ),
    "run-vc-true-profile": (
        lambda u: run_vc(project_profile(_profile(U), _family(U)), true_profile=_profile(u)),
        "true profile shape mismatch",
    ),
    "optimal-allocation-dense-reference": (
        lambda u: optimal_allocation(_profile(U), TieBreak.adversarial_to(0), _profile(u)),
        "reference profile shape mismatch",
    ),
    "optimal-allocation-sparse-reference": (
        lambda u: optimal_allocation(_sparse_profile(U), TieBreak.adversarial_to(1), _sparse_profile(u)),
        "reference profile shape mismatch",
    ),
    "deviation-gap": (
        lambda u: deviation_gap(_family(u), _profile(U), 2),
        "valuation and family universes differ",
    ),
    "allocation-surplus": (
        lambda u: Allocation(U, (0b0001, 0b0110)).surplus(_sparse_profile(u)),
        "profile and allocation universes differ",
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_equal_universes_pass_and_other_labels_keep_their_message(name):
    call, message = ENTRY_POINTS[name]
    assert call(TWIN) == call(U)
    with _raises_exactly(message):
        call(OTHER)


def _run_cli(tmp_path, command, first, family_goods):
    (tmp_path / "first.json").write_text(json.dumps(first))
    family = BundleFamily.of(GoodsUniverse(tuple(family_goods)), FAMILY_MEMBERS)
    (tmp_path / "family.json").write_text(json.dumps(jsonio.family_payload(family)))
    flag = "--instance" if command == "auction" else "--valuation"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, flag, str(tmp_path / "first.json"), "--family", str(tmp_path / "family.json")])
    return code, out.getvalue(), err.getvalue()


def test_cli_family_paths_compare_goods_lists(tmp_path):
    # Each document builds its own universe, so equal goods lists always
    # meet as distinct objects there.
    instance = jsonio.profile_payload(_profile(U))
    family = _family(U)
    code, out, _ = _run_cli(tmp_path, "auction", instance, list("abcd"))
    outcome = run_vc(project_profile(_profile(U), family), true_profile=_profile(U))
    assert code == 0 and out == jsonio.dumps(jsonio.outcome_payload(outcome))
    code, _, err = _run_cli(tmp_path, "auction", instance, list("abce"))
    assert code == 1 and err == "vcbundle: error: instance and family must share the same goods\n"

    single = {"goods": list("abcd"), "valuation": jsonio.profile_payload(_profile(U))["valuations"][1]}
    code, out, _ = _run_cli(tmp_path, "project", single, list("abcd"))
    projected = project_valuation(_profile(U).valuations[1], family)
    assert code == 0 and out == jsonio.dumps(jsonio.valuation_payload(U, projected))
    code, _, err = _run_cli(tmp_path, "project", single, list("abce"))
    assert code == 1 and err == "vcbundle: error: valuation and family must share the same goods\n"


class TestValueTypes:
    def test_single_atom_projection_keeps_weight_types(self):
        family = _family(U)
        for weight, kind in ((2, int), (Fraction(3, 2), Fraction)):
            projected = project_valuation(Valuation(U, atoms=((0b0110, weight),)), family)
            assert projected.atoms == ((0b0111, weight), (0b1110, weight))
            assert all(type(w) is kind for _, w in projected.atoms)

    def test_single_atom_projection_normalises_an_integral_fraction(self):
        projected = project_valuation(Valuation(U, atoms=((0b0110, Fraction(2, 1)),)), _family(U))
        assert repr(projected.atoms) == "((7, 2), (14, 2))"

    @pytest.mark.parametrize("build", [
        lambda mask: Allocation(U, (0b0001, mask)),
        lambda mask: BundleFamily.of(U, [0b0001, mask]),
        lambda mask: unanimity_valuation(U, mask),
    ], ids=["allocation", "family", "unanimity"])
    @pytest.mark.parametrize("mask", [16, 0x80, -1, -3])
    def test_masks_outside_the_universe_keep_their_message(self, build, mask):
        with _raises_exactly(f"bundle {mask:#x} outside universe of 4 goods"):
            build(mask)

    def test_all_sparse(self):
        sparse = _sparse_profile(U)
        dense = Valuation.dense(U, TABLE)
        assert sparse.all_sparse
        assert not Profile(U, (*sparse.valuations, dense)).all_sparse
        assert not Profile(U, (dense, *sparse.valuations)).all_sparse
        assert not Profile(U, (dense, dense)).all_sparse
        assert Profile(U, (zero_valuation(U), Valuation(U, atoms=((0b0011, 0),)))).all_sparse


@pytest.fixture
def eq_calls(monkeypatch):
    """Every ``GoodsUniverse.__eq__`` call made while the test runs."""
    calls = []
    original = GoodsUniverse.__eq__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(GoodsUniverse, "__eq__", counted)
    return calls


def test_one_universe_object_makes_no_eq_call(eq_calls):
    # A count, not a time: it does not depend on the machine.
    family = _family(U)
    witness = equilibrium_counterexample(family)
    quasi_field = quasi_field_closure(BundleFamily.of(U, [0b0011]))
    document = jsonio.profile_payload(_profile(U))
    del eq_calls[:]
    assert deviation_gap(family, witness.profile, witness.deviator) == 1
    assert max_profile_gap(quasi_field, _profile(U)) == 0
    assert max_profile_gap(quasi_field, unanimity_profile(U, [0b0001, 0b0110])) == 0
    sigma_optimal_surplus(_profile(U), family)
    jsonio.parse_instance(document)
    assert eq_calls == []
    # The counter sees a comparison of distinct objects.
    assert TWIN == U and len(eq_calls) == 1
