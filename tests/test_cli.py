import hashlib
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderkit import cli, gamma_structures
from orderkit.cli import main, parse_basis, parse_poly, UsageError


def json_dumps(payload):
    """The oracle of cli._json_text."""
    return json.dumps(payload, sort_keys=True, indent=2, default=str)


@pytest.fixture(autouse=True)
def writer_matches_json_dumps(monkeypatch):
    """Every JSON payload a test here prints is held to json.dumps byte for
    byte; the list of them is the fixture's value."""
    emitted = []
    emit = cli._emit

    def checked(payload, fmt):
        if fmt == "json":
            assert cli._json_text(payload) == json_dumps(payload)
            emitted.append(payload)
        emit(payload, fmt)

    monkeypatch.setattr(cli, "_emit", checked)
    return emitted


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestParsing:
    def test_poly(self):
        assert parse_poly("-3,0,1") == [-3, 0, 1]
        with pytest.raises(UsageError):
            parse_poly("a,b")

    def test_basis(self):
        rows = parse_basis("1,0;0,2")
        assert rows[1][1] == 2
        rows = parse_basis("2,0;1,1/2")
        assert str(rows[0][0]) == "1" and str(rows[1][1]) == "1/2"
        with pytest.raises(UsageError):
            parse_basis("1,x")


class TestBoundCommand:
    def test_thm_a_height(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-a-height",
                             "--g", "1", "--nu", "6", "--excluded-primes", "")
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound"]["digit_count"] == 88
        assert payload["bound"]["exact_value"] == str(3 ** 144 * 6 ** 24)

    def test_deterministic_output(self, capsys):
        args = ("bound", "--formula", "es-gl2", "--g", "2",
                "--excluded-primes", "2,3")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_infinity_note(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-main-count",
                             "--g", "1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound"] is None and "unbounded" in payload["note"]

    def test_exact_value_beyond_str_limit(self, capsys):
        # 2^(8^8) has 5,050,446 digits, more than Python converts to a
        # decimal string: the exact value comes back as its factors.
        from orderkit.bounds import SIntegerSpec, thm_b
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-b",
                             "--g", "1")
        assert rc == 0
        bound = json.loads(out)["bound"]
        assert bound["exact_flag"] and bound["digit_count"] == 5_050_446
        value = 1
        for base, exp in bound["exact_value"]:
            value *= base ** exp
        assert value == thm_b(1, SIntegerSpec(()), 1).exact_value

    def test_level_structure(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--formula", "level-structure",
                             "--kind", "principal_n", "--n", "3", "--g", "1")
        assert json.loads(out)["bound"] == 81

    def test_huge_level_structure_from_digit_count(self, capsys):
        # n^(2g) with 12,000,039 digits: decided from its certified log10,
        # never formed, and given as the BigBound dict
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "bound", "--formula", "level-structure",
                             "--g=1000003", "--n=1000003", "--d-override=1")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        bound = json.loads(out)["bound"]
        assert bound["digit_count"] == 12_000_039
        assert not bound["exact_flag"] and "exact_value" not in bound

    @pytest.mark.parametrize("g,plain", [(14284, True), (14285, False)])
    def test_pol_degree_at_the_str_limit(self, capsys, g, plain):
        # 2^14284 has 4,300 digits, the most Python prints; 2^14285 has
        # 4,301 and comes back as its factor list
        rc, out, _ = run_cli(capsys, "bound", "--formula", "pol-degree",
                             f"--g={g}")
        assert rc == 0
        bound = json.loads(out)["bound"]
        if plain:
            assert bound == 2 ** g
        else:
            assert bound["digit_count"] == 4301 and bound["exact_flag"]
            assert bound["exact_value"] == [[2, g]]

    def test_small_level_structure_unchanged(self, capsys):
        # a plain integer, byte for byte as before, including a power of 10
        # whose log10 is an integer
        for argv, value in ((("--kind", "principal_n", "--n", "5"), 5 ** 8),
                            (("--kind", "principal_n", "--n", "10"), 10 ** 8),
                            (("--kind", "mordell_a"), 24)):
            rc, out, _ = run_cli(capsys, "bound", "--formula",
                                 "level-structure", "--g", "2", *argv)
            assert rc == 0
            assert f'"bound": {value},' in out

    def test_bad_primes_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "bound", "--formula", "thm-b",
                             "--excluded-primes", "4")
        assert rc == 2
        assert "NotPrime" in err and "bounds" in err


class TestOrderCommands:
    def test_order_info(self, capsys):
        rc, out, _ = run_cli(capsys, "order-info", "--field", "1,0,1",
                             "--order-basis", "1,0;0,2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["conductor"]["norm"] == 4
        assert payload["order"]["disc"] == -16

    def test_negative_leading_coefficient(self, capsys):
        rc, out, _ = run_cli(capsys, "order-info", "--field", "-2,0,1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["units"]["fundamental_unit"] == ["1", "1"]

    def test_class_monoid_eisenstein_suborder(self, capsys):
        rc, out, _ = run_cli(capsys, "class-monoid", "--field", "3,0,1",
                             "--order-basis", "1,0;0,1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["size"] == 2
        assert payload["multiplication_table"] == [[0, 1], [1, 1]]
        assert payload["picard_subset"] == [0]
        assert [c["invertible"] for c in payload["classes"]] == [True, False]

    def test_reducible_field_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "order-info", "--field", "-4,0,1")
        assert rc == 2
        assert "Reducible" in err

    def test_invalid_order_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, "order-info", "--field", "5,0,1",
                             "--order-basis", "1,0;0,1/3")
        assert rc == 2
        assert "NotClosed" in err

    def test_not_closed_prints_rationals(self, capsys):
        rc, out, err = run_cli(capsys, "order-info", "--field=-2,0,1",
                               "--order-basis", "1,0;0,1/2")
        assert rc == 2 and out == ""
        assert err == ("error [orders.is_order] NotClosed: product of basis "
                       "elements [1/2, 0] and [1/2, 0] leaves the lattice\n")

    def test_budget_exit_code(self, capsys):
        # a conductor of index 400 pushes the intermediate-lattice quotient
        # past the enumeration budget: exit 3, not 2
        rc, _, err = run_cli(capsys, "class-monoid", "--field", "1,0,1",
                             "--order-basis", "1,0;0,400")
        assert rc == 3
        assert "IndexTooLarge" in err


class TestErrorOrigin:
    """The origin in an error line is the module whose frame raised it."""

    def test_cycle_budget_names_quadforms(self, capsys, monkeypatch):
        from orderkit import quadforms
        monkeypatch.setattr(quadforms, "_MAX_CYCLE", 10)
        rc, _, err = run_cli(capsys, "order-info",
                             "--field=-1000000000000037,0,1")
        assert rc == 3
        assert "[quadforms.cycle_of] SearchBudgetExceeded" in err

    def test_rho_budget_names_modular(self, capsys, monkeypatch):
        from orderkit import modular
        monkeypatch.setattr(modular, "_RHO_BUDGET", 4)
        rc, _, err = run_cli(capsys, "order-info",
                             f"--field={-1000003 * 1000033},0,1")
        assert rc == 3
        assert "[modular.factorize] SearchBudgetExceeded" in err

    def test_index_budget_names_class_monoid(self, capsys):
        rc, _, err = run_cli(capsys, "class-monoid", "--field", "1,0,1",
                             "--order-basis", "1,0;0,400")
        assert rc == 3
        assert "[ideals.class_monoid] IndexTooLarge" in err


class TestFundamentalUnitBudget:
    def test_long_cycle_ends_at_once(self, capsys):
        # the principal cycle is walked on the form coefficients alone up to
        # the 100,000 budget; no transform is carried for a cycle that does
        # not close
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "order-info",
                               "--field=-1000000000000037,0,1")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and out == ""
        assert ("[quadforms.cycle_of] SearchBudgetExceeded: cycle of "
                "(1, 31622775, -25324853) longer than 100000 forms") in err


class TestCensusBudget:
    # each census would run to about its index; the budget is checked first
    @pytest.mark.parametrize("argv,index", [
        (("class-monoid", "--field=1000000000000037,0,1"), 63245554),
        (("class-monoid", "--field=1,0,1", "--order-basis=1,0;0,40"),
         40960000),
        (("class-monoid", "--field=-1000000000000037,5,1"), 63245554),
        (("gamma-count", "--gamma-field=-1000000000000037,5,1",
          "--target-n=4"), 63245554),
    ])
    def test_over_budget_ends_at_once(self, capsys, argv, index):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and out == ""
        assert (f"[ideals.class_monoid] IndexTooLarge: census up to index "
                f"{index} exceeds budget 100000") in err


class TestBudgetNumbers:
    """Budget errors carry their limit and how far the run got (consumed,
    or the size asked for when the budget is checked first); the CLI
    appends both to the unchanged message."""

    def test_quotient_budget_line(self, capsys):
        rc, out, err = run_cli(capsys, "class-monoid", "--field=1,0,1",
                               "--order-basis", "1,0;0,400")
        assert rc == 3 and out == ""
        assert err == ("error [ideals.class_monoid] IndexTooLarge: quotient "
                       "order 160000 exceeds budget 100000 (limit 100000, "
                       "consumed 160000)\n")

    def test_census_budget_line(self, capsys):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, "class-monoid",
                               "--field=1000000000000037,0,1")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 3 and out == ""
        assert err == ("error [ideals.class_monoid] IndexTooLarge: census up "
                       "to index 63245554 exceeds budget 100000 (limit "
                       "100000, consumed 63245554)\n")

    def test_cycle_budget_line(self, capsys, monkeypatch):
        from orderkit import quadforms
        monkeypatch.setattr(quadforms, "_MAX_CYCLE", 10)
        rc, _, err = run_cli(capsys, "order-info",
                             "--field=-1000000000000037,0,1")
        assert rc == 3
        assert err.endswith("longer than 10 forms (limit 10, consumed 11)\n")

    def test_domain_errors_print_no_numbers(self, capsys):
        rc, _, err = run_cli(capsys, "order-info", "--field", "-4,0,1")
        assert rc == 2 and "limit" not in err and "consumed" not in err

    def test_index_errors_carry_numbers(self):
        from orderkit import ideals, intmat
        from orderkit.errors import IndexTooLarge
        from orderkit.numberfield import make_field
        from orderkit.orders import is_order, maximal_order
        z400i = is_order(make_field([1, 0, 1]), [[1, 0], [0, 400]])
        with pytest.raises(IndexTooLarge) as nf:
            ideals.class_monoid(z400i)
        big = maximal_order(make_field([10 ** 15 + 37, 0, 1]))
        with pytest.raises(IndexTooLarge) as census:
            ideals.picard_group(big)
        outer = intmat.Lattice.from_rows([[1, 0], [0, 1]])
        inner = intmat.Lattice.from_rows([[12, 0], [0, 12]])
        with pytest.raises(IndexTooLarge) as quotient:
            intmat.enumerate_intermediate_lattices(outer, inner, max_index=100)
        with pytest.raises(IndexTooLarge) as subgroups:
            intmat.enumerate_intermediate_lattices(outer, inner,
                                                   max_subgroups=5)
        assert [(e.value.limit, e.value.consumed) for e in
                (nf, census, quotient)] == [(100_000, 160_000),
                                            (100_000, 63_245_554), (100, 144)]
        assert subgroups.value.limit == 5 < subgroups.value.consumed

    def test_search_errors_carry_numbers(self, monkeypatch):
        from orderkit import orders, quadforms
        from orderkit.errors import MethodDisagreement, SearchBudgetExceeded
        monkeypatch.setattr(quadforms, "_MAX_CYCLE", 3)
        red = quadforms.reduced(quadforms.principal_form(4 * 94))
        with pytest.raises(SearchBudgetExceeded) as cycle:
            quadforms.cycle_of(red)
        assert (cycle.value.limit, cycle.value.consumed) == (3, 4)
        # eps = (1 + sqrt 5) / 2 first falls in Z[sqrt 5] = Z + 2 O_L at
        # k = 3; a budget of one power per unit of f = 2 stops at k = 2
        assert orders.least_unit_power(5, 2)[0] == 3
        monkeypatch.setattr(orders, "_POWER_BUDGET_FACTOR", 1)
        with pytest.raises(MethodDisagreement) as power:
            orders.least_unit_power(5, 2)
        assert (power.value.limit, power.value.consumed) == (2, 2)


class TestBoundaryValidation:
    @pytest.mark.parametrize("argv,named", [
        (("class-monoid", "--field=5,1", "--order-basis=1,7;7"),
         "[cli.order_basis] InvalidInput: bad order basis"),
        (("bound", "--formula", "thm-b", "--n=7", "--pic=-5", "--kind",
          "p1_n"), "[cli.bound] InvalidInput: --pic must be a positive"),
        (("bound", "--formula", "thm-b", "--excluded-primes=x"),
         "[cli.bound] InvalidInput: bad --excluded-primes 'x'"),
        (("gamma-count", "--gamma-field=5,0,1", "--target-n=0"),
         "[cli.gamma_count] InvalidInput: --target-n must be a positive"),
        (("verify-suite", "--max-disc=2"),
         "[verify.run_suite] InvalidInput: no quadratic order has |disc| <= 2 "
         "and conductor index <= 6"),
        (("verify-suite", "--max-disc=20", "--max-conductor=0"),
         "[verify.run_suite] InvalidInput: no quadratic order has "
         "|disc| <= 20 and conductor index <= 0"),
        (("verify-suite", "--conjugations=-1"),
         "[verify.run_suite] InvalidInput: --conjugations must be a "
         "non-negative integer, got -1"),
        (("order-info", "--field=1,0,1", "--order-basis=1,0;0,1/0"),
         "[cli.order_basis] InvalidInput: bad order basis '1,0;0,1/0': the "
         "denominator is 0"),
        (("class-monoid", "--field=1,0,1", "--order-basis=1,0;0,1/0"),
         "[cli.order_basis] InvalidInput: bad order basis '1,0;0,1/0'"),
        (("gamma-count", "--gamma-field=1,0,1", "--gamma-basis=1,0;0,1/0",
          "--target-n=2"),
         "[cli.order_basis] InvalidInput: bad order basis '1,0;0,1/0'"),
    ])
    def test_rejected_as_domain_error(self, capsys, argv, named):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert named in err


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenOutputs:
    # written by the lattice-product implementation of class_monoid that
    # preceded the integer pair route (see CHANGES.md)
    @pytest.mark.parametrize("name,argv", [
        ("class_monoid_z6i.json",
         ("class-monoid", "--field=1,0,1", "--order-basis=1,0;0,6")),
        ("class_monoid_z3sqrt2.json",
         ("class-monoid", "--field=-2,0,1", "--order-basis=1,0;0,3")),
        ("class_monoid_zsqrtm71.json",
         ("class-monoid", "--field=71,0,1", "--order-basis=1,0;0,1")),
        ("gamma_count_z6i.json",
         ("gamma-count", "--gamma-field=1,0,1", "--gamma-basis=1,0;0,6",
          "--target-n=2")),
        ("gamma_count_z3sqrt2.json",
         ("gamma-count", "--gamma-field=-2,0,1", "--gamma-basis=1,0;0,3",
          "--target-n=2")),
        ("gamma_count_zsqrtm71.json",
         ("gamma-count", "--gamma-field=71,0,1", "--gamma-basis=1,0;0,1",
          "--target-n=2")),
        # written by the FieldElement unit and the Fraction rows that
        # preceded the integer unit coordinates and row strings
        ("order_info_qsqrt94.json", ("order-info", "--field=-94,0,1")),
        ("order_info_qsqrt5.json", ("order-info", "--field=-5,0,1")),
        ("order_info_golden_ratio.json", ("order-info", "--field=-1,1,1")),
        ("order_info_golden_ratio_f2.json",
         ("order-info", "--field=-1,1,1", "--order-basis", "1,0;0,2")),
        ("order_info_z3sqrt7.json",
         ("order-info", "--field=-7,0,1", "--order-basis", "1,0;0,3")),
        ("order_info_qsqrtm3.json", ("order-info", "--field", "3,0,1")),
        ("order_info_qsqrtm4.json", ("order-info", "--field", "4,0,1")),
        ("order_info_z2i.json",
         ("order-info", "--field", "1,0,1", "--order-basis", "1,0;0,2")),
    ])
    def test_matches_golden(self, capsys, name, argv):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert out == (GOLDEN / name).read_text()


# JSON values of every kind json.dumps writes: str with non-ASCII, quotes
# and control characters, int, bool, None, float (non-finite too), Fraction
# through default=str, nested and empty lists, tuples and dicts
_json_scalars = (st.text() | st.integers() | st.booleans() | st.none()
                 | st.floats() | st.fractions()
                 | st.sampled_from(["", "\"", "\\", "\x00\x1f\x7f", "\u00e9\u2603",
                                    "\U0001f600", "\n\t\r"]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=6)),
    max_leaves=40)


class TestJsonWriter:
    @pytest.mark.parametrize("name", sorted(
        p.name for p in GOLDEN.glob("*.json")))
    def test_golden_payloads(self, name):
        text = (GOLDEN / name).read_text()
        payload = json.loads(text)
        assert cli._json_text(payload) + "\n" == json_dumps(payload) + "\n" \
            == text

    @pytest.mark.parametrize("argv", [
        ("order-info", "--field=-2,0,1", "--order-basis=1,0;0,3"),
        ("order-info", "--field=5,1,1"),
        ("class-monoid", "--field=1,0,1", "--order-basis=1,0;0,6"),
        ("gamma-count", "--gamma-field=-2,0,1", "--gamma-basis=1,0;0,2",
         "--target-field=-2,0,1", "--target-n=1"),
    ] + [("bound", f"--formula={fid}", "--g=2", "--excluded-primes=2,3")
         for fid in cli.FORMULAS])
    def test_every_subcommand(self, capsys, writer_matches_json_dumps,
                              argv):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        (payload,) = writer_matches_json_dumps
        assert out == json_dumps(payload) + "\n"

    @settings(max_examples=400, deadline=None)
    @given(_json_values)
    def test_random_payloads(self, value):
        assert cli._json_text(value) == json_dumps(value)

    def test_subclasses_of_json_types(self):
        # the writer is looked up by exact type: a subclass is written as
        # its base, as json.dumps writes it, and any other type by its str
        import collections
        import enum

        class Level(enum.IntEnum):
            LOW = 3

        class Tag(str):
            pass

        class Ratio(float):
            pass

        class Row(list):
            pass

        value = collections.OrderedDict(b=Level.LOW, a=[Tag("x\u00e9"),
                                                        Ratio(0.5)],
                                        c=Row([1, Row([True, None])]),
                                        d=(Fraction(1, 2), Level.LOW, 7))
        assert cli._json_text(value) == json_dumps(value)
        assert cli._json_text([Level.LOW, 2]) == json_dumps([Level.LOW, 2])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers()) | st.lists(st.text()),
           st.integers(0, 3))
    def test_flat_lists_at_depth(self, flat, depth):
        value = flat
        for k in range(depth):
            value = {f"k{k}": [value, k]}
        assert cli._json_text(value) == json_dumps(value)


def rows_by_fractions(lat):
    """Oracle of cli._lattice_rows: the strings of the Fraction rows."""
    return [list(map(str, r)) for r in lat.rows_q()]


class TestRowStrings:
    """class-monoid and order-info print lattice rows from the integer
    numerators and denominator; the Fraction strings are the oracle."""

    def test_corpus_lattices(self, corpus_monoids):
        from orderkit.orders import conductor, maximal_order
        seen = 0
        for e, m in corpus_monoids:
            om = maximal_order(e.order.field)
            lattices = [e.order.lattice, om.lattice,
                        conductor(e.order, om).lattice]
            lattices += [c.representative.lattice for c in m.classes]
            for lat in lattices:
                assert cli._lattice_rows(lat) == rows_by_fractions(lat)
                seen += lat.den > 1
        assert seen > 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(-50, 50), min_size=2, max_size=2),
                    min_size=1, max_size=3),
           st.integers(-12, 12).filter(bool))
    def test_random_lattices(self, rows, den):
        from orderkit.intmat import IntMatrix, Lattice
        lat = Lattice(2, IntMatrix(rows), den)
        assert cli._lattice_rows(lat) == rows_by_fractions(lat)


class TestClassMonoidNorm:
    def test_pair_index_is_the_norm(self, corpus_monoids):
        # class-monoid prints the index a of [a, b + omega] as its norm
        for e, m in corpus_monoids:
            for c in m.classes:
                assert c.pair is not None, e.disc
                assert c.representative.norm_index() == c.pair[0], e.disc


class TestGammaCount:
    def test_sqrt_minus5(self, capsys):
        rc, out, _ = run_cli(capsys, "gamma-count", "--gamma-field", "5,0,1",
                             "--target-n", "2")
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 2 and payload["bound"] == 2
        assert len(payload["structures"]) == 2
        ids = {s["ideal_class_id"] for s in payload["structures"]}
        assert ids == {0, 1}
        for s in payload["structures"]:
            m = s["matrices"][1]
            assert m[0][0] + m[1][1] == 0
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 5

    def test_gaussian_into_own_field(self, capsys):
        rc, out, _ = run_cli(capsys, "gamma-count", "--gamma-field", "1,0,1",
                             "--target-n", "1", "--target-field", "1,0,1")
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["per_embedding"] == [1, 1]


    def test_real_base_field_output(self, capsys):
        # K = Q(sqrt 2), n = 1: images printed as coordinate strings
        rc, out, _ = run_cli(capsys, "gamma-count", "--gamma-field=-2,0,1",
                             "--gamma-basis=1,0;0,2", "--target-field=-2,0,1",
                             "--target-n=1")
        assert rc == 0
        assert json.loads(out) == {
            "bound": 32, "conductor_norm": 4, "count": 2, "embeddings": 2,
            "per_embedding": [1, 1], "picard_order": 1,
            "structures": [
                {"ideal_class_id": 1, "phi_index": 0,
                 "matrices": [[[["1", "0"]]], [[["0", "-2"]]]]},
                {"ideal_class_id": 1, "phi_index": 1,
                 "matrices": [[[["1", "0"]]], [[["0", "2"]]]]}]}

    @pytest.mark.parametrize("argv,embeddings", [
        (("--gamma-field=5,0,1", "--target-n=2"), 1),
        (("--gamma-field=1,0,1", "--gamma-basis=1,0;0,6", "--target-n=2"), 1),
        (("--gamma-field=1,0,1", "--target-n=1", "--target-field=1,0,1"), 2),
        (("--gamma-field=-2,0,1", "--gamma-basis=1,0;0,2",
          "--target-field=-2,0,1", "--target-n=1"), 2),
    ])
    def test_one_build_per_request(self, capsys, monkeypatch, argv,
                                   embeddings):
        builds, validations = [], []
        build = gamma_structures.structures_from_ideal_classes
        validate = gamma_structures.RingMorphism._validate

        def counted_build(*args):
            builds.append(args[2])
            return build(*args)

        def counted_validate(rho):
            validations.append(rho)
            return validate(rho)

        monkeypatch.setattr(gamma_structures, "structures_from_ideal_classes",
                            counted_build)
        monkeypatch.setattr(gamma_structures.RingMorphism, "_validate",
                            counted_validate)
        rc, out, _ = run_cli(capsys, "gamma-count", *argv)
        assert rc == 0
        payload = json.loads(out)
        assert builds == list(range(embeddings))
        assert len(validations) == payload["count"] == len(
            payload["structures"])


class TestScale:
    """h = 350: the class monoid and the structures of one large order,
    pinned by the sha256 of their JSON before Light's test and the single
    gamma-count build."""

    @pytest.mark.parametrize("argv,key,digest", [
        (("class-monoid", "--field=1000003,12,1"), "size",
         "3aed347056d8587598a77d795eb0f26b795a78a29a5664752009d705d0f1cf87"),
        (("gamma-count", "--gamma-field=1000003,12,1", "--target-n=2"),
         "count",
         "be6553b12f401e6414734b74a1961d2432d5caa7aa434bca4d071f812f144a58"),
    ])
    def test_class_number_350(self, capsys, argv, key, digest):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert json.loads(out)[key] == 350
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestLargeDiscriminants:
    """|disc| near 4 * 10^8 and 8 * 10^9: h(O_L) comes from the reduced
    forms listed on the root walk, and a table too large to fill stops
    before the fill."""

    def test_real_field_answers_in_time(self, capsys):
        # 5.8 s when h(O_L) scanned O(|d|) pairs; same bytes
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "class-monoid", "--field=-100000007,0,1")
        assert time.perf_counter() - t0 < 2.0
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "46f993f9f1f76a9b55e8eb496b094aad2df92cbee8063f3561942028fd232ea0")

    def test_large_real_field_answers(self, capsys):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(capsys, "class-monoid",
                             "--field=-2000000011,0,1")
        assert time.perf_counter() - t0 < 10.0
        assert rc == 0
        payload = json.loads(out)
        assert payload["size"] == 3
        assert payload["picard_subset"] == [0, 1, 2]

    @pytest.mark.parametrize("argv", [
        ("class-monoid", "--field=2000000011,0,1"),
        ("gamma-count", "--gamma-field=2000000011,0,1", "--target-n=2"),
    ])
    def test_table_budget_trips_before_the_fill(self, capsys, argv):
        t0 = time.perf_counter()
        rc, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 10.0
        assert rc == 3 and out == ""
        assert err == ("error [ideals.class_monoid] IndexTooLarge: table of "
                       "8107 classes with 32865778 products exceeds budget "
                       "500000 (limit 500000, consumed 32865778)\n")


class TestConfigAndUsage:
    def test_usage_error_exit_1(self, capsys):
        rc, _, err = run_cli(capsys, "bound", "--formula", "no-such")
        assert rc == 1
        assert "usage error" in err

    def test_missing_required(self, capsys):
        rc, _, err = run_cli(capsys, "order-info")
        assert rc == 1

    def test_config_merge(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("formula = thm-a-height\nnu = 6\n")
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-a-height",
                             "--config", str(cfg))
        assert rc == 0
        payload = json.loads(out)
        # config supplied nu=6; flag left at default, so config wins
        assert payload["inputs"]["nu"] == 6
        assert payload["config_merged"]["nu"] == "6"

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("nu = 6\n")
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-a-height",
                             "--nu", "5", "--config", str(cfg))
        payload = json.loads(out)
        assert payload["inputs"]["nu"] == 5

    def test_config_values_coerced_by_flag_type(self, capsys, tmp_path):
        # --excluded-primes is an untyped string flag, --g is type=int
        cfg = tmp_path / "job.cfg"
        cfg.write_text("excluded_primes = 2\ng = 2\n")
        rc, out, _ = run_cli(capsys, "bound", "--formula", "thm-a-height",
                             "--config", str(cfg))
        assert rc == 0
        payload = json.loads(out)
        assert payload["inputs"]["excluded_primes"] == [2]
        assert payload["inputs"]["g"] == 2

    @pytest.mark.parametrize("line", ["g = two", "kind = nope"])
    def test_bad_config_value(self, capsys, tmp_path, line):
        # not an int for a type=int flag; not one of the flag's choices
        cfg = tmp_path / "job.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run_cli(capsys, "bound", "--formula", "level-structure",
                             "--config", str(cfg))
        assert rc == 1
        assert "usage error" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("wibble = 3\n")
        rc, _, err = run_cli(capsys, "bound", "--formula", "thm-b",
                             "--config", str(cfg))
        assert rc == 1

    def test_table_format(self, capsys):
        rc, out, _ = run_cli(capsys, "order-info", "--field", "1,0,1",
                             "--format", "table")
        assert rc == 0
        assert "conductor" in out and "{" not in out


class TestVerifySuiteSmall:
    def test_small_corpus_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify-suite", "--max-disc", "24",
                             "--max-conductor", "2", "--conjugations", "2")
        assert rc == 0
        assert "suite: PASS" in out

    def test_fault_injection_fails(self, capsys):
        rc, out, _ = run_cli(capsys, "verify-suite", "--max-disc", "24",
                             "--max-conductor", "2", "--conjugations", "1",
                             "--inject-fault")
        assert rc == 2
        assert "FAIL" in out

    SMALL = ("--max-disc", "24", "--max-conductor", "2", "--conjugations", "1")

    @staticmethod
    def untimed(text):
        """The suite's lines with each check's seconds blanked."""
        return re.sub(r"\(\d+\.\d\ds\)", "(-)", text)

    def test_json_format(self, capsys):
        # one object: passed, a check list and the per-order rows, with the
        # verdicts and numbers the table prints
        rc, out, _ = run_cli(capsys, "verify-suite", *self.SMALL,
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert sorted(payload) == ["checks", "passed", "per_order"]
        assert payload["passed"] is True
        checks = payload["checks"]
        assert [c["name"] for c in checks] == [
            "lenstra-factorization", "class-bounds", "structure-counts",
            "bijection-roundtrip", "unit-bounds", "transfer-inequality",
            "bound-evaluators", "conductor-comparison", "table-audit",
            "negative-control"]
        for c in checks:
            assert sorted(c) == ["details", "name", "passed", "seconds"]
            assert c["passed"] is True and isinstance(c["seconds"], float)
        rows = payload["per_order"]
        assert rows[0] == {"disc": -3, "conductor_index": 1,
                           "conductor_norm": 1, "classes": 1, "picard": 1,
                           "intermediate": 1, "census_checked": 6}
        rc, table, _ = run_cli(capsys, "verify-suite", *self.SMALL,
                               "--format", "table")
        lines = table.splitlines()
        assert lines[0] == f"verification corpus: {len(rows)} quadratic orders"
        assert lines[2:2 + len(rows)] == [
            "  {:>5} {:>4} {:>5} {:>4} {:>6} {:>4} {:>7}".format(
                *(r[k] for k in cli._PER_ORDER_KEYS)) for r in rows]
        assert self.untimed("\n".join(lines[2 + len(rows):-1])) == "\n".join(
            f"PASS {c['name']} (-): {c['details']}" for c in checks)

    def test_table_is_the_default(self, capsys, tmp_path):
        # a bare verify-suite prints the text lines; a config file may ask
        # for JSON
        runs = [run_cli(capsys, "verify-suite", *self.SMALL),
                run_cli(capsys, "verify-suite", *self.SMALL,
                        "--format", "table")]
        assert [rc for rc, _, _ in runs] == [0, 0]
        assert self.untimed(runs[0][1]) == self.untimed(runs[1][1])
        assert runs[0][1].startswith("verification corpus: ")
        assert runs[0][1].endswith("suite: PASS\n")
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("format = json\n")
        rc, out, _ = run_cli(capsys, "verify-suite", *self.SMALL,
                             "--config", str(cfg))
        assert rc == 0
        payload = json.loads(out)
        assert payload["passed"] and payload["config_merged"] == {
            "format": "json"}


class TestParserBuiltOnce:
    def test_cached_parser_matches_fresh(self, capsys, tmp_path):
        from orderkit import cli
        cfg = tmp_path / "job.cfg"
        cfg.write_text("nu = 6\n")
        requests = [
            ("bound", "--formula", "no-such"),
            ("class-monoid", "--field", "3,0,1", "--order-basis", "1,0;0,1"),
            ("bound", "--formula", "thm-main-height", "--g", "2"),
            ("bound", "--formula", "thm-a-height", "--config", str(cfg)),
        ]
        cli._parser_and_actions.cache_clear()
        in_one_process = [run_cli(capsys, *argv) for argv in requests]
        assert cli._parser_and_actions.cache_info().misses == 1
        fresh = []
        for argv in requests:
            cli._parser_and_actions.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert in_one_process == fresh
        assert [rc for rc, _, _ in fresh] == [1, 0, 0, 0]
        assert json.loads(fresh[3][1])["inputs"]["nu"] == 6
