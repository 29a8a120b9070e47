"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines as they complete.
"""

import hashlib
import random
import subprocess
import sys
import time

import pytest

from orderkit import bounds as bounds_mod
from orderkit.errors import OrderkitError
from orderkit.gamma_structures import (
    MatrixOrder,
    compatibility_of,
    count_conjugacy_classes_bruteforce,
    count_structures,
    structure_to_ideal_class,
    structures_from_ideal_classes,
    transfer_inequality_check,
)
from orderkit.ideals import class_monoid
from orderkit.numberfield import RATIONAL_FIELD, make_field
from orderkit.orders import (
    conductor_comparison_check,
    is_order,
    maximal_order,
    unit_square_quotient,
)
from orderkit.verify import _conjugate, _random_unimodular, build_corpus

_STATE = {}


def _corpus():
    if "corpus" not in _STATE:
        _STATE["corpus"] = build_corpus(200, 6)
    return _STATE["corpus"]


def _monoids():
    if "monoids" not in _STATE:
        t0 = time.time()
        corpus = _corpus()
        _STATE["monoids"] = [class_monoid(e.order) for e in corpus]
        _STATE["monoid_seconds"] = time.time() - t0
    return _STATE["monoids"]


def _report(num, name, seconds, limit):
    print(f"criterion {num} ({name}): PASS in {seconds:.2f}s "
          f"(limit {limit}s)")
    assert seconds < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_1_lenstra_factorization():
    """Census equals Pic * intermediate classes on every corpus order."""
    t0 = time.time()
    corpus = _corpus()
    try:
        monoids = _monoids()
    except OrderkitError as err:  # FactorizationViolation is fatal here
        pytest.fail(f"criterion 1: {type(err).__name__}: {err}")
    assert len(corpus) > 150
    for monoid in monoids:
        assert monoid.census_checked > 0
        assert monoid.census_budget == monoid.conductor_norm ** 2 * 16
    _report(1, "lenstra factorization census", time.time() - t0, 60)


# sha256 of monoid_digest over the 183 corpus monoids, taken from the
# lattice-product implementation of class_monoid that preceded the integer
# pair route
CORPUS_MONOID_SHA256 = (
    "ae675f237096469638b5afb2a922cc1b2fb6b88d7341b018ba3da44591d20e35")


def monoid_digest(monoids):
    """sha256 of each monoid's labels, invertible flags, representative
    HNFs, table, Picard and intermediate subsets and census count."""
    h = hashlib.sha256()
    for m in monoids:
        h.update(repr((
            [c.label for c in m.classes],
            [c.invertible for c in m.classes],
            [(c.representative.lattice.den,
              c.representative.lattice.basis.entries) for c in m.classes],
            m.table, m.picard_subset, m.intermediate_subset,
            m.census_checked)).encode())
    return h.hexdigest()


def test_corpus_monoids_pinned():
    monoids = _monoids()
    assert len(monoids) == 183
    assert monoid_digest(monoids) == CORPUS_MONOID_SHA256


def test_criterion_2_class_bounds():
    """|I| <= N(f)^g and |Pic| <= N(f) h, plus |C| <= N(f)^(g+1) h."""
    t0 = time.time()
    for entry, monoid in zip(_corpus(), _monoids()):
        nf = monoid.conductor_norm
        h = monoid.maximal_class_number
        assert len(monoid.intermediate_subset) <= nf ** 2, entry.disc
        assert len(monoid.picard_subset) <= nf * h, entry.disc
        assert monoid.size <= nf ** 3 * h, entry.disc
    _report(2, "intermediate/picard/class-monoid bounds", time.time() - t0, 60)


def test_criterion_3_structure_counts():
    """Z[sqrt-5] -> M2(Z): exactly 2 with the bound met with equality;
    Z[i] -> M2(Z): exactly 1; cross-checked by bounded-entry conjugacy."""
    t0 = time.time()
    target = MatrixOrder(RATIONAL_FIELD, 2)
    o5 = maximal_order(make_field([5, 0, 1]))
    res5 = count_structures(o5, target)
    assert res5.count == 2 and res5.bound == 2
    brute5, _ = count_conjugacy_classes_bruteforce(0, 5, 10)
    assert brute5 == 2
    zi = maximal_order(make_field([1, 0, 1]))
    res1 = count_structures(zi, target)
    assert res1.count == 1 and res1.bound == 1
    brute1, _ = count_conjugacy_classes_bruteforce(0, 1, 10)
    assert brute1 == 1
    _report(3, "matrix structure counts", time.time() - t0, 30)


def test_criterion_4_bijection_roundtrip():
    """Classes -> morphisms -> classes is the identity, invariant under 20
    random unimodular conjugations per structure, over the whole corpus."""
    t0 = time.time()
    rng = random.Random(20260810)
    target = MatrixOrder(RATIONAL_FIELD, 2)
    structures = 0
    for entry, monoid in zip(_corpus(), _monoids()):
        found = structures_from_ideal_classes(entry.order, target, 0, monoid)
        assert len(found) == monoid.size, entry.disc
        for s in found:
            structures += 1
            idx, _ = structure_to_ideal_class(s.representative, monoid)
            assert idx == s.ideal_class_index, entry.disc
            for _ in range(20):
                u = _random_unimodular(rng)
                conj = _conjugate(s.representative, u)
                assert compatibility_of(conj)[0] == s.compatibility
                idx2, _ = structure_to_ideal_class(conj, monoid)
                assert idx2 == s.ideal_class_index, entry.disc
    assert structures > 300
    _report(4, f"bijection round-trip ({structures} structures)",
            time.time() - t0, 60)


def test_criterion_5_unit_bounds():
    """|G^x / G^x2| <= 2^g with exact values: 2 for every imaginary order
    (torsion 2, 4 or 6), 4 for every real one, N(eps) = +-1 throughout."""
    t0 = time.time()
    for entry in _corpus():
        data = unit_square_quotient(entry.order)
        assert data.square_class_count <= 4, entry.disc
        if entry.disc < 0:
            assert data.square_class_count == 2, entry.disc
            expected_torsion = {-4: 4, -3: 6}.get(entry.disc, 2)
            assert data.torsion_order == expected_torsion, entry.disc
            assert data.fundamental_unit is None
        else:
            assert data.square_class_count == 4, entry.disc
            eps = data.fundamental_unit
            assert abs(eps.norm()) == 1, entry.disc
            assert entry.order.contains(eps)
    _report(5, "unit square-class bounds", time.time() - t0, 10)


def test_criterion_6_transfer_instance():
    """Z[i] / Z[2i] with d = 2: counts (2, 2), |R'/2R'| = 4, 2 <= 8, and
    the unit-index bound 2 <= 4."""
    t0 = time.time()
    qi = make_field([1, 0, 1])
    zi = maximal_order(qi)
    z2i = is_order(qi, [[1, 0], [0, 2]])
    rep = transfer_inequality_check(zi, zi, z2i, 2)
    assert (rep.count_r, rep.count_r_prime) == (2, 2)
    assert rep.quotient_size == 4
    assert rep.count_r <= rep.quotient_size * rep.count_r_prime  # 2 <= 8
    assert rep.inequality_holds
    assert rep.unit_index == 2 and rep.unit_quotient_bound == 4
    assert rep.unit_inequality_holds
    _report(6, "commensurable transfer instance", time.time() - t0, 5)


def test_criterion_7_bound_evaluators():
    """Digit counts certified by directed rounding; exact value matches an
    independent big-integer exponentiation."""
    t0 = time.time()
    empty = bounds_mod.SIntegerSpec(())
    assert bounds_mod.thm_main_height(1, empty).digit_count == 69
    head, _ = bounds_mod.thm_main_count(1, empty, 1, 1)
    assert head.digit_count == 5_050_446
    assert bounds_mod.e_exponent(1) == 16_777_216
    assert bounds_mod.e_exponent(2) == 4_294_967_296
    ba = bounds_mod.thm_a_height(1, 6, empty)
    assert ba.exact_flag
    assert ba.exact_value == 3 ** 144 * 6 ** 24  # independent exponentiation
    _report(7, "bound evaluator digit counts", time.time() - t0, 10)


def test_criterion_8_conductor_comparison():
    """d f <= f' and N(f') <= d^g N(f) for every corpus order, d in 1..3."""
    t0 = time.time()
    for entry in _corpus():
        for d in (1, 2, 3):
            rep = conductor_comparison_check(entry.order, d)
            assert rep.scaling_contained, (entry.disc, d)
            assert rep.norm_bound_holds, (entry.disc, d)
    _report(8, "conductor comparison", time.time() - t0, 30)


def test_criterion_9_verify_suite_end_to_end():
    """The CLI suite exits 0, and the injected-fault control exits nonzero."""
    t0 = time.time()
    clean = subprocess.run(
        [sys.executable, "-m", "orderkit.cli", "verify-suite"],
        capture_output=True, text=True)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "suite: PASS" in clean.stdout
    faulty = subprocess.run(
        [sys.executable, "-m", "orderkit.cli", "verify-suite",
         "--max-disc", "40", "--max-conductor", "2", "--conjugations", "1",
         "--inject-fault"],
        capture_output=True, text=True)
    assert faulty.returncode != 0
    assert "FAIL" in faulty.stdout
    print(f"criterion 9 (verify-suite end-to-end): PASS in "
          f"{time.time() - t0:.2f}s")


def test_error_origin_names_the_module_under_python_m():
    """Run as ``python -m orderkit.cli``, an error raised in cli.py names cli,
    not __main__."""
    run = subprocess.run(
        [sys.executable, "-m", "orderkit.cli", "bound", "--formula", "thm-b",
         "--n=7", "--pic=-5", "--kind", "p1_n"],
        capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("error [cli.bound] InvalidInput: ")
