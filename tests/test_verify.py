import hashlib

import numpy as np
import pytest

from qmeter import ConfigError, Vector, basis_ket, rank, symmetry, verify
from qmeter.symmetry import pair_product, phi_minus
from qmeter.verify import all_passed, render_report, run_checks


def test_battery_passes():
    results = run_checks()
    assert len(results) >= 30
    assert all_passed(results), [r.name for r in results if not r.passed]


def test_battery_shape_is_pinned():
    # the names, expected values and tolerances of all 107 checks, in order;
    # the computed strings are left out, since their roundoff may differ
    # between numpy builds
    results = run_checks()
    assert len(results) == 107
    assert all_passed(results), [r.name for r in results if not r.passed]
    triples = "".join(f"{r.name}\t{r.expected}\t{r.tolerance}\n" for r in results)
    assert hashlib.sha256(triples.encode()).hexdigest() == (
        "26b82776c9ab17eedbbf00b1d6e4b726e5fafc6c2008d53c2f4a6e5b1848ac9f")


def test_each_rbar_is_built_once_per_battery_call(monkeypatch):
    # every distinct symmetrizer (slots, n, d) the battery needs is built
    # exactly once per call, counting each member of a stacked build, and the
    # eight rbar (kind, d) are combined once each from the P+ of their d;
    # every call builds them afresh: nothing is cached from one call to the next
    rbars, built = [], []

    def counted_rbar(which, sym, _rbar=verify._rbar):
        rbars.append((which, sym.d))
        return _rbar(which, sym)

    def recorded(slot_sets, n, d, _build=symmetry._symmetrizers):
        slot_sets = list(slot_sets)
        built.extend((tuple(slots), n, d) for slots in slot_sets)
        return _build(slot_sets, n, d)

    monkeypatch.setattr(verify, "_rbar", counted_rbar)
    for module in (symmetry, verify):  # symmetrizer's lookup and the battery's
        monkeypatch.setattr(module, "_symmetrizers", recorded)
    qubits = [(1, 2), (3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4),
              (2, 3), (2, 4), (1, 3), (1, 4)]
    expected = ([(slots, 4, 2) for slots in qubits] + [((1,), 1, 2), ((1, 2, 3), 3, 2)]
                + [((1, 2), 2, d) for d in (2, 3, 4, 5)])
    for _ in range(2):
        rbars.clear()
        built.clear()
        assert all_passed(run_checks())
        assert sorted(rbars) == sorted({(w, d) for w in ("same", "diff") for d in (2, 3, 4, 5)})
        assert sorted(built) == sorted(expected) and len(expected) == 17


@pytest.mark.parametrize("call", [
    lambda: verify.pure_moment(1.5, 2), lambda: verify.pure_moment(2, "2"),
    lambda: verify.pure_moment(True, 2), lambda: verify.r_operator("12-34", 2.5),
    lambda: verify.r_operator("12-34", "2"), lambda: verify.perp_moment(basis_ket((0,), 2), 1.5),
])
def test_moment_oracles_reject_a_non_integer_k_or_d(call):
    with pytest.raises(ConfigError):
        call()


def test_the_stacked_battery_ranks_are_the_one_at_a_time_ones(monkeypatch):
    # one stacked pass of 14 16x16 operators, each rank as rank() reads it
    passes = []

    def recorded(ops, _ranks=verify._ranks):
        passes.append((list(ops), _ranks(ops)))
        return passes[-1][1]

    monkeypatch.setattr(verify, "_ranks", recorded)
    results = run_checks()
    assert all_passed(results)
    [(ops, ranks)] = passes
    assert len(ops) == 14 and all(op.dim == 16 for op in ops)
    assert ranks == [rank(op) for op in ops]
    reported = [int(r.computed) for r in results if r.name.startswith("rank")]
    assert reported == ranks == [5, 12, 9, 8, 3, 3, 7, 9, 11, 13, 0, 1, 1, 3]


def test_report_renders_one_line_per_check():
    results = run_checks()
    text = render_report(results)
    lines = text.strip().split("\n")
    assert len(lines) == len(results) + 1  # checks + summary
    assert lines[-1].endswith("checks passed")
    for line in lines[:-1]:
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "computed" in line and "expected" in line and "tol" in line


def test_battery_fails_on_corrupted_optimal_state(monkeypatch):
    # flipping the relative sign between the two pairing terms produces a
    # normalized state that must break the success-probability identities
    pm = phi_minus(0, 1)
    t13 = pair_product(pm, (1, 3), pm, (2, 4)).vec
    t14 = pair_product(pm, (1, 4), pm, (2, 3)).vec
    bad = t13 - t14
    bad = bad / np.linalg.norm(bad)
    monkeypatch.setattr(verify, "singlet_pairing_state", lambda: Vector(bad, 2, 4))
    results = run_checks()
    assert not all_passed(results)
    failed = {r.name for r in results if not r.passed}
    assert any("4/9" in name for name in failed)
