import hashlib

import numpy as np

from qmeter import Vector, verify
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
    # eight distinct (kind, d), one symmetrizer each, and every call builds
    # them afresh: nothing is cached from one call to the next
    rbars, syms = [], []
    for name, seen in (("rbar", rbars), ("symmetrizer", syms)):
        def counted(*args, _built=getattr(verify, name), _seen=seen):
            _seen.append(args)
            return _built(*args)
        monkeypatch.setattr(verify, name, counted)
    for _ in range(2):
        rbars.clear()
        syms.clear()
        assert all_passed(run_checks())
        assert sorted(rbars) == sorted({(w, d) for w in ("same", "diff") for d in (2, 3, 4, 5)})
        assert len(syms) == 49


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
