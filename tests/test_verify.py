import numpy as np

from qmeter import Vector, verify
from qmeter.symmetry import pair_product, phi_minus
from qmeter.verify import all_passed, render_report, run_checks


def test_battery_passes():
    results = run_checks()
    assert len(results) >= 30
    assert all_passed(results), [r.name for r in results if not r.passed]


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
