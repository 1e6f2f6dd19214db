"""Analytic identity battery: every closed form re-derived and checked.

Each check rebuilds its claim from the package primitives (no Monte Carlo,
no caching of expected results) and records the computed value, the expected
value and the tolerance used.  The battery is the backing of the `verify`
CLI command; `run_checks(phi_q=...)` allows substituting the optimal test
state, which is used to demonstrate that a corrupted state makes the battery
fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .comparison import (
    UNLABELED_CLASSES,
    Observable,
    Scenario,
    TestState,
    analytic_success,
    kappa_state,
    labeled_class_operators,
    labeled_fixed_pair_success,
    labeled_outcome_probabilities,
    observable_pair_angle,
    optimal_success_over_subspace,
    outcome_class_index,
    pairwise_success_angle,
    singlet_pairing_state,
    unlabeled_operators,
    unlabeled_outcome_distribution,
    unlabeled_single_use_probability,
)
from .haar import perp_moment_operator, pure_moment, r_operator, rbar
from .symmetry import basis_family, swap, sym_dim, symmetrizer
from .tensors import Operator, Vector, basis_ket, identity, kron, rank, support_projector


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: str
    expected: str
    tolerance: str
    passed: bool


class _Battery:
    def __init__(self):
        self.results: List[CheckResult] = []

    def close(self, name, computed, expected, tol):
        err = abs(float(computed) - float(expected))
        self.results.append(CheckResult(
            name=name, computed=f"{float(computed):.12g}",
            expected=f"{float(expected):.12g}", tolerance=f"{tol:g}",
            passed=err <= tol,
        ))

    def equal_int(self, name, computed, expected):
        self.results.append(CheckResult(
            name=name, computed=str(int(computed)), expected=str(int(expected)),
            tolerance="exact", passed=int(computed) == int(expected),
        ))

    def maxdiff(self, name, a, b, tol):
        diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0
        self.results.append(CheckResult(
            name=name, computed=f"maxdiff {diff:.3e}", expected="0",
            tolerance=f"{tol:g}", passed=diff <= tol,
        ))

    def below(self, name, value, tol):
        self.results.append(CheckResult(
            name=name, computed=f"{float(value):.3e}", expected="0",
            tolerance=f"{tol:g}", passed=float(value) <= tol,
        ))


def run_checks(phi_q: Optional[Vector] = None) -> List[CheckResult]:
    """Run the full analytic battery; returns one CheckResult per identity."""
    bat = _Battery()
    tol = 1e-10
    tol_eig = 1e-9

    # ---- symmetric subspace dimensions and ranks
    bat.equal_int("sym_dim(2,2) = 3", sym_dim(2, 2), 3)
    bat.equal_int("sym_dim(2,3) = 4", sym_dim(2, 3), 4)
    bat.equal_int("sym_dim(2,4) = 5", sym_dim(2, 4), 5)
    p12 = symmetrizer((1, 2), 4, 2)
    p34 = symmetrizer((3, 4), 4, 2)
    p123 = symmetrizer((1, 2, 3), 4, 2)
    p124 = symmetrizer((1, 2, 4), 4, 2)
    p134 = symmetrizer((1, 3, 4), 4, 2)
    p234 = symmetrizer((2, 3, 4), 4, 2)
    p1234 = symmetrizer((1, 2, 3, 4), 4, 2)
    p12x34 = Operator(p12.mat @ p34.mat, 2, 4)
    bat.close("trace(P1234+) = 5", p1234.trace().real, 5.0, tol)
    bat.equal_int("rank(P1234+) = 5", rank(p1234), 5)
    bat.equal_int("rank(P12+ (x) 1) = 12", rank(p12), 12)
    bat.equal_int("rank(P12+ (x) P34+) = 9", rank(p12x34), 9)
    bat.equal_int("rank(P123+) = 8", rank(p123), 8)
    q123 = p123 - p1234
    q124 = p124 - p1234
    bat.equal_int("rank(Q123 = P123+ - P1234+) = 3", rank(q123), 3)
    bat.equal_int("rank(Q124) = 3", rank(q124), 3)
    bat.equal_int("rank(P12+ (x) 1 - P1234+) = 7", rank(p12 - p1234), 7)
    bat.maxdiff("nesting: P123+ P1234+ = P1234+", p123.mat @ p1234.mat, p1234.mat, tol)
    bat.maxdiff("nesting: P12+ P123+ = P123+", p12.mat @ p123.mat, p123.mat, tol)

    # ---- swap algebra
    s23 = swap(2, 3, 4, 2)
    s24 = swap(2, 4, 4, 2)
    s34 = swap(3, 4, 4, 2)
    bat.maxdiff("S34 = S24 S23 S24", s34.mat, s24.mat @ s23.mat @ s24.mat, tol)

    # ---- moment operators
    bat.maxdiff("pure_moment(1,2) = 1/2", pure_moment(1, 2).op.mat, np.eye(2) / 2, tol)
    bat.maxdiff("pure_moment(2,2) = P+/3",
                pure_moment(2, 2).op.mat, symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("pure_moment(4,2) = P1234+/5", pure_moment(4, 2).op.mat, p1234.mat / 5, tol)
    for k in (1, 2, 3, 4):
        bat.close(f"trace pure_moment({k},2) = 1", pure_moment(k, 2).op.trace().real, 1.0, tol)
    perp22 = perp_moment_operator(2, 2)(basis_ket((0,), 2))
    e11 = np.zeros((4, 4))
    e11[3, 3] = 1.0
    bat.maxdiff("perp moment d=2: psi=|0> -> (|1><1|)^(x)2", perp22.mat, e11, tol)
    perp32 = perp_moment_operator(2, 3)(basis_ket((0,), 3))
    bat.close("perp moment d=3,k=2 has trace 1", perp32.trace().real, 1.0, tol)
    probe = np.zeros(9)
    probe[0] = 1.0  # |0 0> component: must be annihilated (support _|_ psi)
    bat.below("perp moment d=3 annihilates psi-overlapping kets",
              float(np.max(np.abs(perp32.mat @ probe))), tol)

    # ---- R operators
    r12 = r_operator("12-34", 2)
    r13 = r_operator("13-24", 2)
    r14 = r_operator("14-23", 2)
    bat.maxdiff("R13-24 = S23 R12-34 S23", r13.op.mat, s23.mat @ r12.op.mat @ s23.mat, tol)
    bat.maxdiff("R14-23 = S34 R13-24 S34", r14.op.mat, s34.mat @ r13.op.mat @ s34.mat, tol)
    bat.maxdiff("[R12-34, P34+] = 0", r12.op.mat @ p34.mat, p34.mat @ r12.op.mat, tol)
    rp = Operator(r12.op.mat @ p34.mat, 2, 4)
    bat.below("R12-34 P34+ is PSD", max(0.0, -float(np.min(np.linalg.eigvalsh(rp.mat)))), 1e-12)
    bat.maxdiff("support(R12-34 P34+) = P12+ (x) P34+", support_projector(rp).mat, p12x34.mat, tol_eig)

    # ---- rbar
    rb_s = rbar("same", 2).op
    rb_d = rbar("diff", 2).op
    bat.maxdiff("rbar(same,2) = P+/3", rb_s.mat, symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("rbar(diff,2) = 1/2 - P+/3",
                rb_d.mat, np.eye(4) / 2 - symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("2 rbar(same,2) + 2 rbar(diff,2) = 1", 2 * rb_s.mat + 2 * rb_d.mat, np.eye(4), tol)
    for d in (2, 3, 4):
        comb = d * rbar("same", d).op.mat + d * rbar("diff", d).op.mat
        bat.maxdiff(f"d rbar(same) + d rbar(diff) = 1 (d={d})", comb, np.eye(d * d), tol)
        bat.close(f"trace rbar(diff,{d}) = d-1", rbar("diff", d).op.trace().real, d - 1, tol)

    # ---- hypothesis operator families
    ops = unlabeled_operators(2)
    eq_sum = sum(c.equal.mat for c in ops.values())
    ne_sum = sum(c.different.mat for c in ops.values())
    bat.maxdiff("equal-hypothesis class operators sum to 1", eq_sum, np.eye(16), tol)
    bat.maxdiff("different-hypothesis class operators sum to 1", ne_sum, np.eye(16), tol)
    bat.equal_int("rank support(O_ss equal) = 9", rank(ops["same_same"].support_equal), 9)
    bat.equal_int("rank support(O_sd equal) = 11", rank(ops["same_diff"].support_equal), 11)
    bat.equal_int("rank support(O_dd equal) = 13", rank(ops["diff_diff"].support_equal), 13)
    bat.equal_int("rank Q_ss = 0", rank(ops["same_same"].no_error), 0)
    bat.equal_int("rank Q_sd = 1", rank(ops["same_diff"].no_error), 1)
    bat.equal_int("rank Q_ds = 1", rank(ops["diff_same"].no_error), 1)
    bat.equal_int("rank Q_dd = 3", rank(ops["diff_diff"].no_error), 3)

    # ---- twirled class operators vs the hand-derived closed forms (d=2, d4=5)
    p23, p24 = symmetrizer((2, 3), 4, 2).mat, symmetrizer((2, 4), 4, 2).mat
    p4 = p1234.mat
    for c, label, closed in (
        ("same_same", "(2/5) P1234+ + 2 R12-34 P34+", 0.4 * p4 + 2 * r12.op.mat @ p34.mat),
        ("same_diff", "(P123+ + P124+)/2 - (4/5) P1234+", (p123.mat + p124.mat) / 2 - 0.8 * p4),
        ("diff_same", "(P134+ + P234+)/2 - (4/5) P1234+", (p134.mat + p234.mat) / 2 - 0.8 * p4),
        ("diff_diff", "2 (R13-24 P24+ + R14-23 P23+)", 2 * (r13.op.mat @ p24 + r14.op.mat @ p23)),
    ):
        first, second = c.split("_")
        bat.maxdiff(f"O_{c} equal = {label}", ops[c].equal.mat, closed, tol)
        bat.maxdiff(f"O_{c} different = 4 rbar({first}) (x) rbar({second})", ops[c].different.mat,
                    4 * kron(rbar(first, 2).op, rbar(second, 2).op).mat, tol)

    # ---- no-error bases vs the named families
    phi = phi_q if phi_q is not None else singlet_pairing_state()
    bat.close("|phi_Q| = 1", phi.norm(), 1.0, tol)
    kill = max(float(np.max(np.abs(symmetrizer(trip, 4, 2).mat @ phi.vec)))
               for trip in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    bat.below("three-slot symmetrizers annihilate phi_Q", kill, tol)
    bat.maxdiff("P12+ (x) P34+ phi_Q = phi_Q", p12x34.mat @ phi.vec, phi.vec, tol)
    bat.maxdiff("Q_sd = |phi_Q><phi_Q|", ops["same_diff"].no_error.mat,
                np.outer(phi.vec, phi.vec.conj()), tol_eig)
    kap = basis_family("kappa")
    gram = np.array([[a.inner(b) for b in kap] for a in kap])
    bat.maxdiff("kappa family orthonormal", gram, np.eye(3), tol)
    span = sum(np.outer(v.vec, v.vec.conj()) for v in kap)
    bat.maxdiff("Q_dd = span(kappa)", ops["diff_diff"].no_error.mat, span, tol_eig)
    k2p = basis_family("kappa_prime")[0]
    p13x24 = Operator(symmetrizer((1, 3), 4, 2).mat @ symmetrizer((2, 4), 4, 2).mat, 2, 4)
    p14x23 = Operator(symmetrizer((1, 4), 4, 2).mat @ symmetrizer((2, 3), 4, 2).mat, 2, 4)
    bat.close("<kappa_2'| P13+ (x) P24+ |kappa_2'> = 1/4",
              p13x24.expval(k2p).real, 0.25, tol)
    bat.close("<kappa_2'| P14+ (x) P23+ |kappa_2'> = 1/4",
              p14x23.expval(k2p).real, 0.25, tol)
    killed = max(float(np.max(np.abs(p13x24.mat @ v.vec))) for v in kap)
    killed = max(killed, max(float(np.max(np.abs(p14x23.mat @ v.vec))) for v in kap))
    bat.below("other-split projectors annihilate kappa", killed, tol)

    eta = basis_family("eta")
    geta = np.array([[a.inner(b) for b in eta] for a in eta])
    bat.maxdiff("eta family orthonormal", geta, np.eye(5), tol)
    bat.maxdiff("span(eta) = P1234+",
                sum(np.outer(v.vec, v.vec.conj()) for v in eta), p1234.mat, tol_eig)

    om = basis_family("omega")
    omp = basis_family("omega_prime")
    gw = np.array([[a.inner(b) for b in om] for a in om])
    gwp = np.array([[a.inner(b) for b in omp] for a in omp])
    gx = np.array([[a.inner(b) for b in omp] for a in om])
    bat.maxdiff("<omega_j|omega_k> = 6 delta_jk", gw, 6 * np.eye(3), tol)
    bat.maxdiff("<omega'_j|omega'_k> = 6 delta_jk", gwp, 6 * np.eye(3), tol)
    bat.maxdiff("<omega_j|omega'_k> = -2 delta_jk", gx, -2 * np.eye(3), tol)
    bat.maxdiff("span(omega) = Q123",
                sum(np.outer(v.vec, v.vec.conj()) for v in om) / 6, q123.mat, tol_eig)
    bat.maxdiff("span(omega') = Q124",
                sum(np.outer(v.vec, v.vec.conj()) for v in omp) / 6, q124.mat, tol_eig)
    w = np.linalg.eigvalsh(q123.mat + q124.mat)
    nonzero = np.sort(w[np.abs(w) > tol_eig])
    target = np.array([2 / 3] * 3 + [4 / 3] * 3)
    ok = nonzero.shape == target.shape
    bat.maxdiff("spec(Q123+Q124) = {2/3 x3, 4/3 x3}",
                nonzero if ok else np.full_like(target, np.inf), target, tol_eig)

    # ---- success probabilities, unlabeled
    scen_u = Scenario("unlabeled", 2)
    state_for_phi = TestState.pure(phi)
    rho_phi = state_for_phi.rho.mat
    p_sd = float(np.trace(rho_phi @ ops["same_diff"].different.mat).real)
    p_ds = float(np.trace(rho_phi @ ops["diff_same"].different.mat).real)
    bat.close("phi_Q: P(same_diff | different) = 2/9", p_sd, 2 / 9, tol)
    bat.close("phi_Q: P(diff_same | different) = 2/9", p_ds, 2 / 9, tol)
    bat.close("phi_Q total success = 4/9", p_sd + p_ds, 4 / 9, tol)
    err = max(float(np.trace(rho_phi @ ops[c].equal.mat).real) for c in ("same_diff", "diff_same"))
    bat.below("phi_Q: conclusive classes have zero probability for equal devices", err, tol)
    for j in (1, 2, 3):
        rep = analytic_success(scen_u, kappa_state(j))
        bat.close(f"kappa_{j} success (class diff_diff) = 1/9", rep.total, 1 / 9, tol)
    bat.close("max success over Q_dd states = 1/9",
              optimal_success_over_subspace(ops["diff_diff"].no_error,
                                            ops["diff_diff"].different), 1 / 9, tol)
    both = ops["same_diff"].different + ops["diff_same"].different
    bat.close("max success over Q_sd states (sd+ds classes) = 4/9",
              optimal_success_over_subspace(ops["same_diff"].no_error, both), 4 / 9, tol)

    # ---- labeled protocol, all dimensions
    for d in (2, 3, 4, 5):
        st = TestState.antisymmetric(d)
        table = labeled_outcome_probabilities(st)
        bat.below(f"antisymmetric state: q_same(equal) = 0 (d={d})", abs(table.q_same_equal), tol)
        rep = analytic_success(Scenario("labeled", d), st)
        bat.close(f"labeled success = 1/d (d={d})", rep.total, 1 / d, tol)
        lab = labeled_class_operators(d)
        comp = lab["same"].equal.mat + lab["diff"].equal.mat
        bat.maxdiff(f"labeled equal-hypothesis classes sum to 1 (d={d})",
                    comp, np.eye(d * d), tol)
        eye = np.eye(d * d)
        bat.maxdiff(f"labeled O_same, O_diff = d rbar (equal), 1/d, (d-1)/d (different) (d={d})",
                    [lab["same"].equal.mat, lab["diff"].equal.mat,
                     lab["same"].different.mat, lab["diff"].different.mat],
                    [d * rbar("same", d).op.mat, d * rbar("diff", d).op.mat,
                     eye / d, eye * (d - 1) / d], tol)
    zx = labeled_fixed_pair_success(
        Observable.computational(2),
        Observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
        TestState.antisymmetric(2),
    )
    bat.close("fixed pair (Z basis, X basis, singlet): success = 1/2", zx, 0.5, tol)

    # ---- fixed-pair angle law
    bat.close("angle law at theta=pi/6: (2/3) sin^2(pi/3) = 1/2",
              pairwise_success_angle(np.pi / 6), 0.5, tol)
    a_obs = Observable.computational(2)
    conclusive = np.isin(np.array(UNLABELED_CLASSES)[outcome_class_index(4, 2)],
                         ("same_diff", "diff_same"))
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 2, 33):
        b_obs = Observable.qubit_angle(float(theta))
        table = unlabeled_outcome_distribution(a_obs, b_obs, state_for_phi)
        direct = float(table.reshape(-1)[conclusive].sum())
        worst = max(worst, abs(direct - pairwise_success_angle(float(theta))))
    bat.below("direct Born evaluation matches (2/3) sin^2(2 theta) on 33-point grid",
              worst, 1e-9)
    bat.close("pair angle of (Z, X) bases = pi/4",
              observable_pair_angle(a_obs, Observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))),
              np.pi / 4, tol)

    # ---- single-use futility
    rho2 = TestState.pure(Vector(np.kron([1, 0], [0, 1]), 2, 2))
    tbl = unlabeled_single_use_probability(a_obs, Observable.qubit_angle(0.7), rho2)
    bat.maxdiff("single use of each device: relabel-averaged table = 1/4",
                tbl, np.full((2, 2), 0.25), tol)

    return bat.results


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.passed for r in results)


def render_report(results: List[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.name}  (computed {r.computed}, expected {r.expected}, "
                     f"tol {r.tolerance})")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
