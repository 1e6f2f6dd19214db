"""Analytic identity battery: every closed form re-derived and checked.

Each check rebuilds its claim from the package primitives (no Monte Carlo,
no caching of expected results) and records the computed value, the expected
value and the tolerance used.  The battery is the backing of the `verify`
CLI command.

The hand-derived closed forms of Haar moments live here, as oracles for the
twirled operators (battery) and for haar.mc_twirl (acceptance gate):

- pure_moment(k, d):    E[ (psi psi^dag)^(x)k ]            = P+_(1..k) / sym_dim(d, k)
- perp_moment(psi, k):  E[ (phi phi^dag)^(x)k ] over Haar phi orthogonal to a
                        fixed psi: (1/sym_dim(d-1, k)) (1 - psi psi^dag)^(x)k P+_(1..k)
- r_operator(split, d): the four-slot combination
                        P+_pair1/d2 + P+_1234/d4 - sum_q P+_(pair1+q)/d3
                        whose product with P+_pair2 gives, up to the factor
                        d(d-1)/2, the average of psi^(x)2 (x) psi_perp^(x)2
- rbar(which, d):       two-slot averages of same/distinct outcome pairs:
                        sum_j E[A_j (x) A_j] / d        = P+/d2
                        sum_(j!=k) E[A_j (x) A_k] / d   = 1/d - P+/d2

So do the paper's optimal test states, as oracles for optimal_test_state.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .comparison import (
    Observable,
    Scenario,
    TestState,
    _optimum,
    analytic_success,
    class_probabilities,
    kappa_state,
    labeled_class_operators,
    optimal_test_state,
    outcome_table,
    pairwise_success_angle,
    unlabeled_operators,
)
from .errors import ConfigError, DimensionMismatchError, InvalidStateError
from .symmetry import (antisymmetrizer, basis_family, pair_product, phi_minus, split_pairs, swap,
                       sym_dim, symmetrizer)
from .tensors import (TOL_ABS, Operator, Vector, basis_ket, identity, kron, kron_arrays, rank,
                      support_projector)


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


# ------------------------------------------------ closed-form Haar moments

def pure_moment(k: int, d: int) -> Operator:
    """E[(psi psi^dag)^(x)k] over Haar psi: symmetrizer over k slots / sym_dim(d,k)."""
    if k < 1 or d < 2:
        raise DimensionMismatchError(f"pure_moment needs k >= 1 and d >= 2, got k={k}, d={d}")
    return symmetrizer(range(1, k + 1), k, d) / sym_dim(d, k)


def perp_moment(psi: Vector, k: int) -> Operator:
    """E[(phi phi^dag)^(x)k] over Haar phi in the complement of psi.

    The complement is (d-1)-dimensional, so the average is the symmetric
    projector of the complement divided by sym_dim(d-1, k), which in the full
    space reads (1/sym_dim(d-1,k)) (1-psi psi^dag)^(x)k P+_(1..k).
    """
    d = psi.d
    if k < 1 or d < 2 or psi.n != 1:
        raise DimensionMismatchError(f"perp moment needs k >= 1 and a single-slot psi with "
                                     f"d >= 2, got k={k}, d={d}, n={psi.n}")
    if not abs(psi.norm() - 1.0) <= TOL_ABS:  # NaN-safe
        raise InvalidStateError(f"psi is not normalized: |psi| = {psi.norm():.12f}")
    coeff = 1.0 / sym_dim(d - 1, k)
    sym = symmetrizer(range(1, k + 1), k, d)
    comp = np.eye(d) - np.outer(psi.vec, psi.vec.conj())
    power = comp
    for _ in range(k - 1):
        power = kron_arrays(power, comp)
    return Operator(coeff * power @ sym.mat, d, k)


def r_operator(split: str, d: int) -> Operator:
    """Four-slot moment combination attached to a pair split.

    For split pair1-pair2,
        R = P+_pair1/d2 + P+_1234/d4 - sum_(q in pair2) P+_(pair1 + q)/d3
    with dk = sym_dim(d, k).  R commutes with P+_pair2 and
    R P+_pair2 = (d(d-1)/2) E[psi^(x)2 on pair1 (x) phi^(x)2 on pair2]
    with psi Haar and phi Haar-orthogonal to psi; its support is
    P+_pair1 (x) P+_pair2.
    """
    pair1, pair2 = split_pairs(split)
    d2, d3, d4 = sym_dim(d, 2), sym_dim(d, 3), sym_dim(d, 4)
    acc = symmetrizer(pair1, 4, d) / d2 + symmetrizer(range(1, 5), 4, d) / d4
    for q in pair2:
        acc = acc - symmetrizer(sorted(pair1 + (q,)), 4, d) / d3
    return acc


def rbar(which: str, d: int) -> Operator:
    """Two-slot outcome-pair averages over a Haar-random basis.

    "same":     (1/d) sum_j E[A_j (x) A_j]      = P+/d2          (trace 1)
    "diff":     (1/d) sum_(j!=k) E[A_j (x) A_k] = 1/d - P+/d2    (trace d-1)

    The distinct-pair multiplicity d-1 stays inside the "diff" operator, so
    completeness reads  d rbar(same) + d rbar(diff) = identity  for every d.
    """
    if which not in ("same", "diff"):
        raise DimensionMismatchError(f'rbar kind must be "same" or "diff", got {which!r}')
    sym = symmetrizer((1, 2), 2, d) / sym_dim(d, 2)
    return sym if which == "same" else identity(d, 2) / d - sym


def antisymmetric_state(d: int) -> TestState:
    """The normalized antisymmetric projector: the labeled optimum, 1/d."""
    return TestState(antisymmetrizer((1, 2), 2, d) / (d * (d - 1) // 2))


def singlet_pairing_state() -> Vector:
    """phi_Q = (|psi-_13 psi-_24> + |psi-_14 psi-_23>) / sqrt(3): the
    unlabeled qubit optimum, 4/9."""
    s = phi_minus(0, 1)
    v = pair_product(s, (1, 3), s, (2, 4)) + pair_product(s, (1, 4), s, (2, 3))
    return (1 / math.sqrt(3)) * v


def run_checks() -> List[CheckResult]:
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
    bat.maxdiff("pure_moment(1,2) = 1/2", pure_moment(1, 2).mat, np.eye(2) / 2, tol)
    bat.maxdiff("pure_moment(2,2) = P+/3",
                pure_moment(2, 2).mat, symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("pure_moment(4,2) = P1234+/5", pure_moment(4, 2).mat, p1234.mat / 5, tol)
    for k in (1, 2, 3, 4):
        bat.close(f"trace pure_moment({k},2) = 1", pure_moment(k, 2).trace().real, 1.0, tol)
    perp22 = perp_moment(basis_ket((0,), 2), 2)
    e11 = np.zeros((4, 4))
    e11[3, 3] = 1.0
    bat.maxdiff("perp moment d=2: psi=|0> -> (|1><1|)^(x)2", perp22.mat, e11, tol)
    perp32 = perp_moment(basis_ket((0,), 3), 2)
    bat.close("perp moment d=3,k=2 has trace 1", perp32.trace().real, 1.0, tol)
    probe = np.zeros(9)
    probe[0] = 1.0  # |0 0> component: must be annihilated (support _|_ psi)
    bat.below("perp moment d=3 annihilates psi-overlapping kets",
              float(np.max(np.abs(perp32.mat @ probe))), tol)

    # ---- R operators
    r12 = r_operator("12-34", 2)
    r13 = r_operator("13-24", 2)
    r14 = r_operator("14-23", 2)
    bat.maxdiff("R13-24 = S23 R12-34 S23", r13.mat, s23.mat @ r12.mat @ s23.mat, tol)
    bat.maxdiff("R14-23 = S34 R13-24 S34", r14.mat, s34.mat @ r13.mat @ s34.mat, tol)
    bat.maxdiff("[R12-34, P34+] = 0", r12.mat @ p34.mat, p34.mat @ r12.mat, tol)
    rp = Operator(r12.mat @ p34.mat, 2, 4)
    bat.below("R12-34 P34+ is PSD", max(0.0, -float(np.min(np.linalg.eigvalsh(rp.mat)))), 1e-12)
    bat.maxdiff("support(R12-34 P34+) = P12+ (x) P34+", support_projector(rp).mat, p12x34.mat, tol_eig)

    # ---- rbar
    rb_s = rbar("same", 2)
    rb_d = rbar("diff", 2)
    bat.maxdiff("rbar(same,2) = P+/3", rb_s.mat, symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("rbar(diff,2) = 1/2 - P+/3",
                rb_d.mat, np.eye(4) / 2 - symmetrizer((1, 2), 2, 2).mat / 3, tol)
    bat.maxdiff("2 rbar(same,2) + 2 rbar(diff,2) = 1", 2 * rb_s.mat + 2 * rb_d.mat, np.eye(4), tol)
    for d in (2, 3, 4):
        comb = d * rbar("same", d).mat + d * rbar("diff", d).mat
        bat.maxdiff(f"d rbar(same) + d rbar(diff) = 1 (d={d})", comb, np.eye(d * d), tol)
        bat.close(f"trace rbar(diff,{d}) = d-1", rbar("diff", d).trace().real, d - 1, tol)

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
        ("same_same", "(2/5) P1234+ + 2 R12-34 P34+", 0.4 * p4 + 2 * r12.mat @ p34.mat),
        ("same_diff", "(P123+ + P124+)/2 - (4/5) P1234+", (p123.mat + p124.mat) / 2 - 0.8 * p4),
        ("diff_same", "(P134+ + P234+)/2 - (4/5) P1234+", (p134.mat + p234.mat) / 2 - 0.8 * p4),
        ("diff_diff", "2 (R13-24 P24+ + R14-23 P23+)", 2 * (r13.mat @ p24 + r14.mat @ p23)),
    ):
        first, second = c.split("_")
        bat.maxdiff(f"O_{c} equal = {label}", ops[c].equal.mat, closed, tol)
        bat.maxdiff(f"O_{c} different = 4 rbar({first}) (x) rbar({second})", ops[c].different.mat,
                    4 * kron(rbar(first, 2), rbar(second, 2)).mat, tol)

    # ---- no-error bases vs the named families
    phi = singlet_pairing_state()
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
              _optimum(scen_u, ("diff_diff",))[0], 1 / 9, tol)
    bat.close("max success over Q_sd states (sd+ds classes) = 4/9",
              _optimum(scen_u, ("same_diff", "diff_same"))[0], 4 / 9, tol)
    bat.maxdiff("optimal_test_state(unlabeled) = |phi_Q><phi_Q|",
                optimal_test_state(scen_u).rho.mat, rho_phi, tol)

    # ---- labeled protocol, all dimensions
    for d in (2, 3, 4, 5):
        st = antisymmetric_state(d)
        lab = labeled_class_operators(d)
        # q_same = tr(rho O_same^eq)/d: O_same^eq sums the d equal outcome pairs
        q_same = np.trace(st.rho.mat @ lab["same"].equal.mat).real / d
        bat.below(f"antisymmetric state: q_same(equal) = 0 (d={d})", abs(q_same), tol)
        rep = analytic_success(Scenario("labeled", d), st)
        bat.close(f"labeled success = 1/d (d={d})", rep.total, 1 / d, tol)
        comp = lab["same"].equal.mat + lab["diff"].equal.mat
        bat.maxdiff(f"labeled equal-hypothesis classes sum to 1 (d={d})",
                    comp, np.eye(d * d), tol)
        eye = np.eye(d * d)
        bat.maxdiff(f"labeled O_same, O_diff = d rbar (equal), 1/d, (d-1)/d (different) (d={d})",
                    [lab["same"].equal.mat, lab["diff"].equal.mat,
                     lab["same"].different.mat, lab["diff"].different.mat],
                    [d * rbar("same", d).mat, d * rbar("diff", d).mat,
                     eye / d, eye * (d - 1) / d], tol)
        bat.maxdiff(f"optimal_test_state(labeled) = antisymmetric state (d={d})",
                    optimal_test_state(Scenario("labeled", d)).rho.mat, st.rho.mat, tol)
    z_obs = Observable.computational(2)
    x_obs = Observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    same, _ = class_probabilities(z_obs, x_obs, antisymmetric_state(2))
    bat.close("fixed pair (Z basis, X basis, singlet): success = 1/2", same, 0.5, tol)

    # ---- fixed-pair angle law
    bat.close("angle law at theta=pi/6: (2/3) sin^2(pi/3) = 1/2",
              pairwise_success_angle(np.pi / 6), 0.5, tol)
    worst = 0.0
    for theta in np.linspace(0.0, np.pi / 2, 33):
        _, sd, ds, _ = class_probabilities(z_obs, Observable.qubit_angle(float(theta)),
                                           state_for_phi)
        worst = max(worst, abs(sd + ds - pairwise_success_angle(float(theta))))
    bat.below("direct Born evaluation matches (2/3) sin^2(2 theta) on 33-point grid",
              worst, 1e-9)
    # arccos |<a_0|b_0>|; relabeling either basis maps theta to pi/2 - theta,
    # which leaves the law sin^2(2 theta) unchanged
    overlap = abs(np.vdot(z_obs.basis[:, 0], x_obs.basis[:, 0]))
    bat.close("pair angle of (Z, X) bases = pi/4", math.acos(min(overlap, 1.0)), np.pi / 4, tol)

    # ---- single-use futility: averaged over the unknown outcome labelings of
    # each device, every outcome pair of one use each is equally likely
    rho2 = TestState.pure(Vector(np.kron([1, 0], [0, 1]), 2, 2))
    tbl = outcome_table(z_obs, Observable.qubit_angle(0.7), rho2)
    perms = list(itertools.permutations(range(2)))
    avg = np.mean([tbl[np.ix_(s, t)] for s in perms for t in perms], axis=0)
    bat.maxdiff("single use of each device: relabel-averaged table = 1/4",
                avg, np.full((2, 2), 0.25), tol)

    return bat.results


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.passed for r in results)


def render_report(results: List[CheckResult]) -> str:
    lines = []
    for r in results:
        if not isinstance(r, CheckResult):
            raise ConfigError(f"render_report needs CheckResults, got {r!r}")
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.name}  (computed {r.computed}, expected {r.expected}, "
                     f"tol {r.tolerance})")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
