"""Shot-level Monte Carlo simulation of the comparison protocols.

Campaigns draw fresh Haar devices per trial, sample one outcome class per
trial from the exact Born probabilities, and issue a verdict: "different"
iff the class is conclusive for the campaign's test state, else
"inconclusive".  A single trial (``run_trial``) samples and returns a full
outcome record of fixed devices under either protocol.

One sampler, closed-form class laws
-----------------------------------
A shot of either protocol is one draw from the Born table of a test state on
n slots (n = 2 labeled, n = 4 unlabeled) whose first n/2 slots device A
measures and whose last n/2 device B measures.  ``_sample_rows`` draws
one category per column of a category-first table by inverse CDF, one
uniform per column scaled to the column's total, and returns how many
columns drew each category: a column draws a category above k iff its
scaled uniform reaches the running sum through k, so the count of each
category is a difference of two counts of uniforms, and neither a
per-trial index nor a renormalized table is built.  A single trial, whose
record carries the outcomes, samples its fixed devices' table
(``comparison.outcome_table``) as one column and reads its entry off the
one nonzero count, and in the unlabeled protocol then relabels each
device's outcomes.  A campaign reports only class counts, so it builds no
table: each stream that draws per trial evaluates its class law in closed
form over a batch (the labeled row and "equal" laws and the unlabeled
Bloch law below), and ``_sample_rows`` counts the classes its trials
draw.  Trials that share one law, a fixed "equal" law or a sweep point's
class law (one row of a stacked Born pass over the sweep's device pairs,
``comparison._pair_laws``), take one multinomial instead
(``_fixed_law_counts``) of their law renormalized (``_clamped``).  Every
sampled law follows one rule: probabilities at or below TOL_ABS are
clamped to zero, and each clamped column must sum to 1 within TOL_RANK
(``_check_totals``), or the campaign stops with a ConsistencyError.  The
inverse CDF counts its trailing plateau as the column's total, which no
scaled uniform reaches, so a category or class of clamped probability 0 is
never drawn.  A conclusive
class has equal-device probability at most TOL_ABS/2 in every trial (the
leak bound of ``conclusive_classes``), so it is clamped to exactly 0:
unambiguity is exact in sampled campaigns, not just up to floating noise.

Mixed test states
-----------------
A mixed test state rho = sum_r w_r |psi_r><psi_r| (``pure_components``:
the eigenvectors of weight above TOL_ABS, with eigh's roundoff in their
structural zeros set to exact zeros) is simulated the way it can be
prepared: each trial prepares component r with probability w_r / sum(w),
so its class law is that of the prepared mixture rho' = sum_r w_r
psi_r psi_r^dag / sum(w), and a campaign samples that law directly, with
no draw of the component.  With one device U used twice, the labeled
"same" class has probability sum_r w_r sum_j |<u_j u_j|psi_r>|^2 / sum(w),
u_j column j of U (``_labeled_equal_law``), about d^3 products per trial
and component; the unlabeled Bloch law is built from rho' itself.
Unambiguity holds per component: the leak of ``conclusive_classes`` weighs
every component of weight above TOL_ABS by at least 1, so each psi_r, and
so rho', has equal-device probability at most TOL_ABS/2 in a conclusive
class, in every trial, however small w_r is.

Labeled "different" trials
--------------------------
With different devices the labeled class law needs no Born table, for any
test state.  A trial prepares one pure component psi.  Device A's outcome
j leaves device B's slot in chi_j, the normalized (<u_j| (x) 1) psi, which
depends on U and j alone, and B's outcome k then has probability
|<v_k|chi_j>|^2 = |x_k|^2 with x = V^dag chi_j.  V is Haar and independent
of U, so x is uniform on the unit sphere of C^d for every psi, U and j,
and the class law given j is the same for every j.  The trial reads only
p = |x_0|^2 and 1 - p.  The moduli |x_k|^2 of a uniform unit vector follow
the flat Dirichlet law, (E_0, ..., E_d-1) / sum(E) for E_k i.i.d. Exp(1):
x = g / |g| for a standard complex Gaussian vector g, and the |g_k|^2 are
i.i.d. exponential.  So p, the first coordinate of a flat Dirichlet, is
Beta(1, d - 1): P(p <= t) = 1 - (1 - t)^(d-1), whose inverse at a uniform
v, taken as 1 - v, gives 1 - p = v^(1/(d-1)), just v at d = 2.  A labeled
"different" trial draws that one uniform and samples its class from
(p, 1 - p) (``_labeled_probs_row``), with A's outcome taken as 0: no unit
vector, no device, no component and no Born table.  This is exact in law,
and the "same" class has probability E|x_0|^2 = 1/d, the paper's
O_same^diff = I/d for every state.

Unlabeled qubit trials
----------------------
A qubit device whose outcome-0 vector has Bloch vector n gives two equal
outcomes with the operator (1 + sum_ij n_i n_j sigma_i (x) sigma_j) / 2,
which is linear in the six terms e_1..e_6 = n_x^2, n_y^2, n_z^2, n_x n_y,
n_x n_z, n_y n_z.  So a trial's four class probabilities are a fixed
quadratic form in the terms of A's axis n and B's axis m, the real 7 x 7
matrix of ``_bloch_form``, built once per campaign, and
``_bloch_class_law`` evaluates it over a batch: no Born table and no
component.  A trial draws each device's axis as far as the state's
symmetry leaves it free (the next section); an "equal" trial reuses A's.
The law of an equal-device trial is a mixture of the components' laws,
each at most TOL_ABS/2 in a conclusive class; the form rounds at about
1e-15, so the clamp sets the class to exactly 0.

Symmetric test states
---------------------
The optimal test states, the antisymmetric projector (labeled) and the
crossed-singlet pairing state (unlabeled), are invariant: they commute
with X^(x)n for every unitary X.  By Schur-Weyl duality these are the
states in the span of the slot permutations, so ``run_campaign`` reads the
property off rho once, as rho equal to its projection onto that span
within TOL_ABS: the projection that ``haar.twirl`` takes
(``haar._is_invariant``).  A four-qubit state is z-invariant if it
commutes with X^(x)4 for every diagonal unitary X, every rotation about
z: it has no entry between kets of different Hamming weight
(``_is_z_invariant``, also within TOL_ABS).  The kappa states, all their
mixtures and the invariant states are z-invariant; a dense random mixture
is not.  For such an X the Born table of (XU, XV) is the table of (U, V),
so the class law of the Bloch axes n of A and m of B satisfies
L(Rn, Rm) = L(n, m) for every rotation R (invariant) or every R about z
(z-invariant).

An unlabeled state's symmetry level ``free`` is 0 if it is invariant, 1 if
it is z-invariant and 2 otherwise.  Each trial is turned by such an R
before it is drawn, which leaves its law exact:
- level 2 turns nothing, and each device is a Haar unitary;
- level 1 turns A's axis about z to azimuth 0.  A uniform n becomes
  (sqrt(1 - z^2), 0, z) with z = n_z uniform on [-1, 1] (Archimedes), one
  uniform per trial (``_meridian_terms``).  B's axis in a "different"
  trial stays uniform and independent of it, a Haar unitary;
- level 0 turns A's axis to z, the meridian's pole z = 1 (no draw), then
  about z until B's axis has azimuth 0.  B is then (sqrt(1 - c^2), 0, c)
  with c = n.m, uniform on [-1, 1] for independent uniform axes: one
  uniform per trial.
So device A draws ``free`` coordinates and B in a "different" trial
min(free + 1, 2) (``_axis_terms``), and every axis with at most one free
coordinate is a point of the meridian.  An "equal" trial reuses A's axis, and
an invariant state's "equal" stream keeps its fixed law (below).  Each
trial's law is still the class law of one device pair, so the clamp keeps
every conclusive class at exactly 0.

Fixed "equal" laws
------------------
An "equal" stream draws nothing when its class law is the same in every
trial (``_equal_law``).  If exactly one class is not conclusive, every
equal-device trial falls into it, because a conclusive class is clamped
to zero (see above) and the sampler never draws a class of probability 0:
a certified labeled state is "diff" in every trial.
Otherwise, for an invariant state, the table of (U, U) is that of (I, I)
(X = U^dag above), so the law is that of the clamped diag(rho).  Such a
stream runs in the calling process, one multinomial per shard over its
classes of nonzero probability, or no draw at all for a point mass.  Its counts are those the per-trial draws give: for a
point mass they are the same numbers, for diag(rho) the same law.

Determinism contract
--------------------
Trials are processed in fixed shards of SHARD_SIZE regardless of worker
count.  Shard s of the ground-truth stream t uses
``np.random.SeedSequence(seed, spawn_key=(t, s))``, and only integer counts
are aggregated, so campaign results (and their serialized form, which has
no timestamps and sorted keys) are byte-identical across runs and across
--workers settings.  Which process runs a shard, the caller or a pool
worker, never changes a count.  Every scenario walks its shard in batches of
_SUBCHUNK trials, and each batch of B trials draws, in order:
- labeled "different": one ``random`` call of B draws, the uniforms v of
  the rows (1 - r, r) with r = 1 - p = v^(1/(d-1)), not renormalized;
- labeled "equal": one ``haar_unitaries`` call for U (one sphere fill
  per level k = 1..d, d (d + 1) B normals in all);
- unlabeled: device A, then in a "different" stream device B, each by
  its number of free coordinates (``_axis_terms``): nothing for none, one
  ``uniform(-1, 1)`` call of B draws for one, and one ``haar_unitaries``
  call (6 B normals at d = 2) for two;
then one ``random`` call of B draws, a uniform per trial for its class,
which ``_sample_rows`` scales to the trial's clamped total and counts
against the running sum.  An "equal" shard of a
fixed law draws one multinomial instead, or nothing.  The batch size,
these draws, the Haar construction, the symmetry level, the component
order, the class laws and their arithmetic, the inverse CDF's arithmetic,
the class order of ``Scenario.classes`` and the resolved test state's
matrix, to the last bit (a multinomial turns roundoff in a fixed law into
other counts), make up CAMPAIGN_FORMAT; a change to any of them can
change the counts and needs a new format version.
Sweep point i draws one multinomial over its four classes on stream (2, i).

Batch layout
------------
The batch of trials is the last, contiguous axis throughout:
``haar_unitaries`` returns views of a (d, d, size) buffer,
``_bloch_terms`` one array per term, and every class law is a class-first
(k, size) table, from ``_labeled_probs_row`` and ``_bloch_class_law``,
each of which fills one preallocated array row by row, and
``_labeled_equal_law``, to ``_sample_rows``, which clamps a copy, sums it
in place and reduces the batch axis to k counts; the law of fixed devices
is a (k, 1) column.  Every step is then a vector operation over many
trials instead of a loop over tiny matrices, and no step calls BLAS, so
the pool workers run one thread each.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .comparison import (
    Observable,
    Scenario,
    TestState,
    _angle_laws,
    _check_angle,
    conclusive_classes,
    kappa_state,
    optimal_test_state,
    outcome_class_index,
    outcome_table,
    pairwise_success_angle,
)
from .errors import ConfigError, ConsistencyError
from .haar import _is_invariant, haar_unitaries, rng_from
from .tensors import TOL_ABS, TOL_RANK, Operator, Vector, _check_int, _check_type

#: trials per deterministic shard (fixed; independent of worker count)
SHARD_SIZE = 1 << 16
#: the "format" field of every campaign JSON
CAMPAIGN_FORMAT = "qmeter.campaign/16"

_STREAM = {"different": 0, "equal": 1, "sweep": 2}
_SUBCHUNK = 8192  # trials per draw, class law and sampling block
_MAX_TRIALS = np.iinfo(np.int64).max  # what the int64 class counts hold
#: sweep points per stacked Born pass: 256 complex entries a point, 1 MB an array
_SWEEP_CHUNK = (1 << 16) // 256
#: seconds a process pool adds to a campaign beyond the split of its shards
#: (loading the pool's modules, forking, shipping tasks and results,
#: closing), measured as t(--workers 2) - t(--workers 1) / 2 on real
#: campaigns in fresh interpreters that had started no pool: 32 to 58 ms for
#: 1,048,576 optimal-state trials on a shared 2-vCPU host, of which loading
#: the modules takes 16 to 23 ms (15 to 39 ms with them already loaded)
_POOL_START_S = 0.060


class Verdict(str, Enum):
    DIFFERENT = "different"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ShotRecord:
    """One simulated trial: raw outcomes, their class, and the verdict."""

    outcomes: Tuple[int, ...]
    outcome_class: str
    verdict: Verdict


@dataclass(frozen=True)
class CampaignConfig:
    scenario: Scenario
    trials: int
    seed: int
    ground_truth: str = "both"  # "different" | "equal" | "both"
    test_state: str = "optimal"  # "optimal" | "kappa[:J]" | path to .npy
    workers: int = 1

    def __post_init__(self):
        _check_type("scenario", self.scenario, Scenario)
        _check_int("trials", self.trials, 1, _MAX_TRIALS)
        _check_int("workers", self.workers, 1)
        _check_int("seed", self.seed, 0)
        _check_type("ground truth", self.ground_truth, str)
        if self.ground_truth not in ("different", "equal", "both"):
            raise ConfigError(f"unknown ground truth {self.ground_truth!r}")
        _check_type("test_state", self.test_state, str)


@dataclass(frozen=True)
class TruthResult:
    """Counts from the sub-campaign run under one ground truth, the value at
    that truth in CampaignResult.results."""

    trials: int
    class_counts: Mapping[str, int]
    different_verdicts: int

    @property
    def inconclusive_verdicts(self) -> int:
        return self.trials - self.different_verdicts

    @property
    def different_rate(self) -> float:
        return self.different_verdicts / self.trials

    @property
    def different_rate_stderr(self) -> float:
        p = self.different_rate
        return float(np.sqrt(p * (1.0 - p) / self.trials))


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    conclusive: Tuple[str, ...]
    results: Mapping[str, TruthResult]

    def to_json_dict(self) -> dict:
        out = {
            "format": CAMPAIGN_FORMAT,
            "version": __version__,
            "scenario": {"kind": self.config.scenario.kind, "dim": self.config.scenario.dim},
            "seed": int(self.config.seed),
            "trials": int(self.config.trials),
            "ground_truth": self.config.ground_truth,
            "test_state": self.config.test_state,
            "shard_size": SHARD_SIZE,
            "conclusive_classes": list(self.conclusive),
            "results": {},
        }
        for truth, res in self.results.items():
            block = {
                "trials": res.trials,
                "class_counts": dict(res.class_counts),
                "different_verdicts": res.different_verdicts,
                "inconclusive_verdicts": res.inconclusive_verdicts,
            }
            if truth == "different":
                block["success_estimate"] = res.different_rate
                block["success_stderr"] = res.different_rate_stderr
            else:
                block["false_positives"] = res.different_verdicts
            out["results"][truth] = block
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------- test states

def resolve_test_state(spec: str, scenario: Scenario) -> TestState:
    """Turn a test-state spec string into a TestState.

    "optimal" selects the scenario's optimal state; "kappa" (or "kappa:J",
    J in 1..3) selects a kappa-family pure state (unlabeled only); any other
    value is read as a .npy file holding either a state vector or a density
    matrix on the protocol's full space (d^2 for labeled, 16 for unlabeled).
    """
    _check_type("scenario", scenario, Scenario)
    _check_type("test state spec", spec, str)
    if spec == "optimal":
        return optimal_test_state(scenario)
    if spec == "kappa" or spec.startswith("kappa:"):
        if scenario.kind != "unlabeled":
            raise ConfigError("kappa test states belong to the unlabeled scenario")
        return kappa_state(1 if spec == "kappa" else _parse_kappa_index(spec))
    return _load_state_file(spec, scenario)


def _parse_kappa_index(spec: str) -> int:
    try:
        return int(spec.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"bad kappa spec {spec!r}; expected kappa:1..3") from exc


def _load_state_file(path: str, scenario: Scenario) -> TestState:
    try:
        arr = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read test state file {path!r}: {exc}") from exc
    if not isinstance(arr, np.ndarray):  # an .npz archive
        arr.close()
        raise ConfigError(f"test state file {path!r} must hold one array, not an archive")
    if not np.issubdtype(arr.dtype, np.number):
        raise ConfigError(f"test state file {path!r} holds {arr.dtype} values, not numbers")
    d, n = scenario.dim, scenario.slots
    dim = d ** n
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ConfigError(
                f"state vector in {path!r} has shape {arr.shape}, expected ({dim},)"
            )
        return TestState.pure(Vector(arr, d, n))
    if arr.ndim == 2:
        if arr.shape != (dim, dim):
            raise ConfigError(
                f"density matrix in {path!r} has shape {arr.shape}, expected ({dim}, {dim})"
            )
        return TestState(Operator(arr, d, n))
    raise ConfigError(f"test state file {path!r} must hold a vector or a matrix")


# ---------------------------------------------------------- single trials

def run_trial(scenario: Scenario, a: Observable, b: Observable, state: TestState,
              rng=None) -> ShotRecord:
    """One trial of the scenario's protocol with fixed devices a and b: one
    outcome record drawn from their Born table (outcome_table) and judged by
    the state's conclusive_classes, which also check its slots.

    In the unlabeled protocol each device's outcomes then pass through an
    unknown, uniformly random relabeling, an XOR with one random bit per
    device; outcome classes compare only outcomes of the same device, so
    they are unaffected.
    """
    gen = rng_from(rng)
    conclusive = conclusive_classes(scenario, state)
    table = outcome_table(a, b, state)
    idx = int(np.flatnonzero(_sample_rows(table.reshape(-1, 1), gen))[0])
    cls = scenario.classes[outcome_class_index(scenario.slots, scenario.dim)[idx]]
    verdict = Verdict.DIFFERENT if cls in conclusive else Verdict.INCONCLUSIVE
    outcomes = tuple(int(x) for x in np.unravel_index(idx, table.shape))
    if scenario.kind == "unlabeled":
        ra, rb = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        j, k, m, n = outcomes
        outcomes = (j ^ ra, k ^ ra, m ^ rb, n ^ rb)
    return ShotRecord(outcomes=outcomes, outcome_class=cls, verdict=verdict)


# ------------------------------------------------------------ batched paths

def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] * b[i], broadcast, accumulated in place: a contraction over
    a leading axis of a few entries, one vector operation per entry."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc += x * y
    return acc


def _labeled_probs_row(r: np.ndarray) -> np.ndarray:
    """Labeled class law given device A's outcome 0, where r over the batch
    is 1 - |x_0|^2, x = V_b^dag chi_b (module docstring), the probability
    that B's outcome differs from A's: (same, diff) = (1 - r, r), a
    class-first (2, size) table.  A campaign draws r, so the row sums to 1
    up to rounding and is not renormalized."""
    law = np.empty((2, len(r)))
    np.subtract(1.0, r, out=law[0])
    law[1] = r
    return law


def _labeled_equal_law(us: np.ndarray, weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Labeled class law of one device U_b used twice, for the prepared
    mixture of the pure components (weights, vecs):
    p(same) = sum_r w_r sum_j |<u_j u_j|psi_r>|^2 / sum(w), u_j column j of
    U_b, and p(diff) = 1 - p(same).  With the batch last each amplitude is
    two contractions of d terms, so a trial costs about d^3 products per
    component.  The result is a class-first (2, size) table."""
    d = us.shape[1]
    cols = us.transpose(2, 1, 0).conj()  # cols[j, m, b] = conj(U_b[m, j])
    same = 0.0
    for w, vec in zip(weights / weights.sum(), vecs):
        psi = vec.reshape(d, d, 1)
        for col in cols:
            # <u_j u_j|psi> = sum_n (sum_m psi[m, n] conj(u_j[m])) conj(u_j[n])
            amp = _contract(_contract(psi, col), col)
            same = same + w * (amp.real ** 2 + amp.imag ** 2)
    return np.stack((same, 1.0 - same))


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: the axis pairs (i, j) of the Bloch terms e_1..e_6 = n_i n_j, in order
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


#: the operators X_0..X_6 on one device's two slots: X_0 = 1 and
#: X_k = sigma_i (x) sigma_j + sigma_j (x) sigma_i for the k-th axis pair
#: (i, j) of _PAIRS, halved when i = j
_PAIR_OPS = np.array([np.eye(4)] + [(np.kron(_PAULI[i], _PAULI[j])
                                     + np.kron(_PAULI[j], _PAULI[i])) / (1 + (i == j))
                                    for i, j in _PAIRS])


def _bloch_form(weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The real 7 x 7 matrix G[a, b] = tr(rho X_a (x) X_b) of the prepared
    mixture rho = sum_r w_r psi_r psi_r^dag / sum(w), X_a of _PAIR_OPS."""
    rho = (vecs.T * (weights / weights.sum())) @ vecs.conj()
    return np.einsum("abcd,xca,ydb->xy", rho.reshape(4, 4, 4, 4), _PAIR_OPS, _PAIR_OPS).real


def _bloch_terms(us: np.ndarray) -> tuple:
    """The Bloch terms e_k(n) = n_i n_j (_PAIRS) of a stack of qubit devices,
    one array over the batch per term, where n is the Bloch vector of
    outcome 0, column 0 of U_b = (a, b) in the (size, 2, 2) stack `us`:
    n = (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2)."""
    a, b = us[:, 0, 0], us[:, 1, 0]
    c = a.conj() * b
    x, y = 2.0 * c.real, 2.0 * c.imag
    z = (a.real * a.real + a.imag * a.imag) - (b.real * b.real + b.imag * b.imag)
    return x * x, y * y, z * z, x * y, x * z, y * z


def _meridian_terms(z) -> tuple:
    """The Bloch terms of the axes n = (sqrt(1 - z^2), 0, z) on the meridian
    of azimuth 0, one array over the batch per term and the number 0 for
    each term with a factor n_y; at the number z = 1, the pole, the terms
    of the z axis, each a number."""
    xx = 1.0 - z * z
    return xx, 0.0, z * z, 0.0, np.sqrt(xx) * z, 0.0


def _axis_terms(free: int, step: int, gen: np.random.Generator) -> tuple:
    """The Bloch terms of `step` device axes with `free` coordinates to draw
    (module docstring): on the meridian of azimuth 0, at its pole z = 1 for
    none and at a uniform height for one, or uniform."""
    if free == 2:
        return _bloch_terms(haar_unitaries(2, step, gen))
    return _meridian_terms(gen.uniform(-1.0, 1.0, step) if free else 1.0)


def _products_sum(coefs, terms):
    """sum_k coefs[k] * terms[k] over the products with no factor that is
    the number zero (a Python or numpy float; an array always counts), in
    order of k: an array over the batch, or a number if no array enters it.
    The kappa states' forms have 30 to 40 zeros in 49 entries, and a fixed
    or meridian axis has zero terms, so most products are skipped."""
    total = None
    for c, t in zip(coefs, terms):
        if isinstance(c, float) and not c or isinstance(t, float) and not t:
            continue
        if total is None:
            total = c * t
        else:
            total += c * t  # in place once total is an array
    return 0.0 if total is None else total


def _bloch_class_law(form: np.ndarray, en, em) -> np.ndarray:
    """Unlabeled class law of device A with Bloch axis n and device B with
    axis m, from the Bloch form G (module docstring): with e_0 = 1,
    p(A same) = sum_a G[a, 0] e_a(n) / 2, p(B same) = sum_b G[0, b] e_b(m) / 2
    and p(same_same) = e(n)^T G e(m) / 4, the other classes by
    inclusion-exclusion.  en and em hold e_1..e_6, each an array over the
    batch or a number (a fixed axis), and at least one of them an array.
    The result is one class-first (4, size) array, filled row by row, also
    for a law that reads no drawn term (I/16)."""
    g = form.tolist()  # plain floats, whose zeros are read without numpy
    en, em = (1.0, *en), (1.0, *em)
    size = next(len(t) for t in (*en, *em) if not isinstance(t, float))
    law = np.empty((4, size))
    # h_b = sum_a G[a, b] e_a(n), the number 0 for a zero column of G
    h = [_products_sum(col, en) for col in zip(*g)]
    both, a_same, b_same, neither = law
    np.multiply(_products_sum(h, em), 0.25, out=both)
    np.multiply(h[0], 0.5, out=a_same)
    np.multiply(_products_sum(g[0], em), 0.5, out=b_same)
    np.subtract(1.0, a_same, out=neither)
    neither -= b_same
    neither += both
    a_same -= both
    b_same -= both
    return law


# The benchmark's tracer (perfbench/tracer.py) books the Born layer under
# these names of the kernels.
_labeled_probs_generic = _labeled_equal_law
_unlabeled_probs = _bloch_class_law
_labeled_probs_antisym = _labeled_probs_row


def _check_totals(totals: np.ndarray) -> None:
    """The rule of every sampled law: each column of the table, with the
    entries at or below TOL_ABS set to zero, sums to 1 within TOL_RANK.  A
    NaN total fails too."""
    worst = np.argmax(np.abs(totals - 1.0))
    if not abs(totals[worst] - 1.0) <= TOL_RANK:
        raise ConsistencyError(f"outcome probabilities sum to at worst {totals[worst]!r}")


def _clamped(p: np.ndarray) -> np.ndarray:
    """The category-first table p with the entries at or below TOL_ABS set
    to zero, each column checked to sum to 1 within TOL_RANK
    (_check_totals) and renormalized: the fixed laws that one multinomial
    samples."""
    q = np.where(p <= TOL_ABS, 0.0, p)
    totals = q.sum(axis=0)
    _check_totals(totals)
    q /= totals
    return q


def _sample_rows(p: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw one category per column of the category-first table p by
    inverse CDF, one uniform per column, and return how many columns drew
    each category, an int64 count per row of p.  The table is clamped and
    checked as in _clamped, but not renormalized: a column's uniform is
    scaled to its total instead."""
    # the running sum category by category: np.cumsum's order, at a tenth
    # of its time over the strided axis
    cum = np.where(p <= TOL_ABS, 0.0, p)
    for k in range(1, len(cum)):
        cum[k] += cum[k - 1]
    total = cum[-1]
    _check_totals(total)
    u = gen.random(p.shape[1])
    u *= total
    # A column draws a category above k iff u >= cum[k], for the running
    # sum never decreases.  The whole trailing plateau (the last nonzero
    # category and the zeros after it) is masked out, so a clamped
    # category, whose cum[k] equals cum[k - 1], is never drawn, however
    # u * total rounds.
    above = [np.count_nonzero((u >= c) & (c < total)) for c in cum[:-1]]
    return -np.diff([p.shape[1], *above, 0])


def _equal_law(scen: Scenario, conclusive: Tuple[str, ...], invariant: bool,
               weights: np.ndarray, vecs: np.ndarray) -> Optional[np.ndarray]:
    """The class law of an equal-device trial where it is the same for every
    device, else None.

    Every Born entry of a conclusive class is clamped to zero in every
    equal-device trial (module docstring), so when one class is left open
    every trial falls into it.  Otherwise an invariant state's equal-device
    table is diag(rho) for every device, summed into classes after the
    clamp.
    """
    open_classes = [i for i, name in enumerate(scen.classes) if name not in conclusive]
    if len(open_classes) == 1:
        return np.eye(len(scen.classes))[open_classes[0]]
    if invariant:
        diag = weights @ (vecs.real ** 2 + vecs.imag ** 2)  # the table of (I, I)
        return np.bincount(outcome_class_index(scen.slots, scen.dim),
                           _clamped(diag[:, None])[:, 0], len(scen.classes))
    return None


def _is_z_invariant(rho: Operator) -> bool:
    """Whether rho commutes with D^(x)n for every diagonal unitary D, for
    qubits every rotation about z.  D^(x)n multiplies a ket by one phase
    per digit, so by a phase that depends only on how often each digit
    occurs in it, and rho commutes with every such product iff it has no
    entry between kets of different digit counts (for qubits, of different
    Hamming weight).  This is an identity check on an input, so it holds
    within TOL_ABS."""
    digits = np.indices((rho.d,) * rho.n).reshape(rho.n, -1)
    counts = ((rho.n + 1) ** digits).sum(axis=0)  # the digit counts in base n + 1
    mixed = rho.mat[counts[:, None] != counts[None, :]]
    return bool(np.all(np.abs(mixed) <= TOL_ABS))  # a NaN fails too


def _shard_rng(seed: int, stream: str, shard: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_STREAM[stream], shard)))


def _fixed_law_counts(law: np.ndarray, seed: int, stream: str, shard: int,
                      count: int) -> np.ndarray:
    """Class counts of `count` trials that share one clamped class law, on
    the seed stream (stream, shard): one multinomial over the classes of
    nonzero probability, so that none of probability 0 can receive its
    remainder, and no draw for a point mass."""
    counts = np.zeros(len(law), dtype=np.int64)
    live = np.flatnonzero(law)
    if len(live) == 1:
        counts[live] = count
    else:
        counts[live] = _shard_rng(seed, stream, shard).multinomial(count, law[live])
    return counts


def _shard_counts(task: tuple) -> np.ndarray:
    """Simulate one shard that draws devices and return its class counts,
    in the order of Scenario.classes.

    `task` = (kind, d, truth, free, form, weights, vecs, seed, shard,
    count): the symmetry level of the test state (module docstring), its
    pure components (weights, vecs) and its Bloch form (_bloch_form), None
    for a labeled campaign.  Deterministic in (seed, truth, shard) alone.
    """
    kind, d, truth, free, form, weights, vecs, seed, shard, count = task
    gen = _shard_rng(seed, truth, shard)
    counts = 0  # the first batch's int64 counts, one per class
    for done in range(0, count, _SUBCHUNK):
        step = min(_SUBCHUNK, count - done)
        if kind == "unlabeled":
            en = _axis_terms(free, step, gen)
            em = en if truth == "equal" else _axis_terms(min(free + 1, 2), step, gen)
            p = _bloch_class_law(form, en, em)
        elif truth == "different":
            # x = V^dag chi_j is uniform on the sphere for every test state,
            # U and j, and so is the class law given j, so A's outcome is
            # taken as j = 0 and not drawn; |x_0|^2 is Beta(1, d - 1), so
            # 1 - |x_0|^2 is a uniform to the power 1 / (d - 1)
            p = _labeled_probs_row(gen.random(step) ** (1.0 / (d - 1)))
        else:
            p = _labeled_equal_law(haar_unitaries(d, step, gen), weights, vecs)
        counts += _sample_rows(p, gen)
    return counts


def __getattr__(name: str):
    """Import ProcessPoolExecutor on first access and bind it in this
    module (PEP 562), so that a process that starts no pool never loads
    multiprocessing.  run_campaign starts its pool through this module
    attribute, so whatever is bound to it, the real class or a stand-in set
    with setattr, is what starts."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pool_pays(first_s: float, rest: int, workers: int) -> bool:
    """Whether `rest` more shards, each taken to cost `first_s` seconds here,
    finish sooner split over `workers` <= `rest` processes: the time the
    split saves must exceed _POOL_START_S."""
    serial_s = first_s * rest
    return serial_s - serial_s / workers > _POOL_START_S


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run the configured campaign and aggregate integer outcome counts.

    Ground truth "different" samples two independent Haar devices per trial;
    "equal" samples one device used twice; "both" runs the two sub-campaigns
    on independent seed streams.  Labeled "different" trials, "equal"
    streams whose class law is fixed and test states that commute with
    every U^(x)n take the shortcuts of the module docstring.  The worker
    count is a cap, also capped at the CPUs this process may use: a pool
    starts only when the first drawn shard, run here, says it pays.  The
    counts depend on neither.  The pool's modules (concurrent.futures'
    process pool, multiprocessing) load when the process starts its first
    pool, not at import.
    """
    _check_type("config", config, CampaignConfig)
    scen = config.scenario
    state = resolve_test_state(config.test_state, scen)
    conclusive = conclusive_classes(scen, state)
    weights, vecs = state.pure_components()
    invariant = _is_invariant(state.rho)
    free = 0 if invariant else 1 if scen.kind == "unlabeled" and _is_z_invariant(state.rho) else 2
    equal_law = _equal_law(scen, conclusive, invariant, weights, vecs)
    form = _bloch_form(weights, vecs) if scen.kind == "unlabeled" else None

    truths = ("different", "equal") if config.ground_truth == "both" else (config.ground_truth,)
    seed, trials = int(config.seed), int(config.trials)
    shards = [(shard, min(SHARD_SIZE, trials - start))
              for shard, start in enumerate(range(0, trials, SHARD_SIZE))]
    # An "equal" stream of a fixed class law draws no device, and its shards
    # take well under a millisecond each, less than shipping one to a
    # worker, so they are summed here.  The shards of every other stream are
    # one list.  With more than one worker allowed, the first of them runs
    # here and is timed, and it prices the rest: a pool starts for them only
    # if splitting them saves more than its start-up (_pool_pays).  A
    # fork-based pool starts all of its workers up front, so it gets no
    # more than there are shards left or CPUs to run them, and none for a
    # single shard left.
    drawn = [truth for truth in truths if truth == "different" or equal_law is None]
    tasks = [(scen.kind, scen.dim, truth, free, form, weights, vecs, seed, shard, count)
             for truth in drawn for shard, count in shards]
    workers = min(config.workers, _usable_cpus(), len(tasks) - 1)
    if workers > 1:
        # numpy loads its random module at the first seeded call, a one-time
        # cost that must not price every shard after the first
        import numpy.random  # noqa: F401
        t0 = time.perf_counter()
        partials = [_shard_counts(tasks[0])]
        if _pool_pays(time.perf_counter() - t0, len(tasks) - 1, workers):
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
                partials += pool.map(_shard_counts, tasks[1:])
        else:
            partials += map(_shard_counts, tasks[1:])
    else:
        partials = list(map(_shard_counts, tasks))

    parts = iter(partials)
    results = {}
    for truth in truths:
        if truth in drawn:
            counts = sum(itertools.islice(parts, len(shards)))
        else:
            counts = sum(_fixed_law_counts(equal_law, seed, truth, *shard) for shard in shards)
        totals = dict(zip(scen.classes, counts.tolist()))
        results[truth] = TruthResult(trials=trials, class_counts=totals,
                                     different_verdicts=sum(totals[c] for c in conclusive))
    return CampaignResult(config=config, conclusive=conclusive, results=results)


# ------------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepPoint:
    theta: float
    trials: int
    empirical: float
    stderr: float
    analytic: float


def sweep_theta(thetas: Sequence[float], trials: int, seed: int) -> Tuple[SweepPoint, ...]:
    """Empirical vs analytic success across fixed qubit device pairs.

    Point i measures the pair (computational, rotated by theta_i) with the
    optimal test state, `trials` times, on seed stream (2, i).  Devices are
    fixed within a point, so its class counts are one multinomial draw from
    the clamped class law of the pair (class_probabilities), bit for bit,
    from one stacked Born pass (comparison._pair_tables) per _SWEEP_CHUNK points.
    """
    _check_int("trials", trials, 1, _MAX_TRIALS)
    _check_int("seed", seed, 0)
    _check_type("thetas", thetas, Iterable)
    thetas = [_check_angle(theta) for theta in thetas]
    scen = Scenario("unlabeled", 2)
    state = optimal_test_state(scen)
    conclusive = [scen.classes.index(name) for name in conclusive_classes(scen, state)]
    laws = (law for start in range(0, len(thetas), _SWEEP_CHUNK)
            for law in _angle_laws(thetas[start:start + _SWEEP_CHUNK], state))
    points = []
    for i, (theta, law) in enumerate(zip(thetas, laws)):
        counts = _fixed_law_counts(_clamped(law[:, None])[:, 0], int(seed), "sweep", i, trials)
        emp = int(counts[conclusive].sum()) / trials
        stderr = float(np.sqrt(emp * (1.0 - emp) / trials))
        points.append(SweepPoint(
            theta=theta, trials=trials, empirical=emp,
            stderr=stderr, analytic=pairwise_success_angle(theta),
        ))
    return tuple(points)


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    """Serialize sweep points as CSV (header + one row per theta)."""
    import csv
    import io

    _check_type("points", points, Iterable)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "trials", "empirical", "stderr", "analytic"])
    for p in points:
        _check_type("sweep point", p, SweepPoint)
        writer.writerow([repr(p.theta), p.trials, repr(p.empirical),
                         repr(p.stderr), repr(p.analytic)])
    return buf.getvalue()
