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
measures and whose last n/2 device B measures.  A single trial, whose
record carries the outcomes, draws one entry of its fixed devices' table
(``comparison.outcome_table``) with ``_sample_rows``, and in the unlabeled
protocol then relabels each device's outcomes.  A campaign reports
only class counts, so it builds no table: each stream that draws per
trial evaluates its class law in closed form over a batch (the labeled
row and "equal" laws and the unlabeled Bloch law below), and
``_sample_rows`` draws one class per trial from it.  Trials that share
one law, a fixed "equal" law or a sweep point's ``class_probabilities``,
take one multinomial instead (``_fixed_law_counts``).  Probabilities at
or below TOL_ABS are clamped to zero and the law renormalized
(``_clamped``), and the inverse CDF pins its trailing plateau to 1, so a
category or class of clamped probability 0 is never drawn.  A conclusive
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
(|x_0|^2, sum_k>=1 |x_k|^2), and the moduli |x_k|^2 of a uniform unit
vector follow the flat Dirichlet law, (E_0, ..., E_d-1) / sum(E) for E_k
i.i.d. Exp(1): x = g / |g| for a standard complex Gaussian vector g, and
the |g_k|^2 are i.i.d. exponential.  So a labeled "different" trial draws
d exponentials and samples its class from (E_0, sum_k>=1 E_k) / sum(E)
(``_labeled_probs_row``), with A's outcome taken as 0: no unit vector, no
device, no component and no Born table.  This is exact in law, and the
"same" class has probability E|x_0|^2 = 1/d, the paper's O_same^diff = I/d
for every state.

Unlabeled qubit trials
----------------------
A qubit device whose outcome-0 vector has Bloch vector n gives two equal
outcomes with the operator (1 + sum_ij n_i n_j sigma_i (x) sigma_j) / 2,
which is linear in the six terms e_1..e_6 = n_x^2, n_y^2, n_z^2, n_x n_y,
n_x n_z, n_y n_z.  So a trial's four class probabilities are a fixed
quadratic form in the terms of A's axis n and B's axis m, the real 7 x 7
matrix of ``_bloch_form``, built once per campaign, and
``_bloch_class_law`` evaluates it over a batch: no Born table and no
component.  A trial draws each device as a Haar unitary
(``haar_unitaries``), as every stream with a device does, and reads its
axis off column 0 (``_bloch_terms``); an "equal" trial reuses A's.  The
law of an equal-device trial is a mixture of the components' laws, each at
most TOL_ABS/2 in a conclusive class; the form rounds at about 1e-15, so
the clamp sets the class to exactly 0.

Invariant test states
---------------------
The optimal test states, the antisymmetric projector (labeled) and the
crossed-singlet pairing state (unlabeled), commute with U^(x)n for every
unitary U.  By Schur-Weyl duality these are the states in the span of the
slot permutations, so ``run_campaign`` reads the property off rho once, as
rho equal to its projection onto that span within TOL_ABS: the projection
that ``haar.twirl`` takes (``haar._is_invariant``).  For such a state the
Born table of the device pair (U, V) equals the table of (I, W) with
W = U^dag V, and W is Haar when U and V are independent Haar (Mezzadri,
arXiv:math-ph/0609050).  So in an unlabeled "different" trial device A
measures along z and only B = W is drawn.  With equal devices W = I, so
every trial has the same table, diag(rho).

Fixed "equal" laws
------------------
An "equal" stream draws nothing when its class law is the same in every
trial (``_equal_law``).  If exactly one class is not conclusive, every
equal-device trial falls into it, because a conclusive class is clamped
to zero (see above) and the sampler never draws a class of probability 0:
a certified labeled state is "diff" in every trial.
Otherwise, for an invariant state, the law is that of the clamped
diag(rho).  Such a stream runs in the calling process, one multinomial
per shard over its classes of nonzero probability, or no draw at all for
a point mass.  Its counts are those the per-trial draws give: for a
point mass they are the same numbers, for diag(rho) the same law.

Determinism contract
--------------------
Trials are processed in fixed shards of SHARD_SIZE regardless of worker
count.  Shard s of the ground-truth stream t uses
``np.random.SeedSequence(seed, spawn_key=(t, s))``, and only integer counts
are aggregated, so campaign results (and their serialized form, which has
no timestamps and sorted keys) are byte-identical across runs and across
--workers settings.  Every scenario walks its shard in batches of
_SUBCHUNK trials, and each batch of B trials draws, in order:
- labeled "different": one ``standard_exponential`` call of d B draws,
  a (d, B) array filled row by row;
- labeled "equal": one ``haar_unitaries`` call for U (one sphere fill
  per level k = 1..d, d (d + 1) B normals in all);
- unlabeled: one ``haar_unitaries`` call for A (6 B normals at d = 2)
  unless A is along z (an invariant state's "different" stream), then one
  for B in a "different" stream;
then one uniform per trial for its class.  An "equal" shard of a fixed law
draws one multinomial instead, or nothing.  The batch size, these draws,
the Haar construction, the invariance test, the component order, the class
laws, the class order of ``Scenario.classes`` and the resolved test
state's matrix, to the last bit (a multinomial turns roundoff in a fixed
law into other counts), make up CAMPAIGN_FORMAT; a change to any of them
changes the counts and needs a new format version.
Sweep point i draws one multinomial over its four classes on stream (2, i).

Batch layout
------------
The batch of trials is the last, contiguous axis throughout: the labeled
"different" exponentials are a (d, size) array, ``haar_unitaries``
returns views of a (d, d, size) buffer, ``_bloch_terms`` one array per
term, and every class law is a class-first (k, size) table, from
``_labeled_probs_row``, ``_labeled_equal_law`` and ``_bloch_class_law``
through ``_clamped`` and ``_sample_rows``; the law of fixed devices is a
(k, 1) column.  Every step is then a vector operation over many trials
instead of a loop over tiny matrices, and no step calls BLAS, so the pool
workers run one thread each.
"""
from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__
from .comparison import (
    Observable,
    Scenario,
    TestState,
    _check_angle,
    _check_scenario,
    class_probabilities,
    conclusive_classes,
    kappa_state,
    optimal_test_state,
    outcome_class_index,
    outcome_table,
    pairwise_success_angle,
)
from .errors import ConfigError, ConsistencyError
from .haar import _is_invariant, haar_unitaries, rng_from
from .tensors import TOL_ABS, TOL_RANK, Operator, Vector, _check_int

#: trials per deterministic shard (fixed; independent of worker count)
SHARD_SIZE = 1 << 16
#: the "format" field of every campaign JSON
CAMPAIGN_FORMAT = "qmeter.campaign/12"

_STREAM = {"different": 0, "equal": 1, "sweep": 2}
_SUBCHUNK = 8192  # trials per draw, class law and sampling block


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
        _check_scenario(self.scenario)
        _check_trials(self.trials)
        _check_int("workers", self.workers, 1)
        _check_int("seed", self.seed, 0)
        if self.ground_truth not in ("different", "equal", "both"):
            raise ConfigError(f"unknown ground truth {self.ground_truth!r}")
        if not isinstance(self.test_state, str):
            raise ConfigError(f"test_state must be a string, got {self.test_state!r}")


def _check_trials(trials) -> None:
    """Trials are a positive integer that the int64 class counts hold."""
    _check_int("trials", trials, 1)
    if trials > np.iinfo(np.int64).max:
        raise ConfigError(f"trials must be <= 2**63 - 1, got {trials}")


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
    _check_scenario(scenario)
    if not isinstance(spec, str):
        raise ConfigError(f"test state spec must be a string, got {spec!r}")
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
    idx = int(_sample_rows(table.reshape(-1, 1), gen)[0])
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


def _labeled_probs_row(q: np.ndarray) -> np.ndarray:
    """Labeled class law given device A's outcome 0, where column b of the
    batch-last (d, size) array q holds nonnegative weights proportional to
    B's outcome law |x_k|^2, x = V_b^dag chi_b (module docstring): the
    moduli themselves, or d exponentials.  So (same, diff) =
    (q_0, sum_k>=1 q_k) / sum_k q_k, a class-first (2, size) table."""
    rest = q[1:].sum(axis=0)
    total = q[0] + rest
    return np.stack((q[0] / total, rest / total))


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
#: the Bloch terms of the z axis
_Z_TERMS = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def _bloch_form(weights: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The real 7 x 7 matrix G[a, b] = tr(rho X_a (x) X_b) of the prepared
    mixture rho = sum_r w_r psi_r psi_r^dag / sum(w), where on one device's
    two slots X_0 = 1 and X_k = sigma_i (x) sigma_j + sigma_j (x) sigma_i
    for the k-th axis pair (i, j) of _PAIRS, halved when i = j."""
    rho = (vecs.T * (weights / weights.sum())) @ vecs.conj()
    xs = [np.eye(4)] + [(np.kron(_PAULI[i], _PAULI[j]) + np.kron(_PAULI[j], _PAULI[i]))
                        / (1 + (i == j)) for i, j in _PAIRS]
    return np.einsum("abcd,xca,ydb->xy", rho.reshape(4, 4, 4, 4), xs, xs).real


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


def _weigh(coefs, terms):
    """sum_k coefs[k] * terms[k], leaving out every coefficient that is the
    number zero; an array coefficient is always kept.  The kappa states'
    forms have 30 to 40 zeros in 49 entries, and at kappa:2 the skip takes
    the class law of a batch from about 0.7 ms to 0.25 ms."""
    total = 0.0
    for c, t in zip(coefs, terms):
        if np.ndim(c) or c:
            total += c * t  # in place once total is an array
    return total


def _bloch_class_law(form: np.ndarray, en, em) -> np.ndarray:
    """Unlabeled class law of device A with Bloch axis n and device B with
    axis m, from the Bloch form G (module docstring): with e_0 = 1,
    p(A same) = sum_a G[a, 0] e_a(n) / 2, p(B same) = sum_b G[0, b] e_b(m) / 2
    and p(same_same) = e(n)^T G e(m) / 4, the other classes by
    inclusion-exclusion.  en and em hold e_1..e_6, each an array over the
    batch or a number (a fixed axis).  The result is a class-first
    (4, size) table, or the 4 classes alone for two fixed axes."""
    en, em = (1.0, *en), (1.0, *em)
    # h_b = sum_a G[a, b] e_a(n), the number 0 for a zero column of G
    h = [_weigh(col, en) for col in form.T]
    both = 0.25 * _weigh(h, em)
    a_same = 0.5 * h[0]
    b_same = 0.5 * _weigh(form[0], em)
    return np.stack(np.broadcast_arrays(
        both, a_same - both, b_same - both, 1.0 - a_same - b_same + both))


# The benchmark's tracer (perfbench/tracer.py) books the Born layer under
# these names of the kernels.
_labeled_probs_generic = _labeled_equal_law
_unlabeled_probs = _bloch_class_law
_labeled_probs_antisym = _labeled_probs_row


def _clamped(p: np.ndarray) -> np.ndarray:
    """The category-first table p, each column (one trial's law) checked to
    sum to 1 within TOL_RANK, with the entries at or below TOL_ABS set to
    zero and renormalized.  Each step runs over all columns at once."""
    totals = p.sum(axis=0)
    worst = np.argmax(np.abs(totals - 1.0))
    if not abs(totals[worst] - 1.0) <= TOL_RANK:  # a NaN total fails too
        raise ConsistencyError(f"outcome probabilities sum to at worst {totals[worst]!r}")
    q = np.where(p <= TOL_ABS, 0.0, p)
    q /= q.sum(axis=0)
    return q


def _sample_rows(p: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw one category per column of the category-first table p by
    inverse CDF, one uniform per column."""
    # the running sum category by category: np.cumsum's order, at a tenth
    # of its time over the strided axis
    cum = _clamped(p)
    for k in range(1, len(cum)):
        cum[k] += cum[k - 1]
    # The columns sum to 1 only up to rounding.  Pinning the whole trailing
    # plateau (the last nonzero category and the zeros after it) to 1 sends
    # a draw in the rounding gap to that last nonzero category.
    cum[cum >= cum[-1]] = 1.0
    u = gen.random(p.shape[1])
    return (u >= cum).sum(axis=0)


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

    `task` = (kind, d, truth, invariant, form, weights, vecs, seed, shard,
    count): (weights, vecs) are the test state's pure components and `form`
    its Bloch form (_bloch_form), None for a labeled campaign.
    Deterministic in (seed, truth, shard) alone.
    """
    kind, d, truth, invariant, form, weights, vecs, seed, shard, count = task
    gen = _shard_rng(seed, truth, shard)
    scen = Scenario(kind, d)
    counts = np.zeros(len(scen.classes), dtype=np.int64)
    for done in range(0, count, _SUBCHUNK):
        step = min(_SUBCHUNK, count - done)
        if kind == "unlabeled":
            # the table of (U, V) is that of (I, U^dag V) for an invariant
            # state, so device A measures along z and only B is drawn
            if invariant and truth == "different":
                en = _Z_TERMS
            else:
                en = _bloch_terms(haar_unitaries(2, step, gen))
            em = en if truth == "equal" else _bloch_terms(haar_unitaries(2, step, gen))
            p = _bloch_class_law(form, en, em)
        elif truth == "different":
            # x = V^dag chi_j is uniform on the sphere for every test state,
            # U and j, and so is the class law given j, so A's outcome is
            # taken as j = 0 and not drawn; the moduli |x_k|^2 are flat
            # Dirichlet, d exponentials over their sum
            p = _labeled_probs_row(gen.standard_exponential((d, step)))
        else:
            p = _labeled_equal_law(haar_unitaries(d, step, gen), weights, vecs)
        counts += np.bincount(_sample_rows(p, gen), minlength=len(counts))
    return counts


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
    every U^(x)n take the shortcuts of the module docstring.  The counts do
    not depend on the worker count, which is capped at the CPUs this
    process may use.
    """
    scen = config.scenario
    state = resolve_test_state(config.test_state, scen)
    conclusive = conclusive_classes(scen, state)
    weights, vecs = state.pure_components()
    invariant = _is_invariant(state.rho)
    equal_law = _equal_law(scen, conclusive, invariant, weights, vecs)
    form = _bloch_form(weights, vecs) if scen.kind == "unlabeled" else None

    truths = ("different", "equal") if config.ground_truth == "both" else (config.ground_truth,)
    seed, trials = int(config.seed), int(config.trials)
    shards = [(shard, min(SHARD_SIZE, trials - start))
              for shard, start in enumerate(range(0, trials, SHARD_SIZE))]
    # An "equal" stream of a fixed class law draws no device, and its shards
    # take well under a millisecond each, less than shipping one to a
    # worker, so they are summed here.  The shards of every other stream are
    # one map; a fork-based pool starts all of its workers up front, so it
    # gets no more than there are such shards or CPUs to run them, and none
    # for a single one.
    drawn = [truth for truth in truths if truth == "different" or equal_law is None]
    tasks = [(scen.kind, scen.dim, truth, invariant, form, weights, vecs, seed, shard, count)
             for truth in drawn for shard, count in shards]
    workers = min(config.workers, _usable_cpus(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_shard_counts, tasks))
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
    the clamped class law of the pair (class_probabilities).
    """
    _check_trials(trials)
    _check_int("seed", seed, 0)
    thetas = [_check_angle(theta) for theta in thetas]
    scen = Scenario("unlabeled", 2)
    state = optimal_test_state(scen)
    conclusive = [scen.classes.index(name) for name in conclusive_classes(scen, state)]
    a = Observable.computational(2)
    points = []
    for i, theta in enumerate(thetas):
        law = class_probabilities(a, Observable.qubit_angle(theta), state)
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

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta", "trials", "empirical", "stderr", "analytic"])
    for p in points:
        if not isinstance(p, SweepPoint):
            raise ConfigError(f"sweep_to_csv needs SweepPoints, got {p!r}")
        writer.writerow([repr(p.theta), p.trials, repr(p.empirical),
                         repr(p.stderr), repr(p.analytic)])
    return buf.getvalue()
