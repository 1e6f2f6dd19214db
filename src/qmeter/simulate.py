"""Shot-level Monte Carlo simulation of the comparison protocols.

Campaigns draw fresh Haar devices per trial, sample one outcome class per
trial from the exact Born probabilities, and issue a verdict: "different"
iff the class is conclusive for the campaign's test state, else
"inconclusive".  Single trials sample and return a full outcome record.

One kernel, one sampler
-----------------------
A shot of either protocol is one draw from the Born table of a test state on
n slots (n = 2 labeled, n = 4 unlabeled) whose first n/2 slots device A
measures and whose last n/2 device B measures.  ``_born_table`` builds that
table of a pure state for a batch of device pairs at any d, summing over the
state's support only.  ``_sample_rows`` draws one outcome per row of it for
single trials, whose records carry the outcomes; a campaign reports only
class counts, so it sums each row into its (at most four) class
probabilities through ``outcome_class_index`` and ``_sample_rows`` draws the
class directly.  The sweep draws one multinomial per fixed device pair from
the same clamped table.  Probabilities at or below TOL_ABS are clamped to
zero and the row renormalized (``_clamped``) before any summing, and the
inverse CDF pins its trailing plateau to 1, so a category or class of
clamped probability 0 is never drawn.  A conclusive class has
equal-device probability at most TOL_ABS/2 in every trial (the leak bound
of ``conclusive_classes``), so each of its Born entries is clamped and its
class sum is exactly 0: unambiguity is exact in sampled campaigns, not just
up to floating noise.

Mixed test states
-----------------
A mixed test state rho = sum_r w_r |psi_r><psi_r| (``pure_components``:
the eigenvectors of weight above TOL_ABS) is simulated the way it can be
prepared: each trial prepares one pure component, component r with
probability w_r / sum(w).  A batch draws how many of its trials go to each
component with one multinomial, and gives the components contiguous
sub-batches in ``pure_components`` order; each sub-batch takes one pure
Born pass.  This is exact in law: the device pairs of a batch are i.i.d.,
so which trials get which component does not matter, and a trial's class
law is sum_r w_r tr(psi_r psi_r^dag O) = tr(rho O).  A rank-r state then
costs one Born pass per trial instead of r.  Unambiguity holds per
component: the leak of ``conclusive_classes`` weighs every component of
weight above TOL_ABS by at least 1, so each psi_r has equal-device
probability at most TOL_ABS/2 in a conclusive class, in every trial,
however small w_r is.

Invariant test states
---------------------
The optimal test states, the antisymmetric projector (labeled) and the
crossed-singlet pairing state (unlabeled), commute with U^(x)n for every
unitary U; ``run_campaign`` reads this property off rho once
(``_is_invariant``).  For such a state the Born table of the device pair
(U, V) equals the table of (I, W) with W = U^dag V, and W is Haar when U
and V are independent Haar (Mezzadri, arXiv:math-ph/0609050).  So a
"different" trial draws one unitary W instead of two: the unlabeled kernel
then takes device A as the computational basis, and a labeled table is
p[j, k] = alpha + beta |W_jk|^2 (``_labeled_probs_invariant``), because
every invariant two-slot state is alpha 1 + beta SWAP; the antisymmetric
state has alpha = -beta = 1/(d(d-1)).  With equal devices W = I, so every
trial has the same table, diag(rho): an "equal" shard draws no device and
samples no single trial, only one multinomial over the classes of the
clamped diagonal, as the sweep does for its fixed devices.  For the
antisymmetric state that class law is (0, 1), and every trial is class
"diff".

Determinism contract
--------------------
Trials are processed in fixed shards of SHARD_SIZE regardless of worker
count.  Shard s of the ground-truth stream t uses
``np.random.SeedSequence(seed, spawn_key=(t, s))``, and only integer counts
are aggregated, so campaign results (and their serialized form, which has
no timestamps and sorted keys) are byte-identical across runs and across
--workers settings.  Every scenario walks its shard in batches of
_SUBCHUNK trials, and each batch draws, in order: the Haar unitaries (one
per trial for W in the "different" stream of an invariant state; U and then
V in every other "different" stream; U alone for "equal"), then, for a test
state of rank above 1 that takes the Born kernel (every mixed state but the
labeled invariant ones), one multinomial of the batch size over its
components, then one uniform per trial for its class, component by
component.  Each ``haar_unitaries`` call for a batch of B
d x d unitaries draws d (d + 1) B standard normals, a complex Gaussian in
C^k per unitary for k = 1..d.  The "equal" shard of an invariant state
draws one multinomial instead, over its classes of nonzero probability.
The batch size, these draws, the Haar construction, the invariance test,
the component order and the class order of ``outcome_class_index`` make up
CAMPAIGN_FORMAT; a change to any of them changes the counts and needs a new
format version.  Format 5 added the component multinomial: pure and
invariant states count as in format 4, mixed states that take the Born
kernel do not.

Batch layout
------------
The shard path keeps the batch of trials as the last, contiguous axis:
``haar_unitaries`` returns views of a (d, d, size) buffer, ``_born_table``
and ``_labeled_probs_invariant`` build category-first tables, and
``_clamped`` and ``_sample_rows`` work on that layout.  Every step is then
a vector operation over many trials instead of a loop over tiny matrices,
and no step calls BLAS, so the pool workers run one thread each.
"""
from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ._version import __version__
from .comparison import (
    Observable,
    Scenario,
    TestState,
    _outcome_table,
    conclusive_classes,
    kappa_state,
    optimal_test_state,
    outcome_class_index,
    pairwise_success_angle,
    unlabeled_outcome_distribution,
)
from .errors import ConfigError, ConsistencyError
from .haar import haar_unitaries, rng_from
from .tensors import TOL_ABS, TOL_RANK, Operator, Vector

#: trials per deterministic shard (fixed; independent of worker count)
SHARD_SIZE = 1 << 16
#: the "format" field of every campaign JSON
CAMPAIGN_FORMAT = "qmeter.campaign/5"

_STREAM = {"different": 0, "equal": 1, "sweep": 2}
_SUBCHUNK = 8192  # trials per Haar draw, Born table and sampling block


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
        _check_int("trials", self.trials, 1)
        _check_int("workers", self.workers, 1)
        _check_int("seed", self.seed, 0)
        if self.ground_truth not in ("different", "equal", "both"):
            raise ConfigError(f"unknown ground truth {self.ground_truth!r}")
        if not isinstance(self.test_state, str):
            raise ConfigError(f"test_state must be a string, got {self.test_state!r}")


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless value is an integer (not a bool) >= minimum."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class TruthResult:
    """Counts from the sub-campaign run under one ground truth."""

    ground_truth: str
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
    version: str = __version__

    def to_json_dict(self) -> dict:
        out = {
            "format": CAMPAIGN_FORMAT,
            "version": self.version,
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
    if spec == "optimal":
        return optimal_test_state(scenario)
    if spec == "kappa" or spec.startswith("kappa:"):
        if scenario.kind != "unlabeled":
            raise ConfigError("kappa test states belong to the unlabeled scenario")
        j = 1 if spec == "kappa" else _parse_kappa_index(spec)
        if not 1 <= j <= 3:
            raise ConfigError(f"bad kappa spec {spec!r}; expected kappa:1..3")
        return kappa_state(j)
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
        return TestState.pure(Vector(arr, d, n), kind="custom")
    if arr.ndim == 2:
        if arr.shape != (dim, dim):
            raise ConfigError(
                f"density matrix in {path!r} has shape {arr.shape}, expected ({dim}, {dim})"
            )
        return TestState.from_matrix(arr, d, n, kind="custom")
    raise ConfigError(f"test state file {path!r} must hold a vector or a matrix")


# ---------------------------------------------------------- single trials

def _fixed_device_trial(scen: Scenario, a: Observable, b: Observable,
                        state: Union[TestState, Operator, None], gen: np.random.Generator,
                        conclusive: Optional[Tuple[str, ...]]) -> ShotRecord:
    """Draw one outcome record from the Born table of fixed devices a and b."""
    if state is None:
        state = optimal_test_state(scen)
    if conclusive is None:
        conclusive = conclusive_classes(scen, state)
    table = _outcome_table(a, b, state, scen.slots)
    idx = int(_sample_rows(table.reshape(1, -1), gen)[0])
    cls = scen.classes[outcome_class_index(scen.slots, scen.dim)[idx]]
    verdict = Verdict.DIFFERENT if cls in conclusive else Verdict.INCONCLUSIVE
    outcomes = tuple(int(x) for x in np.unravel_index(idx, table.shape))
    return ShotRecord(outcomes=outcomes, outcome_class=cls, verdict=verdict)


def run_labeled_trial(
    a: Observable,
    b: Observable,
    state: Union[TestState, Operator],
    rng=None,
    conclusive: Optional[Tuple[str, ...]] = None,
) -> ShotRecord:
    """One shot of the labeled protocol with fixed devices a and b."""
    return _fixed_device_trial(Scenario("labeled", a.d), a, b, state, rng_from(rng), conclusive)


def run_unlabeled_trial(
    a: Observable,
    b: Observable,
    state: Union[TestState, Operator, None] = None,
    rng=None,
    conclusive: Optional[Tuple[str, ...]] = None,
) -> ShotRecord:
    """One trial of the unlabeled protocol: two shots of each device.

    Each device's outcomes pass through an (unknown) uniformly random
    relabeling before being recorded; outcome classes compare only outcomes
    of the same device, so they are unaffected.
    """
    gen = rng_from(rng)
    rec = _fixed_device_trial(Scenario("unlabeled", a.d), a, b, state, gen, conclusive)
    ra, rb = int(gen.integers(0, 2)), int(gen.integers(0, 2))
    j, k, m, n = rec.outcomes
    return replace(rec, outcomes=(j ^ ra, k ^ ra, m ^ rb, n ^ rb))


# ------------------------------------------------------------ batched paths

def _device_kron(us: np.ndarray, k: int) -> np.ndarray:
    """conj(U_b)^(x)k for a (size, d, d) stack, as a (d^k, d^k, size) array
    with the batch innermost: [M, J, b] = prod_i conj(U_b[m_i, j_i])."""
    # C order, so that the products below reshape without a copy
    u = np.conjugate(us.transpose(1, 2, 0), order="C")
    out = u
    for _ in range(k - 1):
        out = (out[:, None, :, None] * u[None, :, None, :]).reshape(
            out.shape[0] * u.shape[0], out.shape[1] * u.shape[1], -1)
    return out


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] * b[i], broadcast, accumulated in place: a contraction over
    a leading axis of a few entries, one vector operation per entry."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc += x * y
    return acc


def _born_table(us: Optional[np.ndarray], vs: np.ndarray, psi: np.ndarray,
                n: int) -> np.ndarray:
    """Born table p[b, idx] = |<idx| (U_b^(x n/2) (x) V_b^(x n/2))^dag |psi>|^2
    of one pure test state psi over flat n-slot outcome records.

    Each device's n/2 slots become one Kronecker power (_device_kron), and
    psi, reshaped to D x D with D = d^(n/2), contracts with the two halves
    in turn, one outcome J of device A at a time.  Only the support of psi
    enters: the sums run over the rows M and columns N of psi that hold a
    nonzero entry, and with device A in the computational basis over the
    nonzero entries of row J.  The terms left out are exact zeros and the
    sums keep the M-then-N order of the dense contraction, so every entry is
    bitwise the dense one; the paper's test states are sparse (kappa_2 has
    2 nonzero entries of 16, in 2 rows and 2 columns).  The batch is the
    innermost axis throughout, so every step is a vector operation over
    device pairs, with no BLAS call, and every intermediate is at most
    (D, size), which keeps the working set in cache.  The result is the
    (size, d^n) transposed view of a category-first array.

    ``us`` None stands for device A measuring in the computational basis:
    its Kronecker power is the identity, so the first contraction is row J
    of psi itself.
    """
    kb = _device_kron(vs, n // 2)
    ka = None if us is None else kb if us is vs else _device_kron(us, n // 2)
    dim, size = kb.shape[0], kb.shape[2]
    psi = psi.reshape(dim, dim)
    rows, cols = np.flatnonzero(psi.any(axis=1)), np.flatnonzero(psi.any(axis=0))
    sub = psi[np.ix_(rows, cols)][:, :, None]
    p = np.zeros((dim, dim, size))
    for j in range(dim):
        if ka is None:
            live = np.flatnonzero(psi[j])
            halves = psi[j, live, None, None]
        else:
            # half[N, b] = sum_M psi[M, N] ka[M, j, b]
            live = cols
            halves = _contract(sub, [ka[m, j] for m in rows])
        if live.size:
            # amp[K, b] = sum_N half[N, b] kb[N, K, b]
            amp = _contract(halves, [kb[c] for c in live])
            p[j] = amp.real ** 2 + amp.imag ** 2
    return p.reshape(dim * dim, size).T


def _labeled_probs_invariant(ws: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Labeled Born table of the invariant state alpha 1 + beta SWAP on the
    device pair (I, W_b): p[b, j d + k] = alpha + beta |W_b[j, k]|^2, laid
    out like _born_table.  It equals the table of every pair (U, V) with
    U^dag V = W_b."""
    w = ws.transpose(1, 2, 0)
    d = w.shape[0]
    return (alpha + beta * (w.real ** 2 + w.imag ** 2)).reshape(d * d, -1).T


# The benchmark's tracer (perfbench/tracer.py) books the Born layer under
# these names of the two kernels.
_labeled_probs_generic = _unlabeled_probs = _born_table
_labeled_probs_antisym = _labeled_probs_invariant


def _digit(axis: int, j: int) -> tuple:
    """Index of the entries whose tensor axis `axis` holds digit j."""
    return (slice(None),) * axis + (j,)


def _is_invariant(rho: Operator) -> bool:
    """Whether rho commutes with U^(x)n for every unitary U.

    The U^(x)n are generated by dpi(E_ab) = sum over slots of
    1 (x) ... (x) E_ab (x) ... (x) 1 for the d^2 matrix units E_ab, so rho
    is invariant iff it commutes with each of them.  On the n row and n
    column digits of rho, E_ab on the left of a slot moves row digit b to
    a, and on the right it moves column digit a to b.  This is an identity
    check on an input, so it holds to within TOL_ABS.
    """
    d, n = rho.d, rho.n
    r = rho.mat.reshape((d,) * (2 * n))
    for a, b in itertools.product(range(d), repeat=2):
        comm = np.zeros_like(r)
        for i in range(n):
            comm[_digit(i, a)] += r[_digit(i, b)]
            comm[_digit(n + i, b)] -= r[_digit(n + i, a)]
        if not np.max(np.abs(comm)) <= TOL_ABS:  # a NaN fails too
            return False
    return True


def _clamped(p: np.ndarray) -> np.ndarray:
    """Rows of p, each checked to sum to 1 within TOL_RANK, with the entries
    at or below TOL_ABS set to zero and renormalized.  The work is done on
    the category-first transpose, where each step runs over all rows."""
    q = p.T
    totals = q.sum(axis=0)
    worst = np.argmax(np.abs(totals - 1.0))
    if not abs(totals[worst] - 1.0) <= TOL_RANK:  # a NaN total fails too
        raise ConsistencyError(f"outcome probabilities sum to at worst {totals[worst]!r}")
    q = np.where(q <= TOL_ABS, 0.0, q)
    q /= q.sum(axis=0)
    return q.T


def _sample_rows(p: np.ndarray, gen: np.random.Generator,
                 classes: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw one category per row of p by inverse CDF, one uniform per row.

    Given ``classes``, the class index of each category, the clamped rows
    are summed into class probabilities and a class is drawn instead."""
    q = _clamped(p).T
    if classes is not None:
        q = np.stack([q[classes == c].sum(axis=0) for c in range(classes.max() + 1)])
    cum = np.cumsum(q, axis=0)
    # The rows sum to 1 only up to rounding.  Pinning the whole trailing
    # plateau (the last nonzero category and the zeros after it) to 1 sends
    # a draw in the rounding gap to that last nonzero category.
    cum[cum >= cum[-1]] = 1.0
    u = gen.random(p.shape[0])
    return (u >= cum).sum(axis=0)


def _shard_counts(task: tuple) -> Dict[str, int]:
    """Simulate one shard and return its outcome-class counts.

    `task` = (kind, d, truth, invariant, weights, vecs, seed, shard, count),
    where (weights, vecs) are the test state's pure components and
    `invariant` says that it commutes with every U^(x)n (see the module
    docstring).  Deterministic in (seed, truth, shard) alone.
    """
    kind, d, truth, invariant, weights, vecs, seed, shard, count = task
    seq = np.random.SeedSequence(seed, spawn_key=(_STREAM[truth], shard))
    gen = np.random.default_rng(seq)
    scen = Scenario(kind, d)
    cls_of = outcome_class_index(scen.slots, d)
    counts = np.zeros(len(scen.classes), dtype=np.int64)
    if invariant:
        diag = weights @ (vecs.real ** 2 + vecs.imag ** 2)  # the table of (I, I)
        if truth == "equal":
            # Only classes of nonzero probability enter the multinomial, so
            # none of probability 0 can receive its remainder; rounding can
            # put a lone class an ulp above 1.
            law = np.bincount(cls_of, _clamped(diag[None])[0], len(counts))
            live = np.flatnonzero(law)
            counts[live] = gen.multinomial(count, np.minimum(law[live], 1.0))
            return dict(zip(scen.classes, counts.tolist()))
    for done in range(0, count, _SUBCHUNK):
        step = min(_SUBCHUNK, count - done)
        if invariant and kind == "labeled":
            # alpha = <01|rho|01> and alpha + beta = <00|rho|00>
            p = _labeled_probs_invariant(haar_unitaries(d, step, gen),
                                         diag[1], diag[0] - diag[1])
            counts += np.bincount(_sample_rows(p, gen, cls_of), minlength=len(counts))
            continue
        if invariant:
            us, vs = None, haar_unitaries(d, step, gen)
        else:
            us = haar_unitaries(d, step, gen)
            vs = haar_unitaries(d, step, gen) if truth == "different" else us
        # each trial prepares one pure component (module docstring)
        parts = gen.multinomial(step, weights / weights.sum()) if len(vecs) > 1 else (step,)
        lo = 0
        for vec, k in zip(vecs, parts):
            if k:
                a = None if us is None else us[lo:lo + k]
                b = a if vs is us else vs[lo:lo + k]
                p = _born_table(a, b, vec, scen.slots)
                counts += np.bincount(_sample_rows(p, gen, cls_of), minlength=len(counts))
                lo += k
                # the views would keep this batch's unitaries alive through
                # the next batch's Haar draws, which then take fresh pages
                del a, b
    return dict(zip(scen.classes, counts.tolist()))


def _shards_for(trials: int) -> Sequence[Tuple[int, int]]:
    out = []
    start = 0
    shard = 0
    while start < trials:
        out.append((shard, min(SHARD_SIZE, trials - start)))
        shard += 1
        start += SHARD_SIZE
    return out


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run the configured campaign and aggregate integer outcome counts.

    Ground truth "different" samples two independent Haar devices per trial;
    "equal" samples one device used twice; "both" runs the two sub-campaigns
    on independent seed streams.  A test state that commutes with every
    U^(x)n takes the shortcuts of the module docstring.
    """
    scen = config.scenario
    state = resolve_test_state(config.test_state, scen)
    conclusive = conclusive_classes(scen, state)
    weights, vecs = state.pure_components()
    invariant = _is_invariant(state.rho)

    truths = ("different", "equal") if config.ground_truth == "both" else (config.ground_truth,)
    shards = _shards_for(config.trials)
    tasks = [
        (scen.kind, scen.dim, truth, invariant, weights, vecs, int(config.seed), shard, count)
        for truth in truths for shard, count in shards
    ]
    # An "equal" shard of an invariant state draws no device and takes well
    # under a millisecond, less than shipping it to a worker, so it runs
    # here.  One pool takes every other shard of every truth; a fork-based
    # pool starts all of its workers up front, so it gets no more than there
    # are such shards, and none for a single one.
    inline = [invariant and truth == "equal" for truth in truths for _ in shards]
    workers = min(config.workers, inline.count(False))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = pool.map(_shard_counts, [t for t, here in zip(tasks, inline) if not here])
            partials = [_shard_counts(t) if here else next(done) for t, here in zip(tasks, inline)]
    else:
        partials = [_shard_counts(t) for t in tasks]

    results = {}
    for i, truth in enumerate(truths):
        totals = {name: 0 for name in scen.classes}
        for part in partials[i * len(shards):(i + 1) * len(shards)]:
            for name, c in part.items():
                totals[name] += c
        different = sum(totals[name] for name in conclusive)
        results[truth] = TruthResult(
            ground_truth=truth,
            trials=int(config.trials),
            class_counts=totals,
            different_verdicts=different,
        )
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
    fixed within a point, so the outcome counts follow one multinomial draw
    from the exact Born table, which is sampled directly.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    scen = Scenario("unlabeled", 2)
    state = optimal_test_state(scen)
    conclusive = conclusive_classes(scen, state)
    conc = np.isin(np.array(scen.classes)[outcome_class_index(scen.slots, scen.dim)], conclusive)
    a = Observable.computational(2)
    points = []
    for i, theta in enumerate(thetas):
        b = Observable.qubit_angle(float(theta))
        flat = _clamped(unlabeled_outcome_distribution(a, b, state).reshape(1, -1))[0]
        gen = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(_STREAM["sweep"], i)))
        counts = gen.multinomial(trials, flat)
        hits = int(counts[conc].sum())
        emp = hits / trials
        stderr = float(np.sqrt(emp * (1.0 - emp) / trials))
        points.append(SweepPoint(
            theta=float(theta), trials=trials, empirical=emp,
            stderr=stderr, analytic=pairwise_success_angle(float(theta)),
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
        writer.writerow([repr(p.theta), p.trials, repr(p.empirical),
                         repr(p.stderr), repr(p.analytic)])
    return buf.getvalue()
