"""Algorithm 1: binary search for the switch timing.

Paper Appendix B.  Given a trial runner that trains with a candidate
switch point and reports converged accuracy, the search halves the
interval ``[lower, upper]`` (initially ``[0, 100]`` percent): a
candidate whose mean accuracy lies within ``[A - beta, A + beta]`` of
the target ``A`` becomes the new upper bound (it is "good enough", so
try switching even earlier); otherwise it becomes the lower bound.
After ``M`` explored settings the current upper bound is the policy.

Two fidelity notes:

* If no target accuracy is supplied, the model is first trained with
  static BSP ``R`` times and ``A`` is the mean converged accuracy
  (Algorithm 1 lines 2-5); those sessions count toward search cost.
* The paper's pseudo-code never resets the accumulator ``alpha'``
  between settings (lines 6-15); that is a transcription slip — the
  mean test on line 16 only makes sense per setting — so this
  implementation resets it for every candidate.

The algorithm is written once, as the coroutine :func:`search_steps`:
it yields the next :class:`TrialBatch` to train and is sent that
batch's ``(accuracy, time)`` outcomes, so whoever trains the sessions
decides *how* — :class:`ScheduleSearch` calls a runner in a closed
loop, the fleet (:class:`repro.fleet.tuning.InFleetSearch`) admits
each trial as a job and sends the batch when its last job completes.

It searches an N-segment protocol schedule: for each candidate
protocol sequence it runs coordinate descent over the cumulative
segment boundaries ``b_1 <= ... <= b_{N-1}``, searching one boundary
at a time with the interval halving above (later boundaries pinned at
1.0, i.e. the still-unsearched segments get zero budget), then picks
the sequence whose found schedule trains fastest.  The paper's
two-phase search is the single sequence :data:`TWO_PHASE`: one
boundary, the switch fraction (:class:`OfflineTimingSearch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generator, NamedTuple, Sequence

from repro.distsim.engines import known_protocols, precision_rank
from repro.errors import SearchError

__all__ = [
    "TWO_PHASE",
    "SearchConfig",
    "TrialBatch",
    "TrialOutcome",
    "SearchResult",
    "OfflineTimingSearch",
    "ScheduleCandidate",
    "ScheduleSearch",
    "boundary_fractions",
    "pick_best_schedule",
    "search_steps",
    "validate_sequences",
]

#: A trial runner trains one session at ``switch_fraction`` (0 = ASP,
#: 1 = BSP) with the given repetition index and returns
#: ``(converged_accuracy, total_time)``; diverged runs report accuracy
#: 0.0 and the time until divergence.
TrialRunner = Callable[[float, int], tuple[float, float]]

#: A schedule trial runner trains one session under the named
#: ``protocols`` sequence with per-segment budget ``fractions`` (aligned
#: with the sequence) and the given repetition index, returning
#: ``(converged_accuracy, total_time)``; diverged runs report
#: accuracy 0.0.
ScheduleTrialRunner = Callable[
    [tuple[str, ...], tuple[float, ...], int], tuple[float, float]
]

#: The paper's search space: one BSP -> ASP sequence, one boundary.
TWO_PHASE = (("bsp", "asp"),)


@dataclass(frozen=True)
class SearchConfig:
    """Inputs of Algorithm 1 (Appendix B).

    ``(bsp_runs, runs_per_setting)`` corresponds to the paper's
    ``(bn, r)`` search-setting notation; a supplied
    ``target_accuracy`` models the *recurring* job case that skips
    the BSP target runs entirely (Table II's ``Yes`` rows).
    """

    beta: float = 0.01
    max_settings: int = 5
    runs_per_setting: int = 5
    target_accuracy: float | None = None
    bsp_runs: int = 5

    def __post_init__(self):
        # A NaN band or target fails every comparison: no setting
        # would ever be accepted, and the search would end all-BSP.
        for name in ("beta", "target_accuracy"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SearchError(f"{name} must be finite, got {value}")
        if self.beta < 0:
            raise SearchError("beta must be non-negative")
        if self.max_settings < 1:
            raise SearchError("max_settings must be >= 1")
        if self.runs_per_setting < 1:
            raise SearchError("runs_per_setting must be >= 1")
        if self.target_accuracy is None and self.bsp_runs < 1:
            raise SearchError(
                "need either a target accuracy or at least one BSP run"
            )


class TrialBatch(NamedTuple):
    """What :func:`search_steps` asks for next: ``count`` sessions of
    the ``protocols`` sequence at per-segment budget ``fractions``."""

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    count: int


class TrialOutcome(NamedTuple):
    """One training session executed during the search.

    Every session — target runs and candidate runs alike — counts
    toward the search cost of the paper's Tables II/IV-VI; ``valid``
    marks it as *effective training* (a model within the accuracy
    band, Section VI-C).  ``protocols`` names the sequence trained:
    two sequences of equal length can explore the same ``fractions``
    vector.
    """

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    run_index: int
    accuracy: float
    time: float
    valid: bool

    @property
    def switch_fraction(self) -> float:
        """First segment's budget share (the two-phase switch point)."""
        return self.fractions[0]


@dataclass(frozen=True)
class ScheduleCandidate:
    """The best schedule found for one candidate protocol sequence."""

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    expected_time: float


@dataclass
class SearchResult:
    """Outcome of one full Algorithm 1 run (Appendix B).

    ``search_time`` is the quantity the paper normalizes into the
    *search cost* column of Tables II/IV-VI.
    """

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    target_accuracy: float
    expected_time: float
    trials: list[TrialOutcome] = field(default_factory=list)
    candidates: tuple[ScheduleCandidate, ...] = ()

    @property
    def search_time(self) -> float:
        """Total simulated time of every session trained while searching."""
        return sum(trial.time for trial in self.trials)

    @property
    def n_sessions(self) -> int:
        """Number of sessions trained while searching."""
        return len(self.trials)

    @property
    def valid_sessions(self) -> int:
        """Sessions that produced a model at the target accuracy."""
        return sum(1 for trial in self.trials if trial.valid)

    @property
    def switch_fraction(self) -> float:
        """First segment's budget share (the two-phase switch point)."""
        return self.fractions[0]

    @property
    def switch_percent(self) -> float:
        """Found switch point in percent (paper notation)."""
        return self.switch_fraction * 100.0

    def describe(self) -> str:
        """Human-readable ``BSP -> SSP -> ASP`` style schedule label."""
        return " -> ".join(name.upper() for name in self.protocols)


def boundary_fractions(boundaries: Sequence[float]) -> tuple[float, ...]:
    """Per-segment budget shares from cumulative switch boundaries.

    ``boundaries`` holds the N-1 cumulative switch points of an
    N-segment schedule (the implicit outer boundaries are 0 and 1), so
    segment ``i`` receives ``b_{i+1} - b_i``.  Binary-search midpoints
    are dyadic rationals, hence the differences are exact and two
    implementations computing the same boundaries produce bit-equal
    fraction vectors.
    """
    fractions = []
    previous = 0.0
    for boundary in boundaries:
        fractions.append(boundary - previous)
        previous = boundary
    fractions.append(1.0 - previous)
    return tuple(fractions)


def validate_sequences(sequences) -> tuple[tuple[str, ...], ...]:
    """Check and normalize candidate protocol sequences.

    Every sequence must consist of known protocols in strictly
    decreasing registry precision (the schedule the search installs
    must be constructible as a paper-order ``ProtocolSchedule``), and
    all sequences must open with the same protocol: the target-accuracy
    runs train that opener at the full budget and are shared across
    sequences.
    """
    normalized = tuple(tuple(sequence) for sequence in sequences)
    if not normalized:
        raise SearchError("need at least one candidate protocol sequence")
    known = known_protocols()
    for sequence in normalized:
        if not sequence:
            raise SearchError("candidate protocol sequence is empty")
        for protocol in sequence:
            if protocol not in known:
                raise SearchError(
                    f"unknown protocol {protocol!r}; known: {known}"
                )
        ranks = [precision_rank(protocol) for protocol in sequence]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise SearchError(
                f"schedule {' -> '.join(sequence)} must move from more to "
                "less precise protocols"
            )
    openers = {sequence[0] for sequence in normalized}
    if len(openers) > 1:
        raise SearchError(
            "all candidate sequences must start with the same protocol "
            f"to share target runs; got {sorted(openers)}"
        )
    return normalized


def pick_best_schedule(
    sequences: Sequence[tuple[str, ...]],
    finals: Sequence[tuple[float, ...]],
    trials: Sequence[TrialOutcome],
    fallback_time: float | None,
) -> tuple[int, tuple[float, ...]]:
    """Price each sequence's found schedule and pick the fastest.

    The price is the mean session time of the trials that trained the
    final schedule; a schedule that was never trialed (the search kept
    the full budget on the opener) falls back to the opener-run mean
    time.  Returns ``(best_index, prices)`` with ties broken toward the
    earlier sequence.
    """
    if fallback_time is None:
        fallback_time = math.inf
    best_index = 0
    best_price = math.inf
    prices = []
    for index, sequence in enumerate(sequences):
        times = [
            trial.time
            for trial in trials
            if trial.protocols == sequence and trial.fractions == finals[index]
        ]
        price = sum(times) / len(times) if times else fallback_time
        prices.append(price)
        if price < best_price:
            best_index, best_price = index, price
    return best_index, tuple(prices)


def search_steps(
    config: SearchConfig, sequences: Sequence[Sequence[str]] = TWO_PHASE
) -> Generator[TrialBatch, list[tuple[float, float]], SearchResult]:
    """Algorithm 1 as a coroutine over candidate protocol ``sequences``.

    ``next()`` yields the first :class:`TrialBatch`; ``send()`` takes
    the ``(accuracy, time)`` outcomes of its ``count`` sessions (any
    order — the list index becomes the trial's ``run_index``) and
    yields the next batch; the :class:`SearchResult` is the
    ``StopIteration`` value.  Sequences are checked here, before the
    first batch is asked for.
    """
    return _search_steps(config, validate_sequences(sequences))


def _search_steps(config, sequences):
    """:func:`search_steps` over already-validated sequences.

    One halving run per schedule boundary: searching boundary ``i``
    keeps the already-found boundaries ``b_1..b_{i-1}`` fixed (they
    bound the interval from below) and pins the later boundaries at
    1.0, so every trial is a valid monotone schedule.
    """
    trials: list[TrialOutcome] = []
    target = config.target_accuracy
    opener_time = None
    if target is None:
        # Algorithm 1 lines 2-5, shared across sequences: the
        # opener protocol at the full budget sets the target.
        opener = sequences[0]
        base = boundary_fractions([1.0] * (len(opener) - 1))
        outcomes = yield TrialBatch(opener, base, config.bsp_runs)
        for run, (accuracy, time) in enumerate(outcomes):
            trials.append(
                TrialOutcome(opener, base, run, accuracy, time, valid=True)
            )
        target = sum(accuracy for accuracy, _ in outcomes) / len(outcomes)
        opener_time = sum(time for _, time in outcomes) / len(outcomes)

    finals = []
    for sequence in sequences:
        boundaries = [1.0] * (len(sequence) - 1)
        for index in range(len(boundaries)):
            lower = boundaries[index - 1] if index else 0.0
            upper = 1.0
            for _ in range(config.max_settings):
                candidate = (upper + lower) / 2.0
                boundaries[index] = candidate
                vector = boundary_fractions(boundaries)
                outcomes = yield TrialBatch(
                    sequence, vector, config.runs_per_setting
                )
                mean_accuracy = 0.0
                for run, (accuracy, time) in enumerate(outcomes):
                    mean_accuracy += accuracy
                    trials.append(
                        TrialOutcome(
                            sequence,
                            vector,
                            run,
                            accuracy,
                            time,
                            valid=abs(accuracy - target) <= config.beta,
                        )
                    )
                mean_accuracy /= len(outcomes)
                # Lines 11-15: a good-enough candidate becomes the new
                # upper bound (try switching even earlier), otherwise
                # the lower.
                if abs(mean_accuracy - target) <= config.beta:
                    upper = candidate
                else:
                    lower = candidate
            boundaries[index] = upper
        finals.append(boundary_fractions(boundaries))

    best, prices = pick_best_schedule(sequences, finals, trials, opener_time)
    return SearchResult(
        protocols=sequences[best],
        fractions=finals[best],
        target_accuracy=target,
        expected_time=prices[best],
        trials=trials,
        candidates=tuple(
            ScheduleCandidate(sequence, finals[index], prices[index])
            for index, sequence in enumerate(sequences)
        ),
    )


class ScheduleSearch:
    """The closed loop around :func:`search_steps`: every batch the
    search asks for is trained on the spot by calling ``trial_runner``
    once per repetition."""

    def __init__(
        self,
        trial_runner: ScheduleTrialRunner,
        config: SearchConfig,
        sequences: Sequence[Sequence[str]] = TWO_PHASE,
    ):
        self.trial_runner = trial_runner
        self.config = config
        self.sequences = validate_sequences(sequences)

    def search(self) -> SearchResult:
        """Run the search and return the fastest found schedule."""
        steps = _search_steps(self.config, self.sequences)
        outcomes = None
        while True:
            try:
                batch = steps.send(outcomes)
            except StopIteration as finished:
                return finished.value
            outcomes = self._train(batch)

    def _train(self, batch: TrialBatch) -> list[tuple[float, float]]:
        runner = self.trial_runner
        return [
            runner(batch.protocols, batch.fractions, run)
            for run in range(batch.count)
        ]


class OfflineTimingSearch(ScheduleSearch):
    """The paper's two-phase search: :class:`ScheduleSearch` over
    :data:`TWO_PHASE`, for a ``(switch_fraction, run)`` trial runner."""

    def __init__(self, trial_runner: TrialRunner, config: SearchConfig):
        super().__init__(trial_runner, config)

    def _train(self, batch: TrialBatch) -> list[tuple[float, float]]:
        runner, fraction = self.trial_runner, batch.fractions[0]
        return [runner(fraction, run) for run in range(batch.count)]
