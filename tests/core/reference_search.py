"""Naive reference for Algorithm 1 — the oracle the search tests use.

A literal closed-loop transcription of the paper's Appendix B: two
phases, one switch fraction, a runner called once per session.  It
shares no code with :mod:`repro.core.search.binary_search` (which
writes the search as a coroutine over N-segment schedules), so the two
can only agree by both being right.  Kept slow and obvious on purpose;
do not "tidy" it toward the production code.
"""

from typing import NamedTuple


class ReferenceResult(NamedTuple):
    switch_fraction: float
    target_accuracy: float
    #: ``(switch_fraction, run_index, accuracy, time, valid)`` per session.
    trials: list

    @property
    def search_time(self):
        return sum(trial[3] for trial in self.trials)

    @property
    def valid_sessions(self):
        return sum(1 for trial in self.trials if trial[4])


def reference_search(
    trial_runner, beta, max_settings, runs_per_setting,
    target_accuracy=None, bsp_runs=0,
):
    """Run Algorithm 1 with ``trial_runner(fraction, run) -> (acc, time)``."""
    trials = []
    target = target_accuracy
    if target is None:
        # Lines 2-5: the target is the mean static-BSP accuracy.
        accuracies = []
        for run in range(bsp_runs):
            accuracy, time = trial_runner(1.0, run)
            accuracies.append(accuracy)
            trials.append((1.0, run, accuracy, time, True))
        target = sum(accuracies) / len(accuracies)

    upper, lower = 1.0, 0.0
    for _ in range(max_settings):
        candidate = (upper + lower) / 2.0
        mean_accuracy = 0.0
        candidate_trials = []
        for run in range(runs_per_setting):
            accuracy, time = trial_runner(candidate, run)
            mean_accuracy += accuracy
            candidate_trials.append((run, accuracy, time))
        mean_accuracy /= runs_per_setting
        for run, accuracy, time in candidate_trials:
            trials.append(
                (candidate, run, accuracy, time, abs(accuracy - target) <= beta)
            )
        # Lines 11-15: good enough -> try switching even earlier.
        if abs(mean_accuracy - target) <= beta:
            upper = candidate
        else:
            lower = candidate
    return ReferenceResult(upper, target, trials)
