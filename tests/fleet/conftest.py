"""Fleet-suite fixtures."""

import pytest


@pytest.fixture()
def stream_job():
    """Factory for a tunable sync-switch stream job of class exp1x8."""
    from repro.fleet.workload import JobRequest

    def make(job_id=0, arrival=0.0):
        return JobRequest(job_id=job_id, arrival=arrival)

    return make


@pytest.fixture()
def drive_search(stream_job):
    """Run one class's in-fleet search to the end, without a fleet.

    ``drive(search, trial, order=list)`` admits one stream job, then
    answers every batch of trial jobs the :class:`InFleetSearch` hands
    back: ``trial(job, run)`` gives a job's ``(accuracy, time)`` (``run``
    is its position in the batch) and ``order`` permutes the batch into
    completion order.  Returns the batches in the order asked.
    """
    from types import SimpleNamespace

    def drive(search, trial, order=list):
        batches = []
        jobs = search.job_admitted(stream_job(), now=0.0)
        now = 0.0
        while jobs:
            batches.append(jobs)
            done = [(job, trial(job, run)) for run, job in enumerate(jobs)]
            jobs = ()
            for job, (accuracy, time) in order(done):
                # only the batch's last completion asks for more trials
                assert jobs == ()
                now += time
                jobs = search.trial_finished(
                    job.job_id,
                    SimpleNamespace(diverged=False, reported_accuracy=accuracy),
                    time,
                    now,
                )
        return batches

    return drive
