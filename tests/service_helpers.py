"""Shared helpers for the tests that drive a live campaign service."""

import threading


def hold_jobs_until_watched(service, timeout=60.0):
    """Start each job only once a client has subscribed to its event
    stream.  A job that finishes before its watcher attaches leaves
    only the collapsed terminal event, so without this hold whether a
    stream shows live progress depends on how fast the job runs."""
    watched: "dict[str, threading.Event]" = {}
    subscribe, run_job = service.subscribe, service._run_job

    def subscribe_and_release(job_id):
        subscription = subscribe(job_id)
        watched.setdefault(job_id, threading.Event()).set()
        return subscription

    def run_once_watched(record):
        watched.setdefault(record.id, threading.Event()).wait(timeout)
        run_job(record)

    service.subscribe = subscribe_and_release
    service._run_job = run_once_watched


def hold_jobs_until_cancelled(service, timeout=60.0):
    """Start each job only once it has been cancelled, so a job that
    only keeps the queue busy cannot finish before its cancel lands,
    however fast it runs."""
    run_job = service._run_job

    def run_once_cancelled(record):
        service._cancels[record.id].wait(timeout)
        run_job(record)

    service._run_job = run_once_cancelled
