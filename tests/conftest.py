from __future__ import annotations

import contextlib

import pytest

import ucf.verifier as verifier


@pytest.fixture
def interrupt_at_job():
    """interrupt_at_job(stop) is a context in which campaign job stop
    raises RuntimeError, the way a run killed there stops: the jobs
    finished before it stay in the checkpoint.  The context asserts
    that the campaign run inside it raised.

    A pool worker sends any exception of its job back to the parent,
    a BaseException such as KeyboardInterrupt too, so the run raises it
    at 1 and at 2 workers alike.
    """

    @contextlib.contextmanager
    def interrupt(stop: int):
        enumerate_job = verifier.enumerate_job

        def job(c, j, *args, **kwargs):
            if j == stop:
                raise RuntimeError(f"interrupted at job {j}")
            return enumerate_job(c, j, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verifier, "enumerate_job", job)
            with pytest.raises(RuntimeError, match="interrupted at job"):
                yield

    return interrupt
