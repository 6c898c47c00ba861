"""Request batcher: coalescing, splitting, shedding, drain."""

import asyncio

import pytest

from repro import obs
from repro.serve.batcher import QueueFullError, RequestBatcher


class Recorder:
    """An evaluate callable that records every batch it receives."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.fail_on = fail_on or set()

    def __call__(self, items):
        self.batches.append(list(items))
        if any(item in self.fail_on for item in items):
            raise RuntimeError("evaluator exploded")
        return [item * 10 for item in items]


def test_concurrent_submissions_coalesce_into_one_batch(clean_obs):
    obs.enable(tracing=False, metrics=True)
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.005, max_batch=64)
        batcher.start()
        results = await asyncio.gather(
            *[batcher.submit(i) for i in range(8)]
        )
        await batcher.stop()
        return results

    results = asyncio.run(run())
    assert results == [i * 10 for i in range(8)]
    assert len(recorder.batches) == 1
    assert recorder.batches[0] == list(range(8))
    metrics = obs.get_metrics().snapshot()
    assert metrics["counters"]["serve.batch.count"] == 1
    assert metrics["counters"]["serve.batch.queries"] == 8
    occupancy = metrics["histograms"]["serve.batch.occupancy"]
    assert occupancy["count"] == 1
    assert occupancy["mean"] == 8.0


def test_max_batch_splits_large_windows(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.005, max_batch=4)
        batcher.start()
        results = await asyncio.gather(
            *[batcher.submit(i) for i in range(10)]
        )
        await batcher.stop()
        return results

    results = asyncio.run(run())
    assert results == [i * 10 for i in range(10)]
    assert [len(b) for b in recorder.batches] == [4, 4, 2]


def test_queue_full_sheds_with_counter(clean_obs):
    obs.enable(tracing=False, metrics=True)
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(
            recorder, window_s=0.005, max_batch=8, max_pending=3
        )
        batcher.start()
        admitted = [batcher.submit(i) for i in range(3)]
        with pytest.raises(QueueFullError):
            batcher.submit(99)
        results = await asyncio.gather(*admitted)
        await batcher.stop()
        return results

    assert asyncio.run(run()) == [0, 10, 20]
    snapshot = obs.get_metrics().snapshot()
    assert snapshot["counters"]["serve.shed.total"] == 1


def test_stop_drains_pending_work(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder, window_s=10.0)
        batcher.start()
        # The window is absurdly long: stop() must not wait for it.
        futures = [batcher.submit(i) for i in range(5)]
        await batcher.stop()
        assert all(f.done() for f in futures)
        return [f.result() for f in futures]

    assert asyncio.run(run()) == [i * 10 for i in range(5)]
    assert len(recorder.batches) == 1


def test_submit_after_stop_raises(clean_obs):
    recorder = Recorder()

    async def run():
        batcher = RequestBatcher(recorder)
        batcher.start()
        await batcher.stop()
        with pytest.raises(RuntimeError):
            batcher.submit(1)

    asyncio.run(run())


def test_evaluator_failure_propagates_to_all_waiters(clean_obs):
    recorder = Recorder(fail_on={0, 1, 2, 3})

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.002)
        batcher.start()
        futures = [batcher.submit(i) for i in range(4)]
        gathered = await asyncio.gather(
            *futures, return_exceptions=True
        )
        await batcher.stop()
        return gathered

    outcomes = asyncio.run(run())
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    # The failed batch drained through one single-item retry each.
    assert recorder.batches == [[0, 1, 2, 3], [0], [1], [2], [3]]


def test_one_failing_item_does_not_fail_its_batch_mates(clean_obs):
    recorder = Recorder(fail_on={2})

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.002)
        batcher.start()
        futures = [batcher.submit(i) for i in range(4)]
        gathered = await asyncio.gather(
            *futures, return_exceptions=True
        )
        await batcher.stop()
        return gathered

    outcomes = asyncio.run(run())
    assert outcomes[:2] == [0, 10]
    assert isinstance(outcomes[2], RuntimeError)
    assert outcomes[3] == 30
    assert recorder.batches == [[0, 1, 2, 3], [0], [1], [2], [3]]


def test_single_item_failure_is_not_retried(clean_obs):
    recorder = Recorder(fail_on={7})

    async def run():
        batcher = RequestBatcher(recorder, window_s=0.0)
        batcher.start()
        outcome = await asyncio.gather(
            batcher.submit(7), return_exceptions=True
        )
        await batcher.stop()
        return outcome

    (outcome,) = asyncio.run(run())
    assert isinstance(outcome, RuntimeError)
    assert recorder.batches == [[7]]


def test_constructor_validation():
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, window_s=-1.0)
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, max_batch=0)
    with pytest.raises(ValueError):
        RequestBatcher(lambda items: items, max_pending=0)
