import time

import pytest

from cbfsynth import parallel

from conftest import no_children


def _square_or_raise(x):
    if x == 3:
        raise KeyError("three")
    if x == 5:
        raise ValueError("five")
    return x * x


@pytest.mark.parametrize("count", [1, 2, 3])
def test_fork_map_keeps_item_order(count):
    """Results come back in item order on any number of workers, however
    the items are dealt to them, and every child is reaped."""
    assert parallel.fork_map(_square_or_raise, [0, 1, 2, 4, 6], count) == [0, 1, 4, 16, 36]
    assert parallel.fork_map(_square_or_raise, [], count) == []
    assert no_children()


@pytest.mark.parametrize("count", [1, 2])
def test_fork_map_raises_the_first_failing_items_exception(count):
    """A task's exception reaches the caller with its type and message: the
    first failing item's, in item order, whichever worker ran it."""
    with pytest.raises(KeyError, match="three"):
        parallel.fork_map(_square_or_raise, [1, 3, 5, 2], 2 * count - 1)
    with pytest.raises(ValueError, match="^five$"):
        parallel.fork_map(_square_or_raise, [5, 3], count)
    assert no_children()


def test_close_kills_and_reaps_running_children():
    """Closing a start whose children still run kills and reaps them, and
    returns at once; a start with one worker runs nothing until collected."""
    started = parallel.start(time.sleep, [60.0, 60.0], 2)
    assert not no_children()
    t0 = time.perf_counter()
    started.close()
    assert time.perf_counter() - t0 < 10.0
    assert no_children()
    ran = []
    lazy = parallel.start(ran.append, [1, 2], 1)
    assert ran == []
    assert lazy() == [None, None] and ran == [1, 2]
    parallel.start(ran.append, [3], 1).close()
    assert ran == [1, 2]
