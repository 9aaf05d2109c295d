import os
import random

import pytest

from ramarrow import arrowing


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fail a test that leaves a child process behind, running or a zombie."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test ({'running' if pid == 0 else f'zombie {pid}'})")


@pytest.fixture(params=["listed", "reversed", "shuffled"])
def copy_order(request, monkeypatch):
    """A call that makes arrowing.enumerate_copies hand each list back in this order.

    The lists come as listed, reversed, or shuffled by one seeded generator.
    A clause-mode search must not tell these apart.
    """
    listed = arrowing.enumerate_copies
    rng = random.Random(5)

    def reordered(*args, **kwargs):
        copies = listed(*args, **kwargs)
        if request.param == "reversed":
            copies.reverse()
        elif request.param == "shuffled":
            rng.shuffle(copies)
        return copies

    return lambda: monkeypatch.setattr(arrowing, "enumerate_copies", reordered)
