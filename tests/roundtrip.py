"""Run a simulator in round blocks with a pickle round-trip at each boundary.

Both simulators promise that their whole state pickles between any two
rounds and that each round's draws depend only on the state before it.
:func:`run_round_tripped` checks both at once: it advances a simulator to
each boundary, replaces it by ``pickle.loads(pickle.dumps(simulator))``,
and finalises the copy after the last round.  ``pickle`` fails on any
unpicklable attribute (a lambda, a lock, an open handle), and a draw
that depended on anything but the state would make the result differ
from the uninterrupted run.
"""

import enum
import itertools
import pickle

import numpy as np


def near_equal_boundaries(total_rounds, blocks):
    """The ``blocks - 1`` inner boundaries of ``blocks`` near-equal blocks.

    Earlier blocks take the remainder, so block lengths differ by at most
    one; with more blocks than rounds the trailing blocks are empty.

    >>> near_equal_boundaries(10, 3)
    [4, 7]
    """
    base, extra = divmod(total_rounds, blocks)
    sizes = [base + (1 if index < extra else 0) for index in range(blocks - 1)]
    return list(itertools.accumulate(sizes))


def run_round_tripped(simulator, *, blocks=None, at=None):
    """Run ``simulator`` to the end, pickling it at every block boundary.

    Give either ``blocks`` (that many near-equal blocks over
    ``total_rounds()``) or ``at`` (the ascending rounds after which to
    round-trip).  Returns the finalised result of the last copy.
    """
    total = simulator.total_rounds()
    if (blocks is None) == (at is None):
        raise TypeError("give exactly one of blocks= and at=")
    boundaries = near_equal_boundaries(total, blocks) if at is None else list(at)
    assert boundaries == sorted(boundaries) and all(0 <= b <= total for b in boundaries)
    done = 0
    for boundary in boundaries:
        simulator.advance_rounds(boundary - done)
        done = boundary
        simulator = pickle.loads(pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL))
    simulator.advance_rounds(total - done)
    return simulator.finalize()


def comparable(value):
    """A deep, exactly comparable copy of a result's values.

    Arrays become ``(dtype, shape, bytes)``, floats their hex form (so
    ``-0.0`` and NaN compare exactly), and objects their attribute dicts.
    """
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {comparable(key): comparable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return tuple(comparable(item) for item in value)
    if hasattr(value, "__dict__") and not isinstance(value, (enum.Enum, type)):
        return (type(value).__name__, comparable(vars(value)))
    return value


def result_fingerprint(result):
    """Every value a simulator result reports, its config aside.

    The config is left out: the two runs compared may hold distinct
    copies of it.  The tax totals are in ``extras``, so they are compared.
    """
    return comparable({name: value for name, value in vars(result).items() if name != "config"})
