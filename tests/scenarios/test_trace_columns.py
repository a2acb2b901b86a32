"""Parts of the column-wise trace synthesis equal their per-record forms.

``CompiledScenario.synthesize_trace`` builds its records from numpy
columns.  Two of its steps replace per-record Python and must give the
same values: the vectorized ``round(x, 9)`` (checked on arbitrary and
on near-half values against Python's ``round``) and the vectorized run
walk (checked against the per-request loop records were once built
with).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.compiler import _round9, _run_pages


# ----------------------------------------------------------------------
# round(x, 9), vectorized
# ----------------------------------------------------------------------

def _near_halves(draw_ints):
    """Doubles at and around (k + 1/2)·1e-9: the values where a
    rounded scaled product could land on the wrong side."""
    out = []
    for k in draw_ints:
        centre = (k + 0.5) / 1e9
        value = centre
        for _ in range(3):
            value = np.nextafter(value, -np.inf)
        for _ in range(7):
            out.append(float(value))
            value = np.nextafter(value, np.inf)
    return out


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e7, max_value=1e7,
                                 allow_nan=False), max_size=40),
       halves=st.lists(st.integers(min_value=0, max_value=10 ** 13),
                       max_size=20))
def test_round9_equals_python_round(values, halves):
    values = values + _near_halves(halves) + [
        0.0, -0.0, 0.0009765625, 2.5e-9, 1e-12, 4503599.6, 1e9, 1e300,
        float("inf"), float("nan"),
    ]
    got = _round9(np.array(values, dtype=float)).tolist()
    for value, rounded in zip(values, got):
        want = round(value, 9)
        assert repr(rounded) == repr(want), value


# ----------------------------------------------------------------------
# The run walk, vectorized
# ----------------------------------------------------------------------

def _reference_pages(n_pages, run_length, count, state, rng):
    """Per request, as records were once built: a new run starts at a
    uniform page when the last one is used up or hits the object's
    end."""
    page, left = state
    pages = []
    for _ in range(count):
        if left <= 0 or page >= n_pages:
            page = int(rng.integers(0, n_pages))
            left = run_length
        pages.append(page)
        page += 1
        left -= 1
    return pages, (page, left)


@settings(max_examples=200, deadline=None)
@given(n_pages=st.integers(min_value=1, max_value=300),
       run_length=st.integers(min_value=1, max_value=80),
       counts=st.lists(st.integers(min_value=1, max_value=400),
                       min_size=1, max_size=4),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_run_pages_equals_per_request_walk(n_pages, run_length, counts,
                                           seed):
    # Several segments in a row: each continues the run state the last
    # one left, with a generator of its own.
    state = ref_state = (0, 0)
    for segment, count in enumerate(counts):
        pages, state = _run_pages(n_pages, run_length, count, state,
                                  np.random.default_rng([seed, segment]))
        want, ref_state = _reference_pages(
            n_pages, run_length, count, ref_state,
            np.random.default_rng([seed, segment]))
        assert pages.tolist() == want
        assert state == ref_state
