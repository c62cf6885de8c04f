"""The Hoelder fuzzer's chunking: its report does not depend on the chunk
size, and its memory does not grow with the sample count."""

import tracemalloc

import pytest

from eigstab import holder

#: traced peak allowed to one fuzz_inequalities call; the draw buffer of a
#: FUZZ_CHUNK of 250 is 1.17 MiB and the whole peak about 1.52 MiB, so a
#: chunk of 300 or more fails here before it shows in a process's peak RSS
PEAK_BOUND = 1.75 * 2**20


# at -0.1, seed 2's first violation is sample 1 (p = 2.5), ahead of the
# first one of its chunk's p = 2 group, sample 5
@pytest.mark.parametrize("tol", [holder.FUZZ_TOL, -0.1], ids=["default", "violating"])
def test_report_does_not_depend_on_the_chunk(monkeypatch, tol):
    monkeypatch.setattr(holder, "FUZZ_TOL", tol)
    reports = {}
    for chunk in (5, 100, holder.FUZZ_CHUNK, 1000):
        monkeypatch.setattr(holder, "FUZZ_CHUNK", chunk)
        reports[chunk] = holder.fuzz_inequalities(1234, 2)  # a partial last chunk at each size
    assert len(set(reports.values())) == 1, reports
    assert (reports[5].violations > 0) == (tol < 0.0)


def _traced_peak(samples: int) -> int:
    holder.fuzz_inequalities(5, 0)  # lazy imports and caches before tracing
    tracemalloc.start()
    try:
        holder.fuzz_inequalities(samples, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_samples_and_bounded():
    three, ten = _traced_peak(3 * holder.FUZZ_CHUNK), _traced_peak(10 * holder.FUZZ_CHUNK)
    assert ten <= 1.1 * three, (three, ten)
    assert ten <= PEAK_BOUND, ten
