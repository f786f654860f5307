"""README's Python quickstart runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(quickstart_code(), f"{README.name} quickstart", "exec"), namespace)
    weighted, report = namespace["weighted"], namespace["report"]
    baseline = namespace["baseline"]
    assert 0.0 <= weighted.pi0_overall < 1.0
    assert len(weighted.partition.groups) == 3
    assert report.n_rejected > 0 and baseline.n_rejected > 0
    # the rejection set is the weighted p-values at or below the threshold
    assert np.array_equal(
        report.rejected, np.flatnonzero(weighted.weighted <= report.threshold)
    )
