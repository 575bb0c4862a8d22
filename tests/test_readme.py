"""The README's library example, run as written."""

import re
from pathlib import Path

import numpy as np

import georisk

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs_and_every_export_resolves():
    # the block on synth_dataset(200, seed=1): about 0.6 s on one BLAS thread
    for name in georisk.__all__:
        assert getattr(georisk, name) is not None, name
    code = (
        "from georisk.io import synth_dataset\n"
        "locations, values = synth_dataset(200, seed=1)\n" + _library_block()
    )
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    maps = namespace["maps"]
    assert [m.threshold for m in maps] == [1.0, 2.0]
    for m in maps:
        p = m.probabilities
        assert p.shape == (2500,) and m.n_replicates == 1000
        assert np.count_nonzero(np.isnan(p)) == m.n_masked
        assert np.all((p[~np.isnan(p)] >= 0.0) & (p[~np.isnan(p)] <= 1.0))
