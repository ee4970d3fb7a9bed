"""The package declares ``numpy>=1.24``: ``src/`` must not use a name that
only numpy 2 provides.

The check is a search of the source for such names, which catches them
without a numpy 1.24 installation to run the suite on.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Added in numpy 2.0 (2.1, 2.2 for matvec/vecmat) and absent from 1.24.
NUMPY2_ONLY = {
    "vecdot", "matrix_transpose", "concat", "permute_dims", "unique_values", "unique_counts",
    "unique_inverse", "unique_all", "bitwise_count", "bitwise_left_shift", "bitwise_right_shift",
    "bitwise_invert", "astype", "isdtype", "pow", "acos", "asin", "atan", "atan2", "acosh", "asinh",
    "atanh", "cumulative_sum", "cumulative_prod", "trapezoid", "matvec", "vecmat",
}
# numpy.linalg names that 1.24 has only at the top level of numpy, or not at all.
LINALG2_ONLY = {
    "vecdot", "matrix_transpose", "matrix_norm", "vector_norm", "svdvals", "diagonal", "trace",
    "outer", "cross", "tensordot", "matmul",
}

_ATTR = re.compile(r"\b(?:np|numpy)\.(linalg\.)?(\w+)")
_IMPORT = re.compile(r"from\s+numpy(\.linalg)?\s+import\s+\(?([\w\s,]+)")


def numpy2_names(text: str) -> list[str]:
    found = set()
    for linalg, name in _ATTR.findall(text):
        if name in (LINALG2_ONLY if linalg else NUMPY2_ONLY):
            found.add(f"{'linalg.' if linalg else ''}{name}")
    for linalg, names in _IMPORT.findall(text):
        for name in re.findall(r"\w+", names):
            if name in (LINALG2_ONLY if linalg else NUMPY2_ONLY):
                found.add(f"{'linalg.' if linalg else ''}{name}")
    return sorted(found)


def test_guard_finds_numpy2_only_names():
    text = "np.vecdot(a, b)\nnumpy.linalg.matrix_norm(x)\nfrom numpy import concat, sqrt\nnp.linalg.eigh(x)\nnp.trace(x)"
    assert numpy2_names(text) == ["concat", "linalg.matrix_norm", "vecdot"]


def test_src_uses_no_numpy2_only_name():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = {str(path.relative_to(SRC)): numpy2_names(path.read_text(encoding="utf-8")) for path in sources}
    assert not {path: names for path, names in found.items() if names}
