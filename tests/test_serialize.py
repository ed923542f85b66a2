"""Text artifacts: the heat-kernel matrix format."""

import hashlib

import numpy as np

from ultraheat.serialize import matrix_export


def reference_text(matrix, header_line):
    """Element-by-element formatting, the reference for the row formatter."""
    lines = [header_line]
    for row in np.asarray(matrix):
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def test_matrix_export_matches_elementwise_formatting(tmp_path):
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf,
               0.1, 1 / 3, 2.0**-1074 * 3, 1e-310, 123456789.0, 0.5]
    rng = np.random.default_rng(11)
    matrix = np.concatenate([np.array(special), rng.standard_normal(15) * 1e3]).reshape(6, 5)
    path = tmp_path / "kernel.txt"
    digest = matrix_export(path, matrix, {"t": 0.5, "p": 3})
    text = path.read_text(encoding="utf-8")
    assert text == reference_text(matrix, '# {"p": 3, "t": 0.5}')
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert text.splitlines()[1].split(" ")[:3] == ["-0", "0", "4.9406564584124654e-324"]
