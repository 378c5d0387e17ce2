import os
import subprocess
import sys
from pathlib import Path

import xembody

TESTS = Path(__file__).resolve().parent

# The kernel tests whose inputs reach every branch of both kernels: FPS edge
# clouds (one cell, empty cells, flat and overflowing extents) and pipeline
# clouds, DCD matches and cotangents with inf and NaN rows.
EDGE_TESTS = (
    "test_synth.py::test_fps_kernel_edges_match_einsum_reference",
    "test_synth.py::test_fps_kernel_overflow_ties_go_to_the_lowest_index",
    "test_synth.py::test_fps_on_pipeline_clouds_matches_einsum_reference",
    "test_synth.py::test_fps_pruning_skips_most_updates_on_a_frame",
    "test_chamfer.py::test_matches_equal_full_matrix_argmins",
    "test_chamfer.py::test_blocked_matches_keep_the_first_nan_like_argmin",
    "test_chamfer.py::test_rows_of_any_layout_give_the_reference_matches",
    "test_chamfer.py::test_kernel_cotangent_equals_reference",
)
SANITIZE = ("-Wall", "-Wextra", "-Werror", "-fsanitize=undefined,float-cast-overflow",
            "-fno-sanitize-recover=all")


def test_kernels_built_with_sanitizers_pass_the_edge_cases():
    # A fresh interpreter builds the kernels with warnings as errors and
    # undefined-behaviour checks that abort the process, then runs the edge
    # cases through them: an out-of-range double-to-integer conversion or an
    # out-of-bounds shift fails this test even where the picks come out right.
    src = str(Path(xembody.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = (f"import sys, pytest; from xembody import native; "
            f"native._CFLAGS += {SANITIZE!r}; native.load_kernels(); "
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))")
    out = subprocess.run([sys.executable, "-c", code, *(str(TESTS / t) for t in EDGE_TESTS)],
                         env=env, cwd=TESTS.parent, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
