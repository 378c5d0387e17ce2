"""Compiled kernels: one C source, built at run time and loaded with ctypes.

Two functions live in the source. `xembody_fps` is greedy farthest-point
sampling (`synth._fps_indices`); `xembody_dcd_matches` is the directional
Chamfer distance match (`chamfer._matches`). Each reproduces the numpy
reference that its tests compare it with bit for bit, so every sum keeps the
reference's order and every argmin its tie rule.

The flags keep those bits on any x86-64 host:
- `-ffp-contract=off` forbids fusing a multiply and an add into an FMA, which
  rounds once where the reference rounds twice;
- no `-ffast-math`, so nothing is reassociated and NaN and inf keep their
  meaning;
- `-fno-math-errno` only drops the errno write of `sqrt`, so that it compiles
  to the instruction, vectorized or not;
- `-march=native` lets the compiler use the host's widest vectors: vector
  add, multiply and `sqrt` round each lane exactly as the scalar instructions
  do. The library is built by the process that runs it, on that host, and
  never reused.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

from .errors import KernelBuildError

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Greedy farthest-point sampling over m (x, y, z) rows. The squared distance
   is summed as (dx*dx + dz*dz) + dy*dy, the order np.einsum("mk,mk->m") uses
   on (M, 3) rows, and the strict `>` keeps the lowest index of a tied
   maximum, as np.argmax does: the picks match
   tests/test_synth.py::_fps_indices_reference bit for bit. */
void xembody_fps(const double *p, int64_t m, int64_t n, int64_t start,
                 double *dist, int64_t *selected)
{
    int64_t pick = start;
    selected[0] = pick;
    for (int64_t i = 0; i < m; ++i)
        dist[i] = INFINITY;
    for (int64_t k = 1; k < n; ++k) {
        const double px = p[3 * pick], py = p[3 * pick + 1], pz = p[3 * pick + 2];
        double best = -1.0;
        int64_t arg = 0;
        for (int64_t i = 0; i < m; ++i) {
            const double dx = p[3 * i] - px, dy = p[3 * i + 1] - py, dz = p[3 * i + 2] - pz;
            const double d = (dx * dx + dz * dz) + dy * dy;
            const double v = d < dist[i] ? d : dist[i];
            dist[i] = v;
            if (v > best) {
                best = v;
                arg = i;
            }
        }
        selected[k] = pick = arg;
    }
}

/* Whether c replaces the minimum b: a strictly lower value, or the first NaN,
   as np.argmin decides. */
static inline int lower(double c, double b)
{
    return c < b || (c != c && b == b);
}

/* Row and column argmins of the (n, m) matrix of pair costs
   smooth(|p_i - q_j|) - lam * <u_i, v_j> between source rows (p, u) and
   target rows (q, v), all (x, y, z) rows. One source row at a time, the
   row's costs go into `row`, its argmin into fwd and fwd_vals, and each
   column's running minimum into bwd and bwd_vals. Ties keep the lowest
   index. Each cost is the arithmetic of tests/helpers.py::pair_costs:
   s = (dx*dx + dz*dz) + dy*dy and d = sqrt(s); at eps != 0,
   d = sqrt(d*d + eps*eps) - eps; at lam != 0,
   d = d - ((ux*vx + uz*vz) + uy*vy) * lam. */
void xembody_dcd_matches(const double *p, const double *u, const double *q, const double *v,
                         int64_t n, int64_t m, double lam, double eps, double *row,
                         int64_t *fwd, int64_t *bwd, double *fwd_vals, double *bwd_vals)
{
    const double eps2 = eps * eps;
    for (int64_t i = 0; i < n; ++i) {
        const double px = p[3 * i], py = p[3 * i + 1], pz = p[3 * i + 2];
        const double ux = u[3 * i], uy = u[3 * i + 1], uz = u[3 * i + 2];
        for (int64_t j = 0; j < m; ++j) {
            const double dx = px - q[3 * j], dy = py - q[3 * j + 1], dz = pz - q[3 * j + 2];
            double d = sqrt((dx * dx + dz * dz) + dy * dy);
            if (eps != 0.0)
                d = sqrt(d * d + eps2) - eps;
            if (lam != 0.0) {
                const double dot = (ux * v[3 * j] + uz * v[3 * j + 2]) + uy * v[3 * j + 1];
                d = d - dot * lam;
            }
            row[j] = d;
        }
        int64_t arg = 0;
        for (int64_t j = 1; j < m; ++j)
            if (lower(row[j], row[arg]))
                arg = j;
        fwd[i] = arg;
        fwd_vals[i] = row[arg];
        if (i == 0) {
            for (int64_t j = 0; j < m; ++j) {
                bwd[j] = 0;
                bwd_vals[j] = row[j];
            }
            continue;
        }
        for (int64_t j = 0; j < m; ++j) {
            const int moved = lower(row[j], bwd_vals[j]);
            bwd_vals[j] = moved ? row[j] : bwd_vals[j];
            bwd[j] = moved ? i : bwd[j];
        }
    }
}
"""
_COMPILER = "cc"
_CFLAGS = ("-O3", "-fno-math-errno", "-march=native", "-shared", "-fPIC", "-ffp-contract=off")


class Kernels(NamedTuple):
    """The loaded functions; every array argument is an address."""

    fps: object
    dcd_matches: object


@functools.cache
def load_kernels() -> Kernels:
    """Compile and load the kernels, once per process.

    The shared library is built in a private temporary directory that is
    removed once the library is loaded, so nothing is cached on disk. Raises
    KernelBuildError, naming the compiler, when it cannot be built or loaded.
    """
    import ctypes
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="xembody-kernels-") as tmp:
        source, path = os.path.join(tmp, "kernels.c"), os.path.join(tmp, "kernels.so")
        with open(source, "w") as f:
            f.write(_SOURCE)
        command = [_COMPILER, *_CFLAGS, "-o", path, source]
        try:
            built = subprocess.run(command, capture_output=True, text=True)
        except OSError as err:
            raise KernelBuildError(f"cannot build the compiled kernels: compiler "
                                   f"{_COMPILER!r} did not start: {err}") from err
        if built.returncode != 0:
            raise KernelBuildError(f"cannot build the compiled kernels: compiler "
                                   f"{_COMPILER!r} exited {built.returncode}: "
                                   f"{built.stderr.strip()}")
        try:
            library = ctypes.CDLL(path)
        except OSError as err:
            raise KernelBuildError(f"cannot load the compiled kernels built by "
                                   f"{_COMPILER!r}: {err}") from err
    address, size, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fps = library.xembody_fps
    fps.restype = None
    fps.argtypes = (address, size, size, size, address, address)
    matches = library.xembody_dcd_matches
    matches.restype = None
    matches.argtypes = (address,) * 4 + (size, size, real, real) + (address,) * 5
    return Kernels(fps, matches)
