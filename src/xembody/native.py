"""Compiled kernels: one C source, built at run time and loaded with ctypes.

Two functions live in the source. `xembody_fps` is greedy farthest-point
sampling (`synth._fps`); `xembody_dcd_matches` is the directional Chamfer
distance match (`chamfer._matches`) and, given buffers for it, its cotangent,
scattered to each target row in ascending source order as np.bincount sums.
Each reproduces the numpy reference that its tests compare it with bit for
bit, so every sum keeps the reference's order and every argmin its tie rule.
Neither allocates: the caller passes every buffer.

Farthest-point sampling skips the rows a pick cannot reach. It bins the rows
into a uniform grid of about 32 rows a cell and keeps, per cell, the box of
its rows and their largest distance to the picks so far. A new pick leaves a
cell alone when its squared distance to the cell's box is at least that
largest distance. The bound is computed with the operations the row update
uses, in the same order: gaps lo - p or p - hi, then (gx*gx + gz*gz) +
gy*gy. Each of those roundings is monotone, so the bound is at most the
squared distance the update would compute for any row in the box, and no
row's distance could fall. Skipping therefore changes no bit, and the picks
are those of the unpruned loop. On a 1,724-row synthesized frame, about one
row update in five is left.

The flags keep those bits on any x86-64 host:
- `-ffp-contract=off` forbids fusing a multiply and an add into an FMA, which
  rounds once where the reference rounds twice, and could round the FPS
  bound and the row update differently;
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

/* Rows the FPS grid aims to put in each cell. */
#define FPS_CELL_ROWS 32

/* Greedy farthest-point sampling over m (x, y, z) rows, seeded at `start`.
   Each pick lowers dist[i] to the squared distance (dx*dx + dz*dz) + dy*dy
   from row i, the order np.einsum("mk,mk->m") uses on (M, 3) rows, and the
   next pick is the largest dist with ties to the lowest index, as np.argmax
   decides: the picks match tests/test_synth.py::_fps_indices_reference bit
   for bit.

   The rows are binned into a uniform grid over their bounding box and stored
   cell by cell as x, y and z arrays, in row order within a cell. Each cell
   keeps the box of its rows, its largest dist and the lowest row holding it.
   A pick skips a cell when the squared distance from the pick to the box,
   summed in the same order from gaps lo - p or p - hi, is at least the cell's
   largest dist: rounding is monotone in each operation, so no row in the box
   is nearer than that bound, and none of their dist can fall. A NaN bound
   never skips. A grid of one cell is the plain loop.

   reals holds 6m + 7 doubles: dist in row order, then the binned x, y, z
   and dist, then 7 doubles per cell. ints holds n + 3m + 2 integers: the picks,
   the number of per-row distance updates made, then each binned row's index,
   each row's cell and the cell offsets. */
void xembody_fps(const double *p, int64_t m, int64_t n, int64_t start,
                 double *reals, int64_t *ints)
{
    double *dist = reals, *xs = reals + m, *ys = xs + m, *zs = ys + m, *bd = zs + m;
    double *cells = bd + m;
    int64_t *selected = ints, *updates = ints + n, *row = updates + 1, *cell = row + m;
    int64_t *offset = cell + m;

    double lo[3] = {INFINITY, INFINITY, INFINITY}, hi[3] = {-INFINITY, -INFINITY, -INFINITY};
    for (int64_t i = 0; i < m; ++i)
        for (int a = 0; a < 3; ++a) {
            const double v = p[3 * i + a];
            lo[a] = v < lo[a] ? v : lo[a];
            hi[a] = v > hi[a] ? v : hi[a];
        }
    /* Split the longest cell edge while the grid keeps at most m / FPS_CELL_ROWS
       cells. An axis of zero or non-finite extent keeps one cell. */
    int64_t dims[3] = {1, 1, 1}, grid = 1;
    const int64_t most = m / FPS_CELL_ROWS > 1 ? m / FPS_CELL_ROWS : 1;
    double extent[3], scale[3];
    for (int a = 0; a < 3; ++a) {
        extent[a] = hi[a] - lo[a];
        if (!(extent[a] > 0.0 && extent[a] < INFINITY))
            extent[a] = 0.0;
    }
    for (;;) {
        int a = 0;
        for (int b = 1; b < 3; ++b)
            if (extent[b] / dims[b] > extent[a] / dims[a])
                a = b;
        const int64_t next = grid / dims[a] * (dims[a] + 1);
        if (extent[a] == 0.0 || next > most)
            break;
        grid = next;
        ++dims[a];
    }
    for (int a = 0; a < 3; ++a)
        scale[a] = extent[a] > 0.0 ? dims[a] / extent[a] : 0.0;

    /* Counting sort of the rows by cell, stable, so that each cell holds its
       rows in ascending order. */
    for (int64_t g = 0; g <= grid; ++g)
        offset[g] = 0;
    for (int64_t i = 0; i < m; ++i) {
        int64_t id = 0;
        for (int a = 2; a >= 0; --a) {
            /* Never negative; NaN goes to the last cell. */
            double c = (p[3 * i + a] - lo[a]) * scale[a];
            c = c < dims[a] - 1 ? c : dims[a] - 1;
            id = id * dims[a] + (int64_t)c;
        }
        cell[i] = id;
        ++offset[id + 1];
    }
    for (int64_t g = 1; g <= grid; ++g)
        offset[g] += offset[g - 1];
    for (int64_t i = 0; i < m; ++i) {
        const int64_t at = offset[cell[i]]++;
        xs[at] = p[3 * i];
        ys[at] = p[3 * i + 1];
        zs[at] = p[3 * i + 2];
        bd[at] = INFINITY;
        row[at] = i;
    }
    /* offset[g] is now the end of cell g; keep the non-empty cells' starts. */
    int64_t count = 0, begin = 0;
    for (int64_t g = 0; g < grid; ++g) {
        const int64_t end = offset[g];
        if (end > begin)
            offset[count++] = begin;
        begin = end;
    }
    offset[count] = m;
    /* Per cell: the box (lo x, y, z, hi x, y, z) and the largest dist, and in
       `cell`, the lowest row holding it. NaN coordinates stay out of the box;
       their rows' distances are NaN and never lower dist. */
    double *cmax = cells + 6 * count;
    int64_t *carg = cell;
    for (int64_t c = 0; c < count; ++c) {
        double *box = cells + 6 * c;
        box[0] = box[1] = box[2] = INFINITY;
        box[3] = box[4] = box[5] = -INFINITY;
        for (int64_t i = offset[c]; i < offset[c + 1]; ++i) {
            const double v[3] = {xs[i], ys[i], zs[i]};
            for (int a = 0; a < 3; ++a) {
                box[a] = v[a] < box[a] ? v[a] : box[a];
                box[3 + a] = v[a] > box[3 + a] ? v[a] : box[3 + a];
            }
        }
        cmax[c] = INFINITY;
        carg[c] = row[offset[c]];
    }

    int64_t pick = start, done = 0;
    selected[0] = pick;
    for (int64_t k = 1; k < n; ++k) {
        const double px = p[3 * pick], py = p[3 * pick + 1], pz = p[3 * pick + 2];
        double best = -1.0;
        int64_t arg = 0;
        for (int64_t c = 0; c < count; ++c) {
            const double *box = cells + 6 * c;
            const double gx = px < box[0] ? box[0] - px : px > box[3] ? px - box[3] : 0.0;
            const double gy = py < box[1] ? box[1] - py : py > box[4] ? py - box[4] : 0.0;
            const double gz = pz < box[2] ? box[2] - pz : pz > box[5] ? pz - box[5] : 0.0;
            const double bound = (gx * gx + gz * gz) + gy * gy;
            if (!(bound >= cmax[c])) {
                const int64_t first = offset[c], last = offset[c + 1];
                double top = -1.0;
                int64_t at = first;
                for (int64_t i = first; i < last; ++i) {
                    const double dx = xs[i] - px, dy = ys[i] - py, dz = zs[i] - pz;
                    const double d = (dx * dx + dz * dz) + dy * dy;
                    const double v = d < bd[i] ? d : bd[i];
                    bd[i] = v;
                    if (v > top) {
                        top = v;
                        at = i;
                    }
                }
                cmax[c] = top;
                carg[c] = row[at];
                done += last - first;
            }
            if (cmax[c] > best || (cmax[c] == best && carg[c] < arg)) {
                best = cmax[c];
                arg = carg[c];
            }
        }
        selected[k] = pick = arg;
    }
    for (int64_t i = 0; i < m; ++i)
        dist[row[i]] = bd[i];
    *updates = done;
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
   d = d - ((ux*vx + uz*vz) + uy*vy) * lam.

   Given `grad` (6m doubles, else NULL), it also writes the cotangent with
   respect to the target rows, d_points then d_dirs, from 0.0: row i's
   forward term goes to row fwd[i] once its argmin is final, so each row sums
   them in ascending i as np.bincount does, and one pass over the columns
   adds the backward terms (tests/helpers.py::cotangent_reference). */

/* Adds one match's terms with count = n forward or m backward: with
   diff = q - p and den = sqrt(((dx*dx + dz*dz) + dy*dy) + eps*eps),
   (diff * (1 / den)) / count to d_points (zero where den is not positive),
   and at lam != 0, (-lam / count) * u to d_dirs. */
static void scatter(const double *p, const double *u, const double *q, double eps2,
                    double count, double lam, double *d_points, double *d_dirs)
{
    const double dx = q[0] - p[0], dy = q[1] - p[1], dz = q[2] - p[2];
    const double den = sqrt(((dx * dx + dz * dz) + dy * dy) + eps2);
    const double s = den > 0.0 ? 1.0 / den : 0.0;
    d_points[0] += (dx * s) / count;
    d_points[1] += (dy * s) / count;
    d_points[2] += (dz * s) / count;
    if (lam != 0.0)
        for (int a = 0; a < 3; ++a)
            d_dirs[a] += (-lam / count) * u[a];
}

/* The backward terms of every target row j, matched to source row bwd[j].
   Kept out of line: inlined, it left GCC 12 more values to keep across the
   row loop, and a match without the cotangent took 5-35% longer at
   128 x 192 rows, depending on the code around it. */
static __attribute__((noinline)) void add_backward_terms(
    const double *p, const double *u, const double *q, int64_t m, double lam, double eps2,
    const int64_t *bwd, double *grad)
{
    for (int64_t j = 0; j < m; ++j)
        scatter(p + 3 * bwd[j], u + 3 * bwd[j], q + 3 * j, eps2, (double)m, lam, grad + 3 * j,
                grad + 3 * (m + j));
}

void xembody_dcd_matches(const double *p, const double *u, const double *q, const double *v,
                         int64_t n, int64_t m, double lam, double eps, double *row,
                         int64_t *fwd, int64_t *bwd, double *fwd_vals, double *bwd_vals,
                         double *grad)
{
    const double eps2 = eps * eps;
    for (int64_t k = 0; grad && k < 6 * m; ++k)
        grad[k] = 0.0;
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
        if (grad)
            scatter(p + 3 * i, u + 3 * i, q + 3 * arg, eps2, (double)n, lam, grad + 3 * arg,
                    grad + 3 * (m + arg));
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
    if (grad)
        add_backward_terms(p, u, q, m, lam, eps2, bwd, grad);
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
    matches.argtypes = (address,) * 4 + (size, size, real, real) + (address,) * 6
    return Kernels(fps, matches)
