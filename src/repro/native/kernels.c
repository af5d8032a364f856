/* Fused gather / multiply / group-sum scatter kernels for the compiled
 * SpMV runtime (repro.runtime.plan).
 *
 * Bit-identity contract with the NumPy kernels they replace:
 *
 * - every accumulation iterates items in index order, so the additions
 *   into each output slot happen in exactly the element order of
 *   np.bincount(idx, weights=w) and np.add.at(acc, idx, w);
 * - each product rounds to double before the add.  The build always
 *   passes -ffp-contract=off, so the compiler cannot contract the
 *   multiply-add into an FMA (which would skip the intermediate
 *   rounding and change the low bits);
 * - no reassociation: strict IEEE semantics are the C default, and the
 *   scatter loops carry a loop-dependent store that blocks
 *   autovectorization of the adds.
 *
 * The batched (_many) variants process r right-hand-side columns per
 * item, matching np.add.at's row-vector accumulation: per column the
 * item order is identical to the single-RHS kernel, so batched results
 * equal sequential single applies bitwise.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))

/* Bumped whenever an exported signature changes; the loader refuses a
 * cached .so whose ABI does not match (stale-cache guard). */
EXPORT int64_t repro_native_abi(void) { return 2; }

/* acc[idx[i]] += vals[i] * x[cols[i]]  — the fused expand/compute
 * inner loop: gather x, multiply by the nonzero value, scatter-add
 * into the group (or output-row) accumulator. */
EXPORT void repro_gather_mul_scatter(
    int64_t n,
    const double *restrict vals,
    const int64_t *restrict cols,
    const double *restrict x,
    const int64_t *restrict idx,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[idx[i]] += vals[i] * x[cols[i]];
}

/* acc[idx[i]] += vals[i]  — the group-sum / fold scatter
 * (np.bincount(idx, weights=vals) / np.add.at element order). */
EXPORT void repro_scatter_add(
    int64_t n,
    const int64_t *restrict idx,
    const double *restrict vals,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++)
        acc[idx[i]] += vals[i];
}

/* Batched repro_gather_mul_scatter over r columns:
 * acc[idx[i]*r + j] += vals[i] * x[cols[i]*r + j] for j in [0, r). */
EXPORT void repro_gather_mul_scatter_many(
    int64_t n,
    int64_t r,
    const double *restrict vals,
    const int64_t *restrict cols,
    const double *restrict x,
    const int64_t *restrict idx,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++) {
        const double v = vals[i];
        const double *restrict xrow = x + cols[i] * r;
        double *restrict arow = acc + idx[i] * r;
        for (int64_t j = 0; j < r; j++)
            arow[j] += v * xrow[j];
    }
}

/* Batched repro_scatter_add over r columns:
 * acc[idx[i]*r + j] += vals[i*r + j]. */
EXPORT void repro_scatter_add_many(
    int64_t n,
    int64_t r,
    const int64_t *restrict idx,
    const double *restrict vals,
    double *restrict acc)
{
    for (int64_t i = 0; i < n; i++) {
        const double *restrict vrow = vals + i * r;
        double *restrict arow = acc + idx[i] * r;
        for (int64_t j = 0; j < r; j++)
            arow[j] += vrow[j];
    }
}
