/**
 * @file
 * hima_e2e --compare: regression verdicts between two aggregate result
 * files (the BASELINE.json format written by collect.py).
 */

#ifndef HIMA_BENCH_E2E_COMPARE_H
#define HIMA_BENCH_E2E_COMPARE_H

#include <string>

namespace hima::e2e {

/**
 * For each workload x end-to-end metric present in both files, print both
 * medians and IQRs, the delta, the bound and a verdict (better, same,
 * worse, or unresolved when either side's IQR exceeds the bound), with
 * each side's host steal share beside it. Bounds and directions come
 * from the base file.
 *
 * @return 0, or 1 when any metric regressed past its bound (2 when a
 *         file cannot be read)
 */
int compareFiles(const std::string &basePath, const std::string &newPath);

} // namespace hima::e2e

#endif // HIMA_BENCH_E2E_COMPARE_H
