/**
 * @file
 * The end-to-end serving benchmark: four named workloads served through
 * the public Router, measured from outside (see README.md).
 */

#ifndef HIMA_BENCH_E2E_SERVE_H
#define HIMA_BENCH_E2E_SERVE_H

#include <cstdint>
#include <string>
#include <vector>

namespace hima::e2e {

/** One invocation's settings (command-line flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;      ///< episode choice, lengths, tokens
    double seconds = 20.0;       ///< measured window
    bool trace = false;          ///< install the layer probes
    std::string out;             ///< detailed result JSON (optional)
    std::string traceOut;        ///< Chrome trace path (traced runs)
    std::string runDir = ".";    ///< where Unix socket endpoints live
};

/** The workload names, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/**
 * Serve one workload and print its metrics; the last stdout line is the
 * result JSON. Returns the process exit code (nonzero when an output
 * failed the bit-exact check).
 */
int runWorkload(const Options &options);

/**
 * Every workload untraced and traced with a short window, correctness
 * gate on: the entry point for sanitizer builds. Returns the exit code.
 */
int runSmoke(const Options &options);

} // namespace hima::e2e

#endif // HIMA_BENCH_E2E_SERVE_H
