/**
 * @file
 * hima_e2e: end-to-end serving benchmark of the HiMA DNC stack.
 *
 *   hima_e2e --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
 *            [--out RESULT.json] [--trace-out TRACE.json] [--run-dir DIR]
 *   hima_e2e --smoke [--run-dir DIR]
 *   hima_e2e --compare BASE.json NEW.json
 *
 * A run prints its metrics by name with units; its last stdout line is
 * one JSON object {"correct", "attempted", "failed", "metrics"} holding
 * the end-to-end metrics, or the per-layer metrics when traced. See
 * README.md for the workloads and every metric's definition.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compare.h"
#include "serve.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: hima_e2e --workload NAME [--seed N] [--seconds S] "
                 "[--trace [0|1]] [--out FILE] [--trace-out FILE] "
                 "[--run-dir DIR]\n"
                 "       hima_e2e --smoke [--run-dir DIR]\n"
                 "       hima_e2e --compare BASE.json NEW.json\n"
                 "workloads:");
    for (const std::string &name : hima::e2e::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hima::e2e;

    Options options;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--compare") {
            if (i + 2 >= argc)
                return usage();
            return compareFiles(argv[i + 1], argv[i + 2]);
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--trace") {
            options.trace = true;
            if (hasValue && (std::strcmp(argv[i + 1], "0") == 0 ||
                             std::strcmp(argv[i + 1], "1") == 0))
                options.trace = argv[++i][0] == '1';
        } else if (arg == "--workload" && hasValue) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--out" && hasValue) {
            options.out = argv[++i];
        } else if (arg == "--trace-out" && hasValue) {
            options.traceOut = argv[++i];
        } else if (arg == "--run-dir" && hasValue) {
            options.runDir = argv[++i];
        } else {
            return usage();
        }
    }
    if (smoke)
        return runSmoke(options);
    if (options.workload.empty() || !(options.seconds > 0.0))
        return usage();
    if (options.trace && options.traceOut.empty())
        options.traceOut = options.runDir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".json";
    return runWorkload(options);
}
