// bench_e2e — one workload of the end-to-end benchmark per process.
//
//   bench_e2e --workload W --seed S [--seconds N] [--threads N]
//             [--trace DIR] [--check] [--smoke]
//
// Workloads: statmodel_sweep, lane_sim, rare_event, serve_mixed. Prints
// one gcdr.e2e.run/v1 JSON line on stdout; bench/e2e/run.py turns it
// into metrics. --trace DIR adds a traced phase after the untraced one
// and writes DIR/<workload>.trace.json and DIR/<workload>.layers.json.
// --check exits 1 when any operation failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload W --seed S [--seconds N] "
                 "[--threads N] [--trace DIR] [--check] [--smoke]\n");
}

}  // namespace

int main(int argc, char** argv) {
    gcdr::e2e::Options opts;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        const bool has_value = i + 1 < argc;
        if (std::strcmp(a, "--workload") == 0 && has_value) {
            opts.workload = argv[++i];
        } else if (std::strcmp(a, "--seed") == 0 && has_value) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(a, "--threads") == 0 && has_value) {
            opts.threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(a, "--trace") == 0 && has_value) {
            opts.trace_dir = argv[++i];
        } else if (std::strcmp(a, "--work-dir") == 0 && has_value) {
            opts.work_dir = argv[++i];
        } else if (std::strcmp(a, "--check") == 0) {
            opts.check = true;
        } else if (std::strcmp(a, "--smoke") == 0) {
            opts.smoke = true;
        } else {
            std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", a);
            usage();
            return 2;
        }
    }
    if (opts.workload.empty() || opts.threads == 0 || !(opts.seconds >= 0)) {
        usage();
        return 2;
    }
    // Never more load threads than the machine has cores.
    const std::size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    if (opts.threads > cores) opts.threads = cores;
    try {
        return gcdr::e2e::run_benchmark(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
