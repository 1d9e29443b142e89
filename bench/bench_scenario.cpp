// Declarative-scenario runner: load a gcdr.scenario/v1 config
// (--scenario FILE), validate it, compile it onto the existing object
// graph, execute its tasks and print each task's tables. The committed
// scenarios are the only specification of the paper's Fig 8
// (fig8_timing.json), Fig 9 (fig9_ber_sj.json), Fig 10
// (fig10_ber_freqoff.json), Fig 17 (fig17_ber_improved.json) and the
// §2.2 comparison against loop CDRs (baseline_jtol.json).
//
//   bench_scenario --scenario scenarios/fig9_ber_sj.json --json out.json
//   bench_scenario --fuzz-seed 42        # scenario::random_valid(42)
//   bench_scenario --scenario f.json --print-resolved   # canonical form
//
// Tables are printed from each task's TaskResult and the document, never
// from the metrics registry, and the pool banner goes to stderr: stdout
// is identical for every --threads value.
//
// --check exits nonzero when any task gate fails (differential
// disagreement, unlocked netlist channel). --flight-recorder creates an
// obs::FlightRecorder (dumps in the current directory) for the tasks'
// receivers and margin models.
// Validation failures print every diagnostic (file:line:col) and exit 2.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "masks/jtol_mask.hpp"
#include "obs/flight_recorder.hpp"
#include "scenario/compile.hpp"
#include "scenario/fuzz.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario_doc.hpp"
#include "util/hash.hpp"
#include "util/units.hpp"

using namespace gcdr;

namespace {

const std::vector<double>& series(const scenario::TaskResult& r,
                                  std::string_view name) {
    for (const auto& [key, values] : r.series) {
        if (key == name) return values;
    }
    throw std::logic_error("task result has no series " + std::string(name));
}

std::string format_g(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

// The fewest decimals at which %f gives every value back exactly, so a
// header never prints 0.125 as 0.12.
int round_trip_decimals(const std::vector<double>& values) {
    for (int d = 0; d < 17; ++d) {
        const bool exact =
            std::all_of(values.begin(), values.end(), [d](double v) {
                char buf[400];
                std::snprintf(buf, sizeof buf, "%.*f", d, v);
                return std::strtod(buf, nullptr) == v;
            });
        if (exact) return d;
    }
    return 17;
}

// Rows are axis 0, columns the remaining axes in row-major order. Each
// column axis heads the columns with its own row of values, in the
// title's order; the last header row carries the row axis's label.
void print_surface(const scenario::TaskSpec& task,
                   const scenario::TaskResult& r) {
    const std::vector<double>& ber = series(r, "ber");
    const exec::SweepAxis& rows = task.axes[0];
    const std::size_t cols = ber.size() / rows.values.size();
    std::string title =
        task.prefix + ": log10(BER) surface (rows: " + rows.name;
    for (std::size_t a = 1; a < task.axes.size(); ++a) {
        title += (a == 1 ? ", cols: " : " x ") + task.axes[a].name;
    }
    bench::section(title + ")");
    // The normalized SJ frequency keeps the JTOL tables' "f/fd" label.
    const char* row_label =
        rows.name == "sj_freq_norm" ? "f/fd" : rows.name.c_str();
    if (task.axes.size() == 1) std::printf("%10s\n", row_label);
    std::size_t stride = cols;  // columns per step of axis a
    for (std::size_t a = 1; a < task.axes.size(); ++a) {
        const std::vector<double>& values = task.axes[a].values;
        stride /= values.size();
        const int decimals = round_trip_decimals(values);
        std::printf("%10s", a + 1 == task.axes.size() ? row_label : "");
        for (std::size_t c = 0; c < cols; ++c) {
            std::printf(" %6.*f", decimals,
                        values[(c / stride) % values.size()]);
        }
        std::printf("\n");
    }
    for (std::size_t i = 0; i < rows.values.size(); ++i) {
        std::printf("%10.2e", rows.values[i]);
        for (std::size_t c = 0; c < cols; ++c) {
            std::printf(" %s", bench::log_ber(ber[i * cols + c]).c_str());
        }
        std::printf("\n");
    }
}

void print_jtol_contour(const scenario::TaskSpec& task,
                        const scenario::TaskResult& r) {
    const std::vector<double>& tol = series(r, "jtol_uipp");
    const bool masked = task.jtol.mask != "none";
    const auto mask = masks::JtolMask::infiniband_2g5();
    bench::section(task.prefix + ": JTOL contour at BER = " +
                   format_g(task.jtol.ber_target) +
                   (masked ? " vs InfiniBand mask" : ""));
    std::printf("%10s %14s %12s", "f/fd", "freq [Hz]", "JTOL [UIpp]");
    if (masked) std::printf(" %12s %6s", "mask [UIpp]", "OK?");
    std::printf("\n");
    for (std::size_t i = 0; i < tol.size(); ++i) {
        const double f_hz = task.jtol.freqs[i] * kPaperRate.bits_per_second();
        std::printf("%10.2e %14.4g %12.3f", task.jtol.freqs[i], f_hz, tol[i]);
        if (masked) {
            const double need = mask.amplitude_at(f_hz);
            std::printf(" %12.3f %6s", need, tol[i] >= need ? "yes" : "NO");
        }
        std::printf("\n");
    }
}

void print_architecture_jtol(const scenario::TaskSpec& task,
                             const scenario::TaskResult& r) {
    const std::vector<double>& go = series(r, "jtol_gated_osc_uipp");
    const std::vector<double>& bb = series(r, "jtol_bang_bang_uipp");
    const std::vector<double>& pi = series(r, "jtol_phase_int_uipp");
    const auto mask = masks::JtolMask::infiniband_2g5();
    bench::section(task.prefix + ": jitter tolerance [UIpp] at BER " +
                   format_g(task.ber_target) + " (cap " +
                   format_g(task.amp_cap) + " UIpp)");
    std::printf("%10s %12s %12s %12s %12s\n", "f/fd", "gated-osc",
                "bang-bang", "phase-int", "IB mask");
    for (std::size_t i = 0; i < go.size(); ++i) {
        const double fn = task.jtol_freqs[i];
        std::printf("%10.2e %12.3f %12.3f %12.3f %12.3f\n", fn, go[i], bb[i],
                    pi[i],
                    mask.amplitude_at(fn * kPaperRate.bits_per_second()));
    }
}

void print_offsets(const scenario::TaskSpec& task,
                   const scenario::TaskResult& r) {
    const std::vector<double>& gated = series(r, "offset_gated_osc_ber");
    const std::vector<double>& bb = series(r, "offset_bang_bang_errors");
    const std::vector<double>& pi = series(r, "offset_phase_int_errors");
    bench::section(task.prefix +
                   ": frequency-offset sensitivity (no SJ), errors per " +
                   std::to_string(task.offset_bits) + " bits");
    std::printf("%10s %12s %12s %12s\n", "offset", "gated-osc*",
                "bang-bang", "phase-int");
    for (std::size_t i = 0; i < gated.size(); ++i) {
        std::printf("%9.2f%% %12s %12.0f %12.0f\n", task.offsets[i] * 100,
                    bench::log_ber(gated[i]).c_str(), bb[i], pi[i]);
    }
    std::printf("* statistical-model log10(BER), not an error count.\n");
}

// Netlist, health-probe and differential tasks print their own per-lane
// and per-check lines while they run (ScenarioContext::verbose).
void print_tables(const scenario::TaskSpec& task,
                  const scenario::TaskResult& r) {
    if (task.kind == scenario::TaskSpec::Kind::kBerSurface) {
        print_surface(task, r);
        if (task.has_jtol) print_jtol_contour(task, r);
    } else if (task.kind == scenario::TaskSpec::Kind::kBaselineJtol) {
        print_architecture_jtol(task, r);
        if (!task.offsets.empty()) print_offsets(task, r);
    }
}

}  // namespace

int main(int argc, char** argv) {
    auto opts = bench::Options::parse(argc, argv);
    std::string scenario_path;
    bool flight_recorder = false;
    bool check = false;
    bool print_resolved = false;
    bool have_fuzz_seed = false;
    std::uint64_t fuzz_seed = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
            scenario_path = argv[++i];
        } else if (std::strcmp(argv[i], "--flight-recorder") == 0) {
            flight_recorder = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--print-resolved") == 0) {
            print_resolved = true;
        } else if (std::strcmp(argv[i], "--fuzz-seed") == 0) {
            have_fuzz_seed = true;
            fuzz_seed = bench::uint_flag(argc, argv, i);
        } else {
            return bench::unknown_flag(argv[i]);
        }
    }
    if (scenario_path.empty() && !have_fuzz_seed) {
        std::fprintf(stderr,
                     "usage: bench_scenario --scenario FILE [--check] "
                     "[--print-resolved] [--flight-recorder] | "
                     "--fuzz-seed N\n");
        return 2;
    }

    scenario::ScenarioDoc doc;
    std::string source_name;
    if (have_fuzz_seed) {
        doc = scenario::random_valid(fuzz_seed);
        source_name = "<fuzz:" + std::to_string(fuzz_seed) + ">";
    } else {
        std::vector<scenario::Diagnostic> diags;
        if (!scenario::scenario_from_file(scenario_path, doc, diags)) {
            for (const auto& d : diags) {
                std::fprintf(stderr, "%s\n", d.render().c_str());
            }
            std::fprintf(stderr, "%zu diagnostic(s); scenario rejected\n",
                         diags.size());
            return 2;
        }
        source_name = scenario_path;
    }
    const std::uint64_t hash = scenario::scenario_hash(doc);
    const std::string hash_hex = util::hash_hex(hash);
    if (print_resolved) {
        std::printf("%s\n", scenario::resolved_json(doc).c_str());
        return 0;
    }

    bench::RunReport report(opts, "scenario_" + doc.name,
                            doc.title.empty() ? "declarative scenario run"
                                              : doc.title);
    report.set_scenario(source_name, hash_hex);
    auto& reg = report.metrics();
    auto& pool = report.pool();
    if (!opts.quiet) {
        bench::header("Scenario",
                      doc.name + " (config " + hash_hex + ")");
        // stderr: the lane count is the one line that differs between
        // --threads settings, and stdout must not.
        std::fprintf(stderr, "[%zu task(s), pool: %zu lane(s), seed %llu]\n",
                     doc.tasks.size(), pool.size(),
                     static_cast<unsigned long long>(report.seed()));
    }

    std::unique_ptr<obs::FlightRecorder> flight;
    if (flight_recorder) flight = std::make_unique<obs::FlightRecorder>();
    scenario::ScenarioContext ctx;
    ctx.metrics = &reg;
    ctx.pool = &pool;
    ctx.seed = report.seed();
    ctx.verbose = !opts.quiet;
    ctx.flight = flight.get();
    const scenario::ScenarioResult result =
        scenario::run_scenario(doc, ctx);
    for (const auto& t : result.tasks) {
        // A health_probe task's final snapshot becomes the report's
        // "health" block.
        if (!t.health_json.empty()) report.set_health_json(t.health_json);
    }

    // No scenario.* summary gauges: the report carries the tasks' own
    // metrics only (bench_diff gates on gauge presence). The outcome
    // lives in --check's exit code and the report's "run" provenance.
    if (!opts.quiet) {
        for (std::size_t i = 0; i < doc.tasks.size(); ++i) {
            print_tables(doc.tasks[i], result.tasks[i]);
        }
        bench::section("result");
        for (const auto& t : result.tasks) {
            std::printf("%-12s %-14s %s\n", t.prefix.c_str(),
                        t.kind.c_str(), t.ok ? "ok" : "FAILED");
        }
        std::printf("\nscenario %s: %s\n", doc.name.c_str(),
                    result.ok ? "all task gates passed"
                              : "TASK GATE FAILED");
    }
    const bool report_ok = report.write();
    if (check && !result.ok) return 1;
    return report_ok ? 0 : 1;
}
