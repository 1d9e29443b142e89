// gcdr_served — the simulation-as-a-service daemon.
//
//   gcdr_served [--port N] [--port-file PATH] [--cache PATH]
//               [--max-entries N] [--workers N] [--job-threads N]
//               [--log-level LEVEL]
//
// Binds 127.0.0.1 only (this is a lab-bench tool, not an internet
// service). With --port 0 (default) the kernel picks a free port; the
// chosen port is printed on stdout ("listening on 127.0.0.1:PORT") and,
// with --port-file, written to a file scripts can poll for readiness.
// SIGINT/SIGTERM (or POST /v1/shutdown) drain and exit 0. Integer
// values are plain decimal (util::parse_uint): --port at most 65535,
// --workers and --job-threads at most util::kMaxThreadCount; a missing
// or bad value exits 2 naming the flag before anything binds.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "obs/log.hpp"
#include "serve/server.hpp"
#include "util/parse_uint.hpp"

namespace {

std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--port-file PATH] [--cache PATH]\n"
        "          [--max-entries N] [--workers N] [--job-threads N]\n"
        "          [--log-level trace|debug|info|warn|error|off]\n",
        argv0);
}

}  // namespace

int main(int argc, char** argv) {
    using gcdr::serve::ServeServer;
    using gcdr::serve::ServerOptions;

    ServerOptions opts;
    opts.cache_path = "serve_cache.jsonl";
    std::string port_file;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
        auto need = [&](const char* flag) -> const char* {
            if (!next) {
                std::fprintf(stderr, "%s: missing value\n", flag);
                std::exit(2);
            }
            ++i;
            return next;
        };
        // A decimal integer in [0, max], or exit 2 naming the flag before
        // anything binds or spawns.
        auto need_uint = [&](const char* flag, std::uint64_t max) {
            const char* text = need(flag);
            if (const auto value = gcdr::util::parse_uint(text, max)) {
                return *value;
            }
            std::fprintf(stderr, "%s: want an integer in [0, %llu], got "
                         "'%s'\n", flag, static_cast<unsigned long long>(max),
                         text);
            std::exit(2);
        };
        if (arg == "--port") {
            opts.port = static_cast<std::uint16_t>(need_uint("--port", 65535));
        } else if (arg == "--port-file") {
            port_file = need("--port-file");
        } else if (arg == "--cache") {
            opts.cache_path = need("--cache");
        } else if (arg == "--max-entries") {
            opts.cache_max_entries = need_uint(
                "--max-entries", std::numeric_limits<std::size_t>::max());
        } else if (arg == "--workers") {
            opts.workers =
                need_uint("--workers", gcdr::util::kMaxThreadCount);
        } else if (arg == "--job-threads") {
            opts.job_threads =
                need_uint("--job-threads", gcdr::util::kMaxThreadCount);
        } else if (arg == "--log-level") {
            gcdr::obs::LogLevel level{};
            const char* text = need("--log-level");
            if (!gcdr::obs::parse_log_level(text, level)) {
                std::fprintf(stderr,
                             "--log-level: want trace|debug|info|warn|"
                             "error|off, got '%s'\n",
                             text);
                return 2;
            }
            gcdr::obs::Logger::global().set_level(level);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }

    ServeServer server(opts);
    if (!server.start()) {
        std::fprintf(stderr, "failed to bind 127.0.0.1:%u\n",
                     static_cast<unsigned>(opts.port));
        return 1;
    }
    std::printf("listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    if (!port_file.empty()) {
        if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
            std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
            return 1;
        }
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    while (!g_signalled && !server.shutdown_requested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop();
    return 0;
}
