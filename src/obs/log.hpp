#pragma once
// Structured, leveled logging for the operational layer (the future
// serving daemon and today's bench/CI loop). Design rules, matching the
// rest of obs/:
//
//   - zero cost when disabled: the level check is one relaxed atomic
//     load; a suppressed call formats nothing and takes no lock,
//   - pluggable sinks: human-readable stderr text (the default — the raw
//     std::fprintf(stderr, ...) sites this replaces keep printing) and an
//     append-mode JSONL file (one gcdr.log/v1 object per line) for
//     machine consumption; sinks can be stacked,
//   - per-call-site rate limiting: a static LogRateGate at the call site
//     (or the GCDR_LOG_EVERY_* macros) admits at most one record per
//     interval and folds the drop count into the next admitted record's
//     "suppressed" field, so a hot loop cannot flood a sink,
//   - thread-safe: records are fully formatted on the calling thread and
//     handed to sinks under one mutex, so concurrent lines never
//     interleave mid-record.
//
// Records are structured: a component (dotted path, same convention as
// metric names), a message, and optional typed key=value fields. The
// text sink renders fields as trailing `key=value` tokens; the JSONL
// sink preserves their types.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gcdr::obs {

enum class LogLevel : int {
    kTrace = 0,
    kDebug = 1,
    kInfo = 2,
    kWarn = 3,
    kError = 4,
    kOff = 5,  ///< threshold only; records are never emitted at kOff
};

/// Stable lower-case name ("trace".."error", "off").
[[nodiscard]] const char* log_level_name(LogLevel level);

/// RFC-3339 UTC timestamp ("2026-08-07T12:00:00Z"), second resolution —
/// the log sinks' record stamp.
[[nodiscard]] std::string format_utc_rfc3339(
    std::chrono::system_clock::time_point tp);

/// Parse "trace|debug|info|warn|warning|error|off" (case-insensitive).
/// Returns false (and leaves `out` untouched) on anything else.
[[nodiscard]] bool parse_log_level(std::string_view text, LogLevel& out);

/// One typed key=value attachment. Kept simple on purpose: a tagged
/// union over the types the JSONL sink can serialize losslessly.
struct LogField {
    enum class Kind { kString, kDouble, kInt, kUint, kBool };

    std::string key;
    Kind kind = Kind::kString;
    std::string str;       ///< kString
    double d = 0.0;        ///< kDouble
    std::int64_t i = 0;    ///< kInt
    std::uint64_t u = 0;   ///< kUint
    bool b = false;        ///< kBool

    LogField(std::string k, std::string v)
        : key(std::move(k)), kind(Kind::kString), str(std::move(v)) {}
    LogField(std::string k, const char* v)
        : key(std::move(k)), kind(Kind::kString), str(v) {}
    LogField(std::string k, double v)
        : key(std::move(k)), kind(Kind::kDouble), d(v) {}
    LogField(std::string k, std::int64_t v)
        : key(std::move(k)), kind(Kind::kInt), i(v) {}
    LogField(std::string k, int v)
        : key(std::move(k)), kind(Kind::kInt), i(v) {}
    LogField(std::string k, std::uint64_t v)
        : key(std::move(k)), kind(Kind::kUint), u(v) {}
    LogField(std::string k, bool v)
        : key(std::move(k)), kind(Kind::kBool), b(v) {}

    /// The value rendered as text (how the stderr sink prints it).
    [[nodiscard]] std::string value_text() const;
};

struct LogRecord {
    LogLevel level = LogLevel::kInfo;
    std::chrono::system_clock::time_point wall{};  ///< stamped by Logger
    std::string component;  ///< dotted path, e.g. "obs.flight"
    std::string message;
    std::vector<LogField> fields;
    /// Records dropped at this call site by rate limiting since the last
    /// admitted one (0 = none).
    std::uint64_t suppressed = 0;
};

/// Sink interface. write() is always called under the logger's sink
/// mutex, so implementations need no locking of their own unless they
/// share state with non-logger code.
class LogSink {
public:
    virtual ~LogSink() = default;
    virtual void write(const LogRecord& rec) = 0;
};

/// Human-readable text to a FILE* (default stderr):
///   2026-08-07T12:00:00Z WARN  obs.flight: cannot open dump (path=...)
class StderrSink : public LogSink {
public:
    explicit StderrSink(std::FILE* stream = stderr) : stream_(stream) {}
    void write(const LogRecord& rec) override;

    /// The full formatted line (exposed for tests).
    [[nodiscard]] static std::string format(const LogRecord& rec);

private:
    std::FILE* stream_;
};

/// One compact JSON object per line, schema gcdr.log/v1:
///   {"schema":"gcdr.log/v1","utc":"...","level":"warn",
///    "component":"obs.flight","message":"...","suppressed":0,
///    "fields":{"path":"..."}}
/// Opened in append mode so several runs can share one file. A file that
/// cannot be opened leaves ok() false and prints nothing: the owner
/// reports it (bench::Options exits 2 naming --log-json).
class JsonlFileSink : public LogSink {
public:
    explicit JsonlFileSink(const std::string& path);
    ~JsonlFileSink() override;
    [[nodiscard]] bool ok() const { return file_ != nullptr; }
    void write(const LogRecord& rec) override;

    /// The serialized line, without the trailing newline (for tests).
    [[nodiscard]] static std::string format(const LogRecord& rec);

private:
    std::FILE* file_ = nullptr;
};

/// Process-wide logger. Formatting happens on the calling thread; sink
/// dispatch takes one mutex. The default configuration (no explicit
/// sinks) writes text to stderr at kInfo, which preserves the behavior
/// of the raw fprintf sites the obs/ subsystems used before.
class Logger {
public:
    [[nodiscard]] static Logger& global();

    void set_level(LogLevel level) {
        level_.store(static_cast<int>(level), std::memory_order_relaxed);
    }
    [[nodiscard]] LogLevel level() const {
        return static_cast<LogLevel>(
            level_.load(std::memory_order_relaxed));
    }
    /// The hot-path guard: one relaxed load + compare.
    [[nodiscard]] bool enabled(LogLevel level) const {
        return static_cast<int>(level) >=
                   level_.load(std::memory_order_relaxed) &&
               level != LogLevel::kOff;
    }

    /// Append a sink (keeps the existing ones, including the implicit
    /// stderr default — call clear_sinks() first for exclusive routing).
    void add_sink(std::shared_ptr<LogSink> sink);
    /// Drop all sinks, including the implicit stderr default. With no
    /// sinks installed afterwards, records are discarded (tests use this
    /// to keep output clean).
    void clear_sinks();
    /// Restore the default configuration: stderr text sink at kInfo.
    void reset();

    /// Emit (level is re-checked, so callers may skip the guard).
    void log(LogRecord rec);
    void log(LogLevel level, std::string component, std::string message,
             std::vector<LogField> fields = {},
             std::uint64_t suppressed = 0);

private:
    Logger();

    std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
    std::mutex mu_;
    std::vector<std::shared_ptr<LogSink>> sinks_;
    bool default_stderr_ = true;  ///< no explicit sinks yet -> stderr
};

/// Per-call-site token gate: admits one record per `min_interval_s`,
/// counting the suppressed calls in between. Lock-free (one CAS per
/// admitted record, one relaxed fetch_add per suppressed one); intended
/// to live in a function-local static at the call site.
class LogRateGate {
public:
    explicit LogRateGate(double min_interval_s)
        : interval_ns_(static_cast<std::int64_t>(min_interval_s * 1e9)) {}

    /// True when the caller should emit now. On admission, *suppressed
    /// receives the number of calls dropped since the last admission.
    [[nodiscard]] bool admit(std::uint64_t* suppressed);

private:
    std::atomic<std::int64_t> next_ns_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::int64_t interval_ns_;
};

// Convenience wrappers for the common severities.
void log_debug(std::string component, std::string message,
               std::vector<LogField> fields = {});
void log_info(std::string component, std::string message,
              std::vector<LogField> fields = {});
void log_warn(std::string component, std::string message,
              std::vector<LogField> fields = {});
void log_error(std::string component, std::string message,
               std::vector<LogField> fields = {});

}  // namespace gcdr::obs

/// Rate-limited structured logging at a specific call site: at most one
/// record per `interval_s` seconds from THIS macro expansion; drops are
/// folded into the next admitted record. The level guard runs first, so
/// a disabled level costs one atomic load.
#define GCDR_LOG_EVERY(level_, interval_s, component_, message_, ...)       \
    do {                                                                    \
        if (::gcdr::obs::Logger::global().enabled(level_)) {                \
            static ::gcdr::obs::LogRateGate gcdr_log_gate_((interval_s));   \
            std::uint64_t gcdr_log_suppressed_ = 0;                         \
            if (gcdr_log_gate_.admit(&gcdr_log_suppressed_)) {              \
                ::gcdr::obs::Logger::global().log(                          \
                    (level_), (component_), (message_),                     \
                    {__VA_ARGS__}, gcdr_log_suppressed_);                   \
            }                                                               \
        }                                                                   \
    } while (0)
