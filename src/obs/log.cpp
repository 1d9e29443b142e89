#include "obs/log.hpp"

#include <cctype>
#include <cinttypes>
#include <ctime>

#include "obs/json.hpp"

namespace gcdr::obs {

std::string format_utc_rfc3339(std::chrono::system_clock::time_point tp) {
    const std::time_t t = std::chrono::system_clock::to_time_t(tp);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

namespace {

std::string format_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

const char* log_level_name(LogLevel level) {
    switch (level) {
        case LogLevel::kTrace: return "trace";
        case LogLevel::kDebug: return "debug";
        case LogLevel::kInfo: return "info";
        case LogLevel::kWarn: return "warn";
        case LogLevel::kError: return "error";
        case LogLevel::kOff: return "off";
    }
    return "unknown";
}

bool parse_log_level(std::string_view text, LogLevel& out) {
    std::string lower;
    lower.reserve(text.size());
    for (char c : text) {
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    if (lower == "trace") out = LogLevel::kTrace;
    else if (lower == "debug") out = LogLevel::kDebug;
    else if (lower == "info") out = LogLevel::kInfo;
    else if (lower == "warn" || lower == "warning") out = LogLevel::kWarn;
    else if (lower == "error") out = LogLevel::kError;
    else if (lower == "off" || lower == "none") out = LogLevel::kOff;
    else return false;
    return true;
}

std::string LogField::value_text() const {
    switch (kind) {
        case Kind::kString: return str;
        case Kind::kDouble: return format_double(d);
        case Kind::kInt: return std::to_string(i);
        case Kind::kUint: return std::to_string(u);
        case Kind::kBool: return b ? "true" : "false";
    }
    return {};
}

std::string StderrSink::format(const LogRecord& rec) {
    std::string out = format_utc_rfc3339(rec.wall);
    out += ' ';
    // Fixed-width uppercase level tag so columns line up across
    // severities (the JSONL sink keeps the lowercase names).
    char tag[8];
    std::snprintf(tag, sizeof tag, "%-5s", log_level_name(rec.level));
    for (char* p = tag; *p != '\0'; ++p) {
        *p = static_cast<char>(std::toupper(static_cast<unsigned char>(*p)));
    }
    out += tag;
    out += ' ';
    out += rec.component;
    out += ": ";
    out += rec.message;
    for (const LogField& f : rec.fields) {
        out += ' ';
        out += f.key;
        out += '=';
        out += f.value_text();
    }
    if (rec.suppressed > 0) {
        out += " suppressed=";
        out += std::to_string(rec.suppressed);
    }
    return out;
}

void StderrSink::write(const LogRecord& rec) {
    const std::string line = format(rec);
    // One fputs per record: lines from concurrent loggers (the sink mutex
    // already serializes us) and from foreign fprintf callers never
    // interleave mid-line.
    std::fprintf(stream_, "%s\n", line.c_str());
}

std::string JsonlFileSink::format(const LogRecord& rec) {
    JsonWriter w(JsonWriter::kCompact);
    w.begin_object();
    w.key("schema").value("gcdr.log/v1");
    w.key("utc").value(format_utc_rfc3339(rec.wall));
    w.key("level").value(log_level_name(rec.level));
    w.key("component").value(rec.component);
    w.key("message").value(rec.message);
    if (rec.suppressed > 0) w.key("suppressed").value(rec.suppressed);
    if (!rec.fields.empty()) {
        w.key("fields").begin_object();
        for (const LogField& f : rec.fields) {
            w.key(f.key);
            switch (f.kind) {
                case LogField::Kind::kString: w.value(f.str); break;
                case LogField::Kind::kDouble: w.value(f.d); break;
                case LogField::Kind::kInt: w.value(f.i); break;
                case LogField::Kind::kUint: w.value(f.u); break;
                case LogField::Kind::kBool: w.value(f.b); break;
            }
        }
        w.end_object();
    }
    w.end_object();
    return w.str();
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "a")) {}

JsonlFileSink::~JsonlFileSink() {
    if (file_) std::fclose(file_);
}

void JsonlFileSink::write(const LogRecord& rec) {
    if (!file_) return;
    const std::string line = format(rec);
    std::fprintf(file_, "%s\n", line.c_str());
    std::fflush(file_);  // post-mortems must survive a crash right after
}

Logger::Logger() = default;

Logger& Logger::global() {
    static Logger logger;
    return logger;
}

void Logger::add_sink(std::shared_ptr<LogSink> sink) {
    std::lock_guard<std::mutex> lock(mu_);
    default_stderr_ = false;
    if (sink) sinks_.push_back(std::move(sink));
}

void Logger::clear_sinks() {
    std::lock_guard<std::mutex> lock(mu_);
    default_stderr_ = false;
    sinks_.clear();
}

void Logger::reset() {
    std::lock_guard<std::mutex> lock(mu_);
    sinks_.clear();
    default_stderr_ = true;
    level_.store(static_cast<int>(LogLevel::kInfo),
                 std::memory_order_relaxed);
}

void Logger::log(LogRecord rec) {
    if (!enabled(rec.level)) return;
    rec.wall = std::chrono::system_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (default_stderr_) {
        static StderrSink stderr_sink;
        stderr_sink.write(rec);
        return;
    }
    for (auto& sink : sinks_) sink->write(rec);
}

void Logger::log(LogLevel level, std::string component, std::string message,
                 std::vector<LogField> fields, std::uint64_t suppressed) {
    LogRecord rec;
    rec.level = level;
    rec.component = std::move(component);
    rec.message = std::move(message);
    rec.fields = std::move(fields);
    rec.suppressed = suppressed;
    log(std::move(rec));
}

bool LogRateGate::admit(std::uint64_t* suppressed) {
    const auto now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    std::int64_t next = next_ns_.load(std::memory_order_relaxed);
    do {
        if (now_ns < next) {
            dropped_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
    } while (!next_ns_.compare_exchange_weak(next, now_ns + interval_ns_,
                                             std::memory_order_relaxed));
    if (suppressed) {
        *suppressed = dropped_.exchange(0, std::memory_order_relaxed);
    }
    return true;
}

void log_debug(std::string component, std::string message,
               std::vector<LogField> fields) {
    Logger::global().log(LogLevel::kDebug, std::move(component),
                         std::move(message), std::move(fields));
}

void log_info(std::string component, std::string message,
              std::vector<LogField> fields) {
    Logger::global().log(LogLevel::kInfo, std::move(component),
                         std::move(message), std::move(fields));
}

void log_warn(std::string component, std::string message,
              std::vector<LogField> fields) {
    Logger::global().log(LogLevel::kWarn, std::move(component),
                         std::move(message), std::move(fields));
}

void log_error(std::string component, std::string message,
               std::vector<LogField> fields) {
    Logger::global().log(LogLevel::kError, std::move(component),
                         std::move(message), std::move(fields));
}

}  // namespace gcdr::obs
