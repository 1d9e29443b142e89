#pragma once
// Minimal HTTP/1.1 over POSIX sockets — the daemon's wire layer and the
// matching client the load generator / tests use. Scope is deliberately
// small (the repo's no-external-deps rule): request line + headers +
// Content-Length bodies in, fixed-length or chunked responses out,
// keep-alive connections, IPv4 loopback by default. Not a general web
// server: no TLS, no request pipelining, no chunked *requests*.
//
// Threading model: one acceptor thread (poll with a short timeout, so
// stop() is prompt) plus one thread per live connection. Connection
// threads block in recv with a receive timeout and re-check the stop
// flag, so shutdown never hangs on an idle keep-alive connection. A
// connection thread marks itself done as it exits, and the acceptor joins
// the done ones before it starts the next, so a thread and its stack live
// only as long as their connection. The handler runs on the connection
// thread; it may block (the /v1/run endpoint waits for a worker to finish
// the job).

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace gcdr::serve {

struct HttpRequest {
    std::string method;   ///< "GET", "POST", "DELETE", ...
    std::string target;   ///< path + optional query, e.g. "/v1/jobs/3"
    std::string version;  ///< "HTTP/1.1"
    /// Header fields in arrival order, names lowercased.
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    [[nodiscard]] const std::string* header(std::string_view name) const;
};

/// One request/response exchange on a live connection. The handler must
/// either respond() once or begin_chunked()/send_chunk().../end_chunked().
class HttpExchange {
public:
    explicit HttpExchange(int fd) : fd_(fd) {}

    /// Fixed-length response. `body` is sent verbatim.
    void respond(int status, std::string_view body,
                 std::string_view content_type = "application/json");

    /// Start a chunked (streaming) response.
    void begin_chunked(int status,
                       std::string_view content_type = "application/json");
    /// One chunk (empty data is skipped — an empty chunk would terminate
    /// the stream on the wire).
    void send_chunk(std::string_view data);
    void end_chunked();

    [[nodiscard]] bool responded() const { return responded_; }
    /// A send failed (peer gone): the connection will be dropped.
    [[nodiscard]] bool failed() const { return failed_; }

    /// Status code of the response sent (0 until respond/begin_chunked)
    /// and body bytes written so far — the server's access log reads
    /// both after the handler returns.
    [[nodiscard]] int status() const { return status_; }
    [[nodiscard]] std::size_t bytes_sent() const { return bytes_sent_; }

private:
    bool send_all(std::string_view data);

    int fd_;
    bool responded_ = false;
    bool chunked_open_ = false;
    bool failed_ = false;
    int status_ = 0;
    std::size_t bytes_sent_ = 0;
};

class HttpServer {
public:
    using Handler = std::function<void(const HttpRequest&, HttpExchange&)>;

    HttpServer() = default;
    ~HttpServer();
    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;

    /// Bind 127.0.0.1:`port` (0 = ephemeral) and start accepting.
    /// Returns false (with errno intact) when the socket can't be bound.
    bool start(std::uint16_t port, Handler handler);

    /// The bound port (after start; useful with port 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }
    [[nodiscard]] bool running() const {
        return running_.load(std::memory_order_acquire);
    }

    /// Stop accepting, wake idle connections, join every thread. Safe to
    /// call twice; called by the destructor.
    void stop();

private:
    void accept_loop();
    void connection_loop(int fd);
    /// Reads one full request from `fd`. Returns 1 on success, 0 on
    /// clean EOF / stop, -1 on protocol or I/O error (connection drops).
    int read_request(int fd, std::string& buf, HttpRequest& out);

    struct Connection {
        std::thread thread;
        std::atomic<bool> done{false};  ///< set as the thread exits
    };

    Handler handler_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::thread acceptor_;
    std::mutex conn_mu_;
    std::list<Connection> conns_;
};

/// Blocking keep-alive client. Reconnects transparently when the server
/// closed the previous keep-alive connection.
class HttpClient {
public:
    HttpClient(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port) {}
    ~HttpClient();
    HttpClient(const HttpClient&) = delete;
    HttpClient& operator=(const HttpClient&) = delete;

    struct Response {
        int status = 0;
        std::vector<std::pair<std::string, std::string>> headers;
        std::string body;  ///< chunked responses arrive de-chunked
        bool chunked = false;
        /// Chunk boundaries as received (offsets into body) — streaming
        /// tests assert per-chunk framing.
        std::vector<std::string> chunks;
    };

    /// One round trip. Returns false on connect/send/parse failure.
    bool request(std::string_view method, std::string_view target,
                 std::string_view body, Response& out);

    /// Convenience wrappers.
    bool get(std::string_view target, Response& out) {
        return request("GET", target, {}, out);
    }
    bool post(std::string_view target, std::string_view body,
              Response& out) {
        return request("POST", target, body, out);
    }

private:
    bool ensure_connected();
    void disconnect();
    bool send_all(std::string_view data);
    bool read_response(Response& out);
    /// Pulls more bytes into buf_; false on EOF/error.
    bool fill();

    std::string host_;
    std::uint16_t port_;
    int fd_ = -1;
    std::string buf_;  ///< unconsumed bytes from the socket
};

}  // namespace gcdr::serve
