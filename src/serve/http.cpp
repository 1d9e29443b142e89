#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "obs/json.hpp"

namespace gcdr::serve {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 64 * 1024 * 1024;
constexpr int kRecvTimeoutMs = 200;

const char* status_text(int status) {
    switch (status) {
        case 200:
            return "OK";
        case 202:
            return "Accepted";
        case 400:
            return "Bad Request";
        case 404:
            return "Not Found";
        case 405:
            return "Method Not Allowed";
        case 408:
            return "Request Timeout";
        case 409:
            return "Conflict";
        case 500:
            return "Internal Server Error";
        case 503:
            return "Service Unavailable";
        default:
            return "Status";
    }
}

void set_recv_timeout(int fd, int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string lower(std::string_view s) {
    std::string out(s);
    for (char& c : out) {
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

std::string_view trim(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
        s.remove_suffix(1);
    }
    return s;
}

/// Parse "<start-line>\r\n<headers>\r\n\r\n" from head into out (headers
/// lowercased). Returns false on malformed framing.
bool parse_head(std::string_view head, std::string& line1,
                std::vector<std::pair<std::string, std::string>>& headers) {
    std::size_t pos = head.find("\r\n");
    if (pos == std::string_view::npos) return false;
    line1.assign(head.substr(0, pos));
    pos += 2;
    while (pos < head.size()) {
        const std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos) return false;
        if (eol == pos) break;  // blank line
        const std::string_view field = head.substr(pos, eol - pos);
        const std::size_t colon = field.find(':');
        if (colon == std::string_view::npos) return false;
        headers.emplace_back(lower(trim(field.substr(0, colon))),
                             std::string(trim(field.substr(colon + 1))));
        pos = eol + 2;
    }
    return true;
}

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
    for (const auto& [k, v] : headers) {
        if (k == name) return &v;
    }
    return nullptr;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
    return find_header(headers, name);
}

// ---------------------------------------------------------------- server

bool HttpExchange::send_all(std::string_view data) {
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            failed_ = true;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void HttpExchange::respond(int status, std::string_view body,
                           std::string_view content_type) {
    if (responded_) return;
    responded_ = true;
    status_ = status;
    bytes_sent_ += body.size();
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\nContent-Type: %.*s\r\n"
                  "Content-Length: %zu\r\nConnection: keep-alive\r\n\r\n",
                  status, status_text(status),
                  static_cast<int>(content_type.size()), content_type.data(),
                  body.size());
    std::string msg(head);
    msg += body;
    send_all(msg);
}

void HttpExchange::begin_chunked(int status, std::string_view content_type) {
    if (responded_) return;
    responded_ = true;
    status_ = status;
    chunked_open_ = true;
    char head[256];
    std::snprintf(head, sizeof head,
                  "HTTP/1.1 %d %s\r\nContent-Type: %.*s\r\n"
                  "Transfer-Encoding: chunked\r\nConnection: keep-alive"
                  "\r\n\r\n",
                  status, status_text(status),
                  static_cast<int>(content_type.size()),
                  content_type.data());
    send_all(head);
}

void HttpExchange::send_chunk(std::string_view data) {
    if (!chunked_open_ || data.empty()) return;
    bytes_sent_ += data.size();
    char size_line[32];
    std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
    std::string msg(size_line);
    msg += data;
    msg += "\r\n";
    send_all(msg);
}

void HttpExchange::end_chunked() {
    if (!chunked_open_) return;
    chunked_open_ = false;
    send_all("0\r\n\r\n");
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::uint16_t port, Handler handler) {
    handler_ = std::move(handler);
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    acceptor_ = std::thread([this] { accept_loop(); });
    return true;
}

void HttpServer::accept_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int r = ::poll(&pfd, 1, kRecvTimeoutMs);
        if (r <= 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) continue;
        set_recv_timeout(fd, kRecvTimeoutMs);
        set_nodelay(fd);
        std::lock_guard<std::mutex> lk(conn_mu_);
        if (stopping_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (it->done.load(std::memory_order_acquire)) {
                it->thread.join();
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        Connection& c = conns_.emplace_back();
        try {
            c.thread = std::thread([this, fd, &c] {
                connection_loop(fd);
                c.done.store(true, std::memory_order_release);
            });
        } catch (const std::system_error&) {
            // Out of threads: drop this connection, keep serving the rest.
            conns_.pop_back();
            ::close(fd);
        }
    }
}

int HttpServer::read_request(int fd, std::string& buf, HttpRequest& out) {
    // Accumulate until the blank line; then pull Content-Length bytes.
    std::size_t head_end;
    while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
        if (buf.size() > kMaxHeaderBytes) return -1;
        char tmp[4096];
        const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
        if (n > 0) {
            buf.append(tmp, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) return buf.empty() ? 0 : -1;  // EOF
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (stopping_.load(std::memory_order_acquire)) return 0;
            if (!buf.empty()) continue;  // mid-request: keep waiting
            continue;                    // idle keep-alive: keep waiting
        }
        return -1;
    }
    std::string line1;
    out = HttpRequest{};
    if (!parse_head(std::string_view(buf).substr(0, head_end + 2), line1,
                    out.headers)) {
        return -1;
    }
    {
        // "METHOD SP target SP version"
        const std::size_t sp1 = line1.find(' ');
        const std::size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : line1.find(' ', sp1 + 1);
        if (sp2 == std::string::npos) return -1;
        out.method = line1.substr(0, sp1);
        out.target = line1.substr(sp1 + 1, sp2 - sp1 - 1);
        out.version = line1.substr(sp2 + 1);
    }
    std::size_t body_len = 0;
    if (const std::string* cl = out.header("content-length")) {
        char* end = nullptr;
        body_len = std::strtoull(cl->c_str(), &end, 10);
        if (!end || *end != '\0' || body_len > kMaxBodyBytes) return -1;
    }
    const std::size_t body_begin = head_end + 4;
    while (buf.size() < body_begin + body_len) {
        char tmp[8192];
        const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
        if (n > 0) {
            buf.append(tmp, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) return -1;
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
            if (stopping_.load(std::memory_order_acquire)) return 0;
            continue;
        }
        return -1;
    }
    out.body = buf.substr(body_begin, body_len);
    buf.erase(0, body_begin + body_len);
    return 1;
}

void HttpServer::connection_loop(int fd) {
    std::string buf;
    while (!stopping_.load(std::memory_order_acquire)) {
        HttpRequest req;
        const int r = read_request(fd, buf, req);
        if (r <= 0) break;
        HttpExchange ex(fd);
        try {
            handler_(req, ex);
        } catch (const std::exception& e) {
            if (!ex.responded()) {
                ex.respond(500,
                           std::string("{\"error\":\"") +
                               obs::JsonWriter::escape(e.what()) + "\"}");
            }
        }
        if (!ex.responded()) {
            ex.respond(500, "{\"error\":\"handler sent no response\"}");
        }
        if (ex.failed()) break;
        const std::string* conn = req.header("connection");
        if (conn && lower(*conn) == "close") break;
    }
    ::close(fd);
}

void HttpServer::stop() {
    if (!running_.load(std::memory_order_acquire)) return;
    stopping_.store(true, std::memory_order_release);
    if (acceptor_.joinable()) acceptor_.join();
    {
        std::lock_guard<std::mutex> lk(conn_mu_);
        for (Connection& c : conns_) c.thread.join();
        conns_.clear();
    }
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    running_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------- client

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

bool HttpClient::ensure_connected() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
        disconnect();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        disconnect();
        return false;
    }
    set_nodelay(fd_);
    return true;
}

bool HttpClient::send_all(std::string_view data) {
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

bool HttpClient::fill() {
    char tmp[8192];
    for (;;) {
        const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
        if (n > 0) {
            buf_.append(tmp, static_cast<std::size_t>(n));
            return true;
        }
        if (n == 0) return false;
        if (errno == EINTR) continue;
        return false;
    }
}

bool HttpClient::read_response(Response& out) {
    std::size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
        if (!fill()) return false;
    }
    std::string line1;
    out = Response{};
    if (!parse_head(std::string_view(buf_).substr(0, head_end + 2), line1,
                    out.headers)) {
        return false;
    }
    // "HTTP/1.1 SP status SP reason"
    const std::size_t sp = line1.find(' ');
    if (sp == std::string::npos) return false;
    out.status = std::atoi(line1.c_str() + sp + 1);
    buf_.erase(0, head_end + 4);

    const std::string* te = find_header(out.headers, "transfer-encoding");
    if (te && lower(*te) == "chunked") {
        out.chunked = true;
        for (;;) {
            std::size_t eol;
            while ((eol = buf_.find("\r\n")) == std::string::npos) {
                if (!fill()) return false;
            }
            const std::size_t chunk_len =
                std::strtoull(buf_.c_str(), nullptr, 16);
            buf_.erase(0, eol + 2);
            if (chunk_len == 0) {
                // Trailer-less end: expect the final CRLF.
                while (buf_.size() < 2) {
                    if (!fill()) return false;
                }
                buf_.erase(0, 2);
                return true;
            }
            while (buf_.size() < chunk_len + 2) {
                if (!fill()) return false;
            }
            out.chunks.emplace_back(buf_.substr(0, chunk_len));
            out.body += out.chunks.back();
            buf_.erase(0, chunk_len + 2);
        }
    }
    std::size_t body_len = 0;
    if (const std::string* cl = find_header(out.headers, "content-length")) {
        body_len = std::strtoull(cl->c_str(), nullptr, 10);
    }
    while (buf_.size() < body_len) {
        if (!fill()) return false;
    }
    out.body = buf_.substr(0, body_len);
    buf_.erase(0, body_len);
    return true;
}

bool HttpClient::request(std::string_view method, std::string_view target,
                         std::string_view body, Response& out) {
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!ensure_connected()) return false;
        char head[256];
        std::snprintf(head, sizeof head,
                      "%.*s %.*s HTTP/1.1\r\nHost: %s\r\n"
                      "Content-Length: %zu\r\n"
                      "Connection: keep-alive\r\n\r\n",
                      static_cast<int>(method.size()), method.data(),
                      static_cast<int>(target.size()), target.data(),
                      host_.c_str(), body.size());
        std::string msg(head);
        msg += body;
        if (send_all(msg) && read_response(out)) return true;
        // Stale keep-alive connection (server restarted or timed us
        // out): reconnect once and retry.
        disconnect();
    }
    return false;
}

}  // namespace gcdr::serve
