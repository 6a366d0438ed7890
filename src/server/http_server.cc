#include "server/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace ganswer {
namespace server {

namespace {

/// Hard cap on bytes buffered for a connection that keeps sending while a
/// response is pending; beyond it the client is misbehaving and is closed.
constexpr size_t kMaxBufferedInput = 256 * 1024;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::Ok();
}

std::string RouteKey(std::string_view method, std::string_view path) {
  std::string key;
  key.reserve(method.size() + 1 + path.size());
  key.append(method);
  key.push_back(' ');
  key.append(path);
  return key;
}

}  // namespace

const char* StatusReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

void HttpServer::ResponseWriter::Send(HttpResponse response) const {
  if (server_ == nullptr) return;
  HttpServer* server = server_;
  uint64_t conn_id = conn_id_;
  if (server->loop_.InLoopThread()) {
    server->SendOnLoop(conn_id, std::move(response));
    return;
  }
  server->loop_.Post(
      [server, conn_id, response = std::move(response)]() mutable {
        server->SendOnLoop(conn_id, std::move(response));
      });
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Route(std::string_view method, std::string_view path,
                       Handler handler) {
  routes_[RouteKey(method, path)] = std::move(handler);
}

Status HttpServer::Start() {
  // Validate the listen address before any resource is taken: a port the
  // uint16_t cast would wrap (70000 -> 4464) must fail, not bind elsewhere.
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port out of range [0, 65535]: " +
                                   std::to_string(options_.port));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }

  GANSWER_RETURN_NOT_OK(loop_.Init());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  GANSWER_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  GANSWER_RETURN_NOT_OK(
      loop_.Add(listen_fd_, EventLoop::kReadable,
                [this](uint32_t) { AcceptReady(); }));

  loop_thread_ = std::thread([this] {
    if (options_.idle_timeout_ms > 0) ScheduleIdleSweep();
    loop_.Run();
  });
  started_ = true;
  GANSWER_LOG(Info) << "http server listening on " << options_.bind_address
                    << ":" << port_;
  return Status::Ok();
}

void HttpServer::Shutdown() {
  if (!started_ || shut_down_.exchange(true)) {
    // Never started: nothing to join; or a previous Shutdown already ran.
    if (!started_ && listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  loop_.Post([this] {
    draining_ = true;
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Connections with nothing in flight can go now; the rest finish their
    // response first (MaybeFinishDrain watches them).
    std::vector<uint64_t> closable;
    for (const auto& [id, conn] : connections_) {
      if (!conn->pending_response && conn->outbuf.size() == conn->out_offset) {
        closable.push_back(id);
      }
    }
    for (uint64_t id : closable) CloseConnection(id);
    loop_.ScheduleAfter(options_.drain_timeout_ms, [this] {
      if (!connections_.empty()) {
        GANSWER_LOG(Warn) << "drain timeout: closing "
                          << connections_.size() << " connection(s)";
        std::vector<uint64_t> ids;
        for (const auto& [id, conn] : connections_) ids.push_back(id);
        for (uint64_t id : ids) CloseConnection(id);
      }
      loop_.Stop();
    });
    MaybeFinishDrain();
  });
  loop_thread_.join();
  FlushLogs();
}

void HttpServer::MaybeFinishDrain() {
  if (!draining_) return;
  if (connections_.empty()) loop_.Stop();
}

void HttpServer::AcceptReady() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      GANSWER_LOG(Warn) << "accept: " << std::strerror(errno);
      return;
    }
    if (connections_.size() >= options_.max_connections || draining_) {
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->parser = HttpParser(options_.limits);
    conn->last_activity_ms = loop_.NowMs();
    uint64_t id = conn->id;
    Status st = loop_.Add(fd, EventLoop::kReadable, [this, id](uint32_t ev) {
      ConnectionReady(id, ev);
    });
    if (!st.ok()) {
      ::close(fd);
      continue;
    }
    connections_[id] = std::move(conn);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.store(connections_.size(), std::memory_order_relaxed);
  }
}

void HttpServer::ConnectionReady(uint64_t conn_id, uint32_t events) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();

  if (events & EventLoop::kWritable) {
    conn->last_activity_ms = loop_.NowMs();
    FlushOutput(conn);
    // FlushOutput may close; re-find before reading.
    it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    conn = it->second.get();
  }

  if (events & EventLoop::kReadable) {
    char buf[16 * 1024];
    while (true) {
      ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->last_activity_ms = loop_.NowMs();
        conn->inbuf.append(buf, static_cast<size_t>(n));
        if (conn->inbuf.size() > kMaxBufferedInput) {
          CloseConnection(conn_id);
          return;
        }
        continue;
      }
      if (n == 0) {  // peer closed
        if (!conn->pending_response) CloseConnection(conn_id);
        // With a response pending, keep the fd so the answer can still be
        // written (the write will fail fast if the peer is fully gone).
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn_id);
      return;
    }
    ProcessInput(conn);
  }
}

void HttpServer::ProcessInput(Connection* conn) {
  if (conn->in_process_input) return;
  conn->in_process_input = true;
  const uint64_t conn_id = conn->id;
  // One request in flight per connection: further pipelined bytes wait in
  // inbuf until the response is sent.
  while (!conn->pending_response && !conn->close_after_write &&
         !conn->inbuf.empty()) {
    auto consumed = conn->parser.Feed(conn->inbuf);
    if (!consumed.ok()) {
      HttpResponse error;
      error.status = conn->parser.suggested_status();
      error.body = std::string("{\"error\":\"") +
                   StatusReason(error.status) + "\"}";
      conn->inbuf.clear();
      conn->pending_response = false;
      QueueResponse(conn, error, /*keep_alive=*/false);
      break;
    }
    conn->inbuf.erase(0, *consumed);
    if (!conn->parser.done()) break;  // need more bytes
    DispatchRequest(conn);
    // The handler (or an error response) may have closed the connection.
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    conn = it->second.get();
  }
  auto it = connections_.find(conn_id);
  if (it != connections_.end()) it->second->in_process_input = false;
}

void HttpServer::DispatchRequest(Connection* conn) {
  HttpRequest request = std::move(conn->parser.request());
  conn->parser.Reset();
  // Admission timestamp: latency budgets start counting here, before any
  // queueing, so time spent waiting for a worker is part of the budget.
  request.received_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  conn->keep_alive = request.keep_alive;
  conn->pending_response = true;
  requests_pending_.fetch_add(1, std::memory_order_relaxed);

  auto it = routes_.find(RouteKey(request.method, request.path));
  ResponseWriter writer(this, conn->id);
  if (it == routes_.end()) {
    writer.Send(HttpResponse::Json(404, "{\"error\":\"Not Found\"}"));
    return;
  }
  it->second(request, writer);
}

void HttpServer::SendOnLoop(uint64_t conn_id, HttpResponse response) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // connection died first
  Connection* conn = it->second.get();
  if (!conn->pending_response) return;  // double Send: drop
  conn->pending_response = false;
  requests_pending_.fetch_sub(1, std::memory_order_relaxed);
  bool keep = conn->keep_alive && !draining_;
  QueueResponse(conn, response, keep);
  // Pipelined follow-up request may already be buffered.
  it = connections_.find(conn_id);
  if (it != connections_.end()) ProcessInput(it->second.get());
}

void HttpServer::QueueResponse(Connection* conn, const HttpResponse& response,
                               bool keep_alive) {
  conn->close_after_write = !keep_alive;
  std::string& out = conn->outbuf;
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
  FlushOutput(conn);
}

void HttpServer::FlushOutput(Connection* conn) {
  uint64_t conn_id = conn->id;
  while (conn->out_offset < conn->outbuf.size()) {
    ssize_t n = ::write(conn->fd, conn->outbuf.data() + conn->out_offset,
                        conn->outbuf.size() - conn->out_offset);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->writable_armed) {
        conn->writable_armed = true;
        loop_.Modify(conn->fd, EventLoop::kReadable | EventLoop::kWritable);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }
  // Fully flushed.
  conn->outbuf.clear();
  conn->out_offset = 0;
  if (conn->writable_armed) {
    conn->writable_armed = false;
    loop_.Modify(conn->fd, EventLoop::kReadable);
  }
  if (conn->close_after_write) {
    CloseConnection(conn_id);
    return;
  }
  MaybeFinishDrain();
}

void HttpServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (conn->pending_response) {
    requests_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  loop_.Remove(conn->fd);
  ::close(conn->fd);
  connections_.erase(it);
  connections_open_.store(connections_.size(), std::memory_order_relaxed);
  MaybeFinishDrain();
}

void HttpServer::ScheduleIdleSweep() {
  int interval = std::max(options_.idle_timeout_ms / 4, 50);
  loop_.ScheduleAfter(interval, [this] {
    int64_t now = loop_.NowMs();
    std::vector<uint64_t> idle;
    for (const auto& [id, conn] : connections_) {
      if (conn->pending_response) continue;  // a worker owes a response
      if (now - conn->last_activity_ms >= options_.idle_timeout_ms) {
        idle.push_back(id);
      }
    }
    for (uint64_t id : idle) CloseConnection(id);
    if (!draining_) ScheduleIdleSweep();
  });
}

}  // namespace server
}  // namespace ganswer
