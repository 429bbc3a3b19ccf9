#include "obs/exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"
#include "util/string_util.h"

namespace iq {
namespace {

bool IsPrometheusNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Largest value counted by cumulative bucket `i` of the base-2 layout:
/// bucket 0 = {0} -> le="0"; bucket i >= 1 = [2^(i-1), 2^i) -> every integer
/// sample it holds is <= 2^i - 1, which is exactly the next bucket's lower
/// bound minus one.
uint64_t BucketInclusiveUpperBound(int i) {
  return Histogram::BucketLowerBound(i + 1) - 1;
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = StrFormat(
      "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status, content_type, body.size());
  out += body;
  return out;
}

/// Thread-safe strerror: std::strerror may return a pointer into shared
/// static storage (clang-tidy concurrency-mt-unsafe), and the exporter
/// formats errors both on caller threads and the serving thread. Uses the
/// POSIX strerror_r into a local buffer instead.
std::string SafeStrError(int err) {
  char buf[128];
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // glibc's _GNU_SOURCE variant returns the message pointer (which may be a
  // static string rather than `buf`).
  return std::string(strerror_r(err, buf, sizeof(buf)));
#else
  if (strerror_r(err, buf, sizeof(buf)) != 0) {
    return StrFormat("errno %d", err);
  }
  return std::string(buf);
#endif
}

/// Writes the whole buffer, retrying on short writes / EINTR.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    if (IsPrometheusNameChar(c, /*first=*/false)) {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || !IsPrometheusNameChar(out[0], /*first=*/true)) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PrometheusEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string pn = PrometheusName(name);
    out += StrFormat("# HELP %s %s\n# TYPE %s counter\n%s %llu\n", pn.c_str(),
                     PrometheusEscape(name).c_str(), pn.c_str(), pn.c_str(),
                     static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string pn = PrometheusName(name);
    out += StrFormat("# HELP %s %s\n# TYPE %s gauge\n%s %lld\n", pn.c_str(),
                     PrometheusEscape(name).c_str(), pn.c_str(), pn.c_str(),
                     static_cast<long long>(value));
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    std::string pn = PrometheusName(h.name);
    out += StrFormat("# HELP %s %s\n", pn.c_str(),
                     PrometheusEscape(h.name).c_str());
    out += StrFormat("# TYPE %s histogram\n", pn.c_str());
    uint64_t cumulative = 0;
    const int num_buckets = static_cast<int>(h.buckets.size());
    for (int i = 0; i < num_buckets; ++i) {
      cumulative += h.buckets[static_cast<size_t>(i)];
      if (i == num_buckets - 1) break;  // the top bucket renders as +Inf
      out += StrFormat("%s_bucket{le=\"%llu\"} %llu\n", pn.c_str(),
                       static_cast<unsigned long long>(
                           BucketInclusiveUpperBound(i)),
                       static_cast<unsigned long long>(cumulative));
    }
    out += StrFormat("%s_bucket{le=\"+Inf\"} %llu\n", pn.c_str(),
                     static_cast<unsigned long long>(cumulative));
    out += StrFormat("%s_sum %llu\n", pn.c_str(),
                     static_cast<unsigned long long>(h.sum));
    out += StrFormat("%s_count %llu\n", pn.c_str(),
                     static_cast<unsigned long long>(h.count));
  }
  return out;
}

std::string ExporterResponseForPath(const std::string& path,
                                    uint64_t uptime_ns) {
  if (path == "/metrics") {
    return HttpResponse(
        "200 OK", "text/plain; version=0.0.4; charset=utf-8",
        RenderPrometheusText(MetricsRegistry::Global().Snapshot()));
  }
  if (path == "/healthz") {
    return HttpResponse("200 OK", "text/plain; charset=utf-8", "ok\n");
  }
  if (path == "/statusz") {
    std::string body =
        StrFormat("{\n  \"uptime_ns\": %llu,\n  \"metrics\": ",
                  static_cast<unsigned long long>(uptime_ns));
    body += MetricsRegistry::Global().Snapshot().ToJson();
    body += "}\n";
    return HttpResponse("200 OK", "application/json", body);
  }
  if (path == "/profilez") {
    return HttpResponse("200 OK", "application/json", ProfilezJson());
  }
  if (path == "/tracez") {
    return HttpResponse("200 OK", "application/json",
                        TraceCollector::Global().TracezJson());
  }
  // /tracez?trace=ID — one retained trace as Perfetto/Chrome JSON (load in
  // chrome://tracing), with per-thread lanes and cross-thread flow arrows.
  if (path.compare(0, 14, "/tracez?trace=") == 0) {
    auto id = ParseInt(path.substr(14));
    std::string body =
        id.ok() && *id > 0
            ? TraceCollector::Global().TraceJson(static_cast<uint64_t>(*id))
            : std::string();
    if (body.empty()) {
      return HttpResponse("404 Not Found", "text/plain; charset=utf-8",
                          "no retained trace with that id (see /tracez)\n");
    }
    return HttpResponse("200 OK", "application/json", body);
  }
  return HttpResponse(
      "404 Not Found", "text/plain; charset=utf-8",
      "not found (try /metrics, /healthz, /statusz, /profilez, /tracez)\n");
}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::Start(int port) {
  MutexLock lock(&mu_);
  if (running()) return Status::FailedPrecondition("exporter already running");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("exporter port out of range");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket: %s", SafeStrError(errno).c_str()));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal(
        StrFormat("bind 127.0.0.1:%d: %s", port, SafeStrError(errno).c_str()));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 16) != 0) {
    Status st =
        Status::Internal(StrFormat("listen: %s", SafeStrError(errno).c_str()));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st = Status::Internal(
        StrFormat("getsockname: %s", SafeStrError(errno).c_str()));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  start_ns_ = TraceNowNanos();
  stop_.store(false, std::memory_order_release);
  port_.store(static_cast<int>(ntohs(addr.sin_port)),
              std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // The serving thread gets the fd and the start timestamp by value so it
  // never reads mu_-guarded members; its only shared state is `stop_`.
  thread_ = std::thread(
      [this, fd, start_ns = start_ns_] { ServeLoop(fd, start_ns); });
  return Status::Ok();
}

void MetricsExporter::Stop() {
  MutexLock lock(&mu_);
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(-1, std::memory_order_release);
  running_.store(false, std::memory_order_release);
}

void MetricsExporter::ServeLoop(int listen_fd, uint64_t start_ns) {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    // Short poll timeout so Stop() is honored promptly without needing a
    // self-pipe; an idle exporter wakes five times a second.
    int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;
    int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    // Requests are one GET line plus a few headers; a single bounded read
    // is enough, and a malformed/slow client just gets a 404 or a reset.
    char buf[2048];
    ssize_t n = ::read(client, buf, sizeof(buf) - 1);
    if (n > 0) {
      buf[n] = '\0';
      std::string request(buf);
      std::string path = "/";
      size_t sp1 = request.find(' ');
      if (request.compare(0, 4, "GET ") == 0 && sp1 != std::string::npos) {
        size_t sp2 = request.find(' ', sp1 + 1);
        if (sp2 != std::string::npos) {
          path = request.substr(sp1 + 1, sp2 - sp1 - 1);
        }
      }
      WriteAll(client,
               ExporterResponseForPath(path, TraceNowNanos() - start_ns));
    }
    ::close(client);
  }
}

Result<std::string> HttpGetLocal(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket: %s", SafeStrError(errno).c_str()));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal(StrFormat(
        "connect 127.0.0.1:%d: %s", port, SafeStrError(errno).c_str()));
    ::close(fd);
    return st;
  }
  std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  if (!WriteAll(fd, request)) {
    ::close(fd);
    return Status::Internal("request write failed");
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Internal("malformed HTTP response");
  }
  return response.substr(header_end + 4);
}

}  // namespace iq
