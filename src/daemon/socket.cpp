#include "daemon/socket.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace vihot::daemon {

namespace {

bool fill_unix_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// poll() one fd for readability; true when readable, false on timeout
/// or error. timeout_ms < 0 blocks indefinitely.
bool wait_readable(int fd, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
    // EINTR: retry. (Timeout accounting restarts; the daemon's waits
    // are coarse watchdog intervals, not precision timers.)
  }
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Stream Stream::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (!fill_unix_addr(path, &addr)) return Stream{};
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Stream{};
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Stream{};
  }
  return Stream{std::move(fd)};
}

bool Stream::send_all(const unsigned char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc =
        ::send(fd_.get(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

long Stream::recv_some(unsigned char* out, std::size_t n, int timeout_ms) {
  if (timeout_ms >= 0 && !wait_readable(fd_.get(), timeout_ms)) return -2;
  for (;;) {
    const ssize_t rc = ::recv(fd_.get(), out, n, 0);
    if (rc >= 0) return static_cast<long>(rc);
    if (errno != EINTR) return -1;
  }
}

void Stream::shutdown_read() { ::shutdown(fd_.get(), SHUT_RD); }
void Stream::shutdown_both() { ::shutdown(fd_.get(), SHUT_RDWR); }

Listener::~Listener() { close(); }

Listener Listener::listen_unix(const std::string& path, int backlog) {
  Listener l;
  sockaddr_un addr{};
  if (!fill_unix_addr(path, &addr)) {
    l.error_ = "socket path empty or too long: " + path;
    return l;
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    l.error_ = "socket(): " + std::string(std::strerror(errno));
    return l;
  }
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    l.error_ = "bind(" + path + "): " + std::string(std::strerror(errno));
    return l;
  }
  if (::listen(fd.get(), backlog) != 0) {
    l.error_ = "listen(" + path + "): " + std::string(std::strerror(errno));
    ::unlink(path.c_str());
    return l;
  }
  l.fd_ = std::move(fd);
  l.path_ = path;
  return l;
}

Stream Listener::accept(int timeout_ms) {
  if (!fd_.valid()) return Stream{};
  if (timeout_ms >= 0 && !wait_readable(fd_.get(), timeout_ms)) {
    return Stream{};
  }
  for (;;) {
    const int c = ::accept(fd_.get(), nullptr, nullptr);
    if (c >= 0) return Stream{Fd{c}};
    if (errno != EINTR) return Stream{};
  }
}

void Listener::close() {
  if (fd_.valid()) {
    fd_.reset();
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

}  // namespace vihot::daemon
