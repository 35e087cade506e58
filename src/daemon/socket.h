// Minimal RAII wrappers over local (AF_UNIX) stream sockets for the
// vihotd serving layer. Deliberately tiny: blocking I/O with poll-based
// accept/read timeouts, full-write send, and explicit shutdown — the
// daemon's concurrency lives in its own threads, not in the socket
// layer.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

namespace vihot::daemon {

/// Owning file descriptor. Movable, not copyable; closes on destruct.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset();
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }

 private:
  int fd_ = -1;
};

/// A connected stream socket.
class Stream {
 public:
  Stream() = default;
  explicit Stream(Fd fd) : fd_(std::move(fd)) {}

  /// Connects to a listening unix socket; invalid() on failure.
  static Stream connect_unix(const std::string& path);

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] int native() const noexcept { return fd_.get(); }

  /// Writes all n bytes (retrying short writes / EINTR). False on error
  /// or peer reset; SIGPIPE is suppressed per-call.
  bool send_all(const unsigned char* data, std::size_t n);

  /// Reads up to n bytes. >0 bytes read; 0 = orderly EOF; -1 = error.
  /// With timeout_ms >= 0, returns -2 if nothing arrived in time.
  long recv_some(unsigned char* out, std::size_t n, int timeout_ms = -1);

  /// Half-close: SHUT_RD unblocks a reader, SHUT_RDWR also signals EOF
  /// to the peer. Safe from another thread (the fd stays open, so there
  /// is no close/reuse race).
  void shutdown_read();
  void shutdown_both();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
};

/// A listening unix socket bound to a filesystem path; unlinks the path
/// on destruction (and any stale one on bind).
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&&) = default;
  Listener& operator=(Listener&&) = default;

  static Listener listen_unix(const std::string& path, int backlog = 64);

  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Accepts one connection; invalid Stream on timeout (timeout_ms >= 0),
  /// error, or after close().
  Stream accept(int timeout_ms = -1);

  /// Stops accepting: closes the fd so a blocked accept() returns.
  void close();

 private:
  Fd fd_;
  std::string path_;
  std::string error_;
};

}  // namespace vihot::daemon
