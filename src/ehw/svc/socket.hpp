#pragma once
// Thin POSIX TCP wrappers for the mission service: a loopback listener,
// a move-only connected socket, and a newline-delimited frame channel.
//
// Scope is deliberately small — blocking I/O, IPv4 loopback by default,
// EINTR-safe, SIGPIPE-free (MSG_NOSIGNAL). The protocol layer above
// frames one JSON document per line; LineChannel owns the read buffering
// and serializes concurrent writers (response writer vs. event streamer)
// behind one mutex so frames never interleave mid-line.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace ehw::svc {

/// Move-only owner of a connected socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Blocking read of up to `size` bytes; returns bytes read, 0 on EOF,
  /// -1 on error. Retries EINTR.
  [[nodiscard]] long recv_some(char* data, std::size_t size) noexcept;

  /// Writes the whole buffer (handles partial sends, retries EINTR,
  /// suppresses SIGPIPE). False on any error.
  [[nodiscard]] bool send_all(const char* data, std::size_t size) noexcept;

  /// Bounds how long a send may block on a peer that stopped reading
  /// (SO_SNDTIMEO); after the timeout send_all fails and the channel is
  /// poisoned. Essential server-side: progress events are written from
  /// job threads, which must never be wedged by one stalled client.
  void set_send_timeout(int timeout_ms) noexcept;

  /// Bounds how long a recv may block on a silent peer (SO_RCVTIMEO);
  /// after the timeout recv_some fails and read_line returns false.
  /// Client-side this keeps a stalled daemon from hanging `mpa submit`
  /// forever. 0 disables the bound.
  void set_recv_timeout(int timeout_ms) noexcept;

  /// True when a zero-timeout poll finds nothing to read, no hang-up and
  /// no error: the peer has neither sent anything nor closed. Never
  /// blocks.
  [[nodiscard]] bool quiet() const noexcept;

  /// Shuts down both directions, unblocking any reader on this fd.
  void shutdown_both() noexcept;
  void close() noexcept;

  /// Blocking connect to a TCP endpoint (numeric IPv4 address). Throws
  /// std::runtime_error on failure.
  [[nodiscard]] static Socket connect_to(const std::string& address,
                                         std::uint16_t port);

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to `address`:`port` (port 0 = ephemeral;
/// the bound port is readable afterwards). Throws std::runtime_error on
/// bind/listen failure.
class Listener {
 public:
  Listener(const std::string& address, std::uint16_t port);
  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Waits up to `timeout_ms` for a connection; nullopt on timeout or
  /// once closed. The acceptor loop polls so a stop flag can be checked
  /// between calls without platform-specific accept interruption.
  [[nodiscard]] std::optional<Socket> accept_one(int timeout_ms);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Newline-delimited frame channel over a Socket. Reads are single-owner
/// (the session/client thread); writes are serialized by an internal
/// mutex so a progress-event streamer and the response writer can share
/// the connection safely.
class LineChannel {
 public:
  /// Default frame-length bound; longer frames are a protocol error
  /// (bounds per-connection memory against hostile peers).
  static constexpr std::size_t kMaxLine = 1 << 20;

  /// Why a read ended without producing a frame. Sessions use the
  /// distinction to answer with a *clean* protocol error (oversize,
  /// idle timeout) instead of silently dropping the connection.
  enum class ReadStatus {
    kLine,      // a frame was produced
    kClosed,    // EOF or hard socket error
    kOversize,  // peer exceeded max_line without a newline
    kTimeout,   // SO_RCVTIMEO expired with no (complete) frame
  };

  explicit LineChannel(Socket socket) : socket_(std::move(socket)) {}

  /// Next '\n'-terminated frame, without the terminator. False on EOF,
  /// error, or an over-long frame.
  [[nodiscard]] bool read_line(std::string& line) {
    return read_frame(line) == ReadStatus::kLine;
  }

  /// read_line with the failure mode visible.
  [[nodiscard]] ReadStatus read_frame(std::string& line);

  /// Tightens (or relaxes) the frame-length bound for this channel.
  /// Oversize detection discards the partial buffer, so memory stays
  /// bounded by max_line + one recv chunk regardless of peer behavior.
  void set_max_line(std::size_t max_line) noexcept {
    max_line_ = max_line == 0 ? kMaxLine : max_line;
  }
  [[nodiscard]] std::size_t max_line() const noexcept { return max_line_; }

  /// Arms/disarms an idle bound on reads (delegates to the socket's
  /// SO_RCVTIMEO); expiry surfaces as ReadStatus::kTimeout.
  void set_recv_timeout(int timeout_ms) noexcept {
    socket_.set_recv_timeout(timeout_ms);
  }

  /// Writes `line` + '\n' atomically w.r.t. other writers. False once
  /// the peer is gone (subsequent writes keep returning false).
  [[nodiscard]] bool write_line(const std::string& line);

  /// Whether the channel can carry another exchange: nothing buffered,
  /// no failed write, and nothing (data, EOF or error) waiting on the
  /// socket. Reader-side and non-blocking; a pooled connection is only
  /// reused while this holds.
  [[nodiscard]] bool reusable();

  /// Unblocks the reader and poisons future writes.
  void shutdown() noexcept { socket_.shutdown_both(); }

 private:
  Socket socket_;
  std::string buffer_;       // reader-owned
  std::size_t max_line_ = kMaxLine;  // reader-owned
  std::mutex write_mutex_;   // serializes write_line
  bool write_failed_ = false;  // guarded by write_mutex_
};

}  // namespace ehw::svc
