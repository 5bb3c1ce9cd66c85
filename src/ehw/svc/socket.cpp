#include "ehw/svc/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/time.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "ehw/common/fault.hpp"

namespace ehw::svc {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("invalid IPv4 address: " + address);
  }
  return addr;
}

}  // namespace

// --- Socket -----------------------------------------------------------------

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

long Socket::recv_some(char* data, std::size_t size) noexcept {
  fault::maybe_stall(fault::Site::kSockReadStall);
  if (fault::should_fire(fault::Site::kSockReadError)) {
    errno = EIO;
    return -1;
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno != EINTR) return -1;
  }
}

bool Socket::send_all(const char* data, std::size_t size) noexcept {
  fault::maybe_stall(fault::Site::kSockWriteStall);
  if (fault::should_fire(fault::Site::kSockWriteError)) {
    errno = EIO;
    return false;
  }
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Socket::set_send_timeout(int timeout_ms) noexcept {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void Socket::set_recv_timeout(int timeout_ms) noexcept {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool Socket::quiet() const noexcept {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, 0);
  while (ready < 0 && errno == EINTR) ready = ::poll(&pfd, 1, 0);
  return ready == 0;
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect_to(const std::string& address, std::uint16_t port) {
  const sockaddr_in addr = make_addr(address, port);
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket");
  // The protocol is small request/response frames; Nagle only adds
  // latency here.
  const int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0) {
    return socket;
  }
  if (errno != EINTR) {
    throw_errno("connect to " + address + ":" + std::to_string(port));
  }
  // A connect interrupted by a signal keeps completing asynchronously;
  // re-calling connect() would race it (EALREADY/EISCONN). Wait for
  // writability, then read the real outcome from SO_ERROR.
  for (;;) {
    pollfd pfd{socket.fd(), POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, -1);
    if (ready > 0) break;
    if (ready < 0 && errno == EINTR) continue;
    throw_errno("connect to " + address + ":" + std::to_string(port));
  }
  int soerr = 0;
  socklen_t len = sizeof soerr;
  if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
    throw_errno("connect to " + address + ":" + std::to_string(port));
  }
  if (soerr != 0) {
    errno = soerr;
    throw_errno("connect to " + address + ":" + std::to_string(port));
  }
  return socket;
}

// --- Listener ---------------------------------------------------------------

Listener::Listener(const std::string& address, std::uint16_t port) {
  sockaddr_in addr = make_addr(address, port);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

std::optional<Socket> Listener::accept_one(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  while (ready < 0 && errno == EINTR) ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return std::nullopt;  // timeout, or closed under us
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(client);
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- LineChannel ------------------------------------------------------------

LineChannel::ReadStatus LineChannel::read_frame(std::string& line) {
  if (fault::should_fire(fault::Site::kOversizeLine)) {
    buffer_.clear();
    return ReadStatus::kOversize;
  }
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return ReadStatus::kLine;
    }
    if (buffer_.size() > max_line_) {
      // Drop the partial frame so a hostile peer can't pin max_line
      // bytes per connection after the error reply.
      buffer_.clear();
      buffer_.shrink_to_fit();
      return ReadStatus::kOversize;
    }
    char chunk[4096];
    const long n = socket_.recv_some(chunk, sizeof chunk);
    if (n == 0) return ReadStatus::kClosed;  // EOF
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK ? ReadStatus::kTimeout
                                                     : ReadStatus::kClosed;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineChannel::write_line(const std::string& line) {
  std::lock_guard lock(write_mutex_);
  if (write_failed_) return false;
  std::string frame;
  frame.reserve(line.size() + 1);
  frame += line;
  frame += '\n';
  if (!socket_.send_all(frame.data(), frame.size())) {
    write_failed_ = true;
    return false;
  }
  return true;
}

bool LineChannel::reusable() {
  if (!buffer_.empty()) return false;
  {
    std::lock_guard lock(write_mutex_);
    if (write_failed_) return false;
  }
  return socket_.quiet();
}

}  // namespace ehw::svc
