#include "proc/framing.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <unistd.h>
#include <sys/socket.h>

#include "comm/transport.h"
#include "util/error.h"

namespace scd::proc {

namespace {

/// A length announced by a peer: returned as a size, or a
/// comm::TransportError naming `what` when it exceeds `limit` bytes.
std::size_t checked_length(std::uint64_t bytes, std::uint64_t limit,
                           const std::string& what) {
  if (bytes > limit) {
    throw comm::TransportError(what + ": announced length of " +
                               std::to_string(bytes) + " bytes exceeds the " +
                               std::to_string(limit) + "-byte cap");
  }
  return static_cast<std::size_t>(bytes);
}

}  // namespace

bool write_full(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // Sockets take send(MSG_NOSIGNAL); pipes (the status channels) need
    // plain write — SIGPIPE is ignored for the duration of the run.
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw comm::TransportError(std::string("socket send failed: ") +
                                 std::strerror(errno));
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

IoStatus read_full(int fd, void* data, std::size_t len, double timeout_s) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::clamp(timeout_s, 0.0, 1e9)));
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    struct pollfd pfd{fd, POLLIN, 0};
    // Round the remaining time up so poll never returns just short of
    // the deadline; a spent deadline polls once without waiting.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout_ms = static_cast<int>(
        std::clamp<std::int64_t>(left.count(), 0, 1 << 30));
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw comm::TransportError(std::string("poll failed: ") +
                                 std::strerror(errno));
    }
    if (pr == 0) {
      if (got > 0) {
        throw comm::TransportError("socket read timed out mid-frame");
      }
      return IoStatus::kTimeout;
    }
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0 && errno == ENOTSOCK) n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        n = 0;  // a reset peer reads as EOF on a clean frame boundary
      } else {
        throw comm::TransportError(std::string("socket recv failed: ") +
                                   std::strerror(errno));
      }
    }
    if (n == 0) {
      if (got > 0) {
        throw comm::TransportError("peer closed mid-frame");
      }
      return IoStatus::kEof;
    }
    got += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

void read_full_or_throw(int fd, void* data, std::size_t len, double timeout_s,
                        const std::string& what) {
  switch (read_full(fd, data, len, timeout_s)) {
    case IoStatus::kOk:
      return;
    case IoStatus::kEof:
      throw comm::TransportError(what + ": peer closed the connection");
    case IoStatus::kTimeout:
      throw comm::TransportError(what + ": timed out");
  }
}

IoStatus read_frame_header(int fd, FrameHeader& header, double timeout_s) {
  const IoStatus st = read_full(fd, &header, sizeof(header), timeout_s);
  if (st != IoStatus::kOk) return st;
  if (header.magic != kFrameMagic) {
    throw comm::TransportError("corrupt frame header");
  }
  checked_length(header.payload_bytes, kMaxFrameBytes, "frame payload");
  return IoStatus::kOk;
}

bool write_status(int fd, StatusBlob blob, const std::string& msg) {
  blob.msg_len = static_cast<std::uint32_t>(
      std::min<std::size_t>(msg.size(), kMaxStatusMessageBytes));
  return write_full(fd, &blob, sizeof(blob)) &&
         (blob.msg_len == 0 || write_full(fd, msg.data(), blob.msg_len));
}

IoStatus read_status(int fd, double timeout_s, StatusBlob& blob,
                     std::string& msg) {
  const IoStatus st = read_full(fd, &blob, sizeof(blob), timeout_s);
  if (st != IoStatus::kOk || blob.magic != kStatusMagic) return st;
  msg.assign(checked_length(blob.msg_len, kMaxStatusMessageBytes,
                           "worker status message"),
             '\0');
  if (!msg.empty()) {
    read_full_or_throw(fd, msg.data(), msg.size(), timeout_s,
                       "worker status message");
  }
  return IoStatus::kOk;
}

}  // namespace scd::proc
