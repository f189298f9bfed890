// Length-prefixed framing over Unix-domain stream sockets — the shared
// low-level I/O of ProcTransport and ProcCluster's status pipes.
//
// Every message is one frame: a fixed 16-byte header followed by the
// payload. Stream sockets guarantee ordering per fd, so per-(from, to)
// FIFO falls out of the kernel; tag matching is layered above by the
// transport. Reads poll with a wall-clock deadline — a peer that stops
// talking surfaces as a typed timeout instead of a hung run — and EOF
// (peer closed or died) is reported distinctly so callers can implement
// the dead-rank drain semantics of the Transport contract. Every length
// a peer announces is checked against a cap before anything is sized by
// it, so a corrupt or forged length fails as a comm::TransportError
// instead of an allocation of up to 2^64 bytes.
#pragma once

#include <cstddef>
#include <cstdint>

#include <string>

#include "comm/phase_stats.h"

namespace scd::proc {

inline constexpr std::uint32_t kFrameMagic = 0x53434446;  // "SCDF"
/// Largest payload one frame may announce.
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::int32_t tag = 0;
  std::uint64_t payload_bytes = 0;
};
static_assert(sizeof(FrameHeader) == 16);

enum class IoStatus {
  kOk,
  kEof,      // orderly close or peer process death
  kTimeout,  // deadline elapsed mid-read
};

/// Write exactly `len` bytes (MSG_NOSIGNAL). Returns false when the peer
/// end is gone (EPIPE/ECONNRESET) — the caller decides whether that is a
/// drop (transport sends to dead ranks vanish) or an error. Throws
/// comm::TransportError on any other failure.
bool write_full(int fd, const void* data, std::size_t len);

/// Read exactly `len` bytes within `timeout_s` wall seconds for the
/// whole call — a peer that trickles bytes cannot stretch the deadline.
/// kEof is only returned on a clean boundary (no partial frame); a
/// connection that dies or stalls mid-frame throws.
IoStatus read_full(int fd, void* data, std::size_t len, double timeout_s);

/// read_full for reads where EOF or a timeout is always fatal (a frame
/// payload, a status message). `what` names the read in the error.
void read_full_or_throw(int fd, void* data, std::size_t len, double timeout_s,
                        const std::string& what);

/// Read one frame header. kOk only for a header with the frame magic
/// and a payload of at most kMaxFrameBytes; anything else throws.
IoStatus read_frame_header(int fd, FrameHeader& header, double timeout_s);

/// A worker's end-of-run report on its status pipe; a message of msg_len
/// bytes (at most kMaxStatusMessageBytes) follows.
inline constexpr std::uint32_t kStatusMagic = 0x53434453;  // "SCDS"
inline constexpr std::uint32_t kMaxStatusMessageBytes = 64 << 10;
struct StatusBlob {
  std::uint32_t magic = kStatusMagic;
  std::uint32_t err = 0;
  double final_now = 0.0;
  double phases[comm::kNumPhases] = {};
  std::uint32_t msg_len = 0;
};

/// Write `blob` and `msg`, truncating the message to the cap. False when
/// the reader is gone.
bool write_status(int fd, StatusBlob blob, const std::string& msg);

/// Read one report. When the blob carries the status magic its message
/// follows into `msg`; a length past the cap throws before anything is
/// allocated.
IoStatus read_status(int fd, double timeout_s, StatusBlob& blob,
                     std::string& msg);

}  // namespace scd::proc
