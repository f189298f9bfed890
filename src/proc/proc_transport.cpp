#include "proc/proc_transport.h"

#include <algorithm>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <unistd.h>

#include "proc/framing.h"
#include "util/error.h"

namespace scd::proc {

namespace {

/// Reserved tag of the abort poison frame; regular traffic never uses
/// negative tags.
constexpr int kAbortTag = -1;

/// Base of the reserved collective tag range, far above any sampler tag.
constexpr int kCollTagBase = 0x40000000;

constexpr unsigned kOpBarrierUp = 0;
constexpr unsigned kOpBarrierDown = 1;
constexpr unsigned kOpReduceUp = 2;
constexpr unsigned kOpReduceDown = 3;
constexpr unsigned kOpBcast = 4;
constexpr unsigned kNumCollOps = 5;

unsigned lowest_set_bit(unsigned x) { return x & (~x + 1u); }

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ProcTransport::ProcTransport(unsigned num_ranks, const Options& options)
    : num_ranks_(num_ranks), options_(options) {
  SCD_REQUIRE(num_ranks >= 1, "transport needs at least one rank");
  ends_.assign(num_ranks, std::vector<int>(num_ranks, -1));
  for (unsigned a = 0; a < num_ranks; ++a) {
    for (unsigned b = a + 1; b < num_ranks; ++b) {
      int sv[2];
      SCD_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                  "socketpair failed");
      ends_[a][b] = sv[0];
      ends_[b][a] = sv[1];
    }
  }
}

ProcTransport::~ProcTransport() {
  if (self_ >= 0) {
    for (Peer& peer : peers_) close_quiet(peer.fd);
    return;
  }
  for (auto& row : ends_) {
    for (int& fd : row) close_quiet(fd);
  }
}

void ProcTransport::attach(unsigned self) {
  SCD_REQUIRE(self < num_ranks_, "rank out of range");
  SCD_REQUIRE(self_ < 0, "transport already attached in this process");
  peers_.resize(num_ranks_);
  for (unsigned a = 0; a < num_ranks_; ++a) {
    for (unsigned b = 0; b < num_ranks_; ++b) {
      if (a == self) {
        peers_[b].fd = ends_[a][b];
      } else {
        close_quiet(ends_[a][b]);
      }
      ends_[a][b] = -1;
    }
  }
  self_ = static_cast<int>(self);
}

unsigned ProcTransport::self() const {
  SCD_REQUIRE(self_ >= 0, "transport not attached");
  return static_cast<unsigned>(self_);
}

void ProcTransport::send_raw(unsigned from, unsigned to, int tag,
                             std::vector<std::byte> payload,
                             std::uint64_t /*logical_bytes*/) {
  SCD_REQUIRE(from < num_ranks_ && to < num_ranks_, "rank out of range");
  SCD_ASSERT(from == self(), "proc transport sends only from self");
  SCD_REQUIRE(to != from, "self-send is not supported");
  Peer& peer = peers_[to];
  if (peer.fd < 0 || self_closed_) {
    recycle_buffer(std::move(payload));
    return;  // messages to (or from) the dead vanish, as in sim
  }
  const FrameHeader header{kFrameMagic, tag, payload.size()};
  bool alive = write_full(peer.fd, &header, sizeof(header));
  if (alive && !payload.empty()) {
    alive = write_full(peer.fd, payload.data(), payload.size());
  }
  if (!alive) peer.dead = true;  // dropped, like a send to a crashed rank
  recycle_buffer(std::move(payload));
}

std::optional<std::vector<std::byte>> ProcTransport::take_pending(
    unsigned from, int tag) {
  auto it = peers_[from].pending.find(tag);
  if (it == peers_[from].pending.end() || it->second.empty()) {
    return std::nullopt;
  }
  std::vector<std::byte> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

bool ProcTransport::pump(unsigned from) {
  Peer& peer = peers_[from];
  SCD_REQUIRE(peer.fd >= 0, "pump on a closed peer");
  FrameHeader header;
  const IoStatus st =
      read_frame_header(peer.fd, header, options_.recv_timeout_s);
  if (st == IoStatus::kEof) {
    peer.dead = true;
    close_quiet(peer.fd);
    return false;
  }
  if (st == IoStatus::kTimeout) {
    throw comm::TransportError("recv from rank " + std::to_string(from) +
                               " timed out");
  }
  if (header.tag == kAbortTag) {
    throw comm::TransportError("transport aborted by rank " +
                               std::to_string(from));
  }
  std::vector<std::byte> payload = acquire_buffer();
  payload.resize(header.payload_bytes);
  if (!payload.empty()) {
    read_full_or_throw(peer.fd, payload.data(), payload.size(),
                       options_.recv_timeout_s,
                       "frame body from rank " + std::to_string(from));
  }
  peer.pending[header.tag].push_back(std::move(payload));
  return true;
}

std::vector<std::byte> ProcTransport::recv_raw(unsigned self, unsigned from,
                                               int tag) {
  SCD_ASSERT(self == this->self(), "proc transport receives only for self");
  SCD_REQUIRE(from < num_ranks_ && from != self, "rank out of range");
  for (;;) {
    if (auto hit = take_pending(from, tag)) return std::move(*hit);
    if (peers_[from].dead) {
      throw comm::TransportError("recv from dead rank " +
                                 std::to_string(from));
    }
    pump(from);
  }
}

std::optional<std::vector<std::byte>> ProcTransport::recv_bytes_or_dead(
    unsigned self, unsigned from, int tag) {
  SCD_ASSERT(self == this->self(), "proc transport receives only for self");
  SCD_REQUIRE(from < num_ranks_ && from != self, "rank out of range");
  for (;;) {
    if (auto hit = take_pending(from, tag)) return std::move(*hit);
    if (peers_[from].dead) return std::nullopt;
    if (!pump(from)) {
      // EOF: everything the peer sent before dying is parked now; one
      // last look before reporting the death.
      if (auto hit = take_pending(from, tag)) return std::move(*hit);
      return std::nullopt;
    }
  }
}

std::vector<std::byte> ProcTransport::acquire_buffer() {
  if (pool_.empty()) return {};
  std::vector<std::byte> buffer = std::move(pool_.back());
  pool_.pop_back();
  buffer.clear();
  return buffer;
}

void ProcTransport::recycle_buffer(std::vector<std::byte>&& buffer) {
  if (buffer.capacity() == 0 || pool_.size() >= 64) return;
  pool_.push_back(std::move(buffer));
}

ProcTransport::Tree ProcTransport::tree_for(unsigned self,
                                            unsigned participants) const {
  Tree t;
  t.p = participants == 0 ? num_ranks_ : participants;
  SCD_REQUIRE(t.p >= 1 && t.p <= num_ranks_, "bad participant count");
  t.base = num_ranks_ - t.p;
  SCD_REQUIRE(self >= t.base, "rank is not a channel participant");
  t.rel = self - t.base;
  return t;
}

int ProcTransport::coll_tag(unsigned channel, unsigned op) {
  return kCollTagBase + static_cast<int>(channel * kNumCollOps + op);
}

std::vector<std::byte> ProcTransport::tree_gather(
    const Tree& t, int tag, std::span<const std::byte> own) {
  std::vector<std::byte> acc(own.begin(), own.end());
  const unsigned lsb = t.rel == 0 ? t.p : lowest_set_bit(t.rel);
  for (unsigned mask = 1; mask < lsb; mask <<= 1) {
    const unsigned child_rel = t.rel + mask;
    if (child_rel >= t.p) break;
    std::vector<std::byte> sub = recv_raw(self(), t.base + child_rel, tag);
    acc.insert(acc.end(), sub.begin(), sub.end());
    recycle_buffer(std::move(sub));
  }
  if (t.rel != 0) {
    const unsigned parent = t.base + (t.rel - lsb);
    std::vector<std::byte> payload = acquire_buffer();
    payload.assign(acc.begin(), acc.end());
    send_raw(self(), parent, tag, std::move(payload), acc.size());
  }
  return acc;
}

void ProcTransport::tree_bcast(const Tree& t, int tag,
                               std::span<std::byte> data) {
  unsigned lsb = 0;
  if (t.rel != 0) {
    lsb = lowest_set_bit(t.rel);
    const unsigned parent = t.base + (t.rel - lsb);
    std::vector<std::byte> payload = recv_raw(self(), parent, tag);
    SCD_REQUIRE(payload.size() == data.size(),
                "collective payload size mismatch across ranks");
    if (!data.empty()) {
      std::memcpy(data.data(), payload.data(), data.size());
    }
    recycle_buffer(std::move(payload));
  } else {
    lsb = 1;
    while (lsb < t.p) lsb <<= 1;
  }
  for (unsigned mask = lsb >> 1; mask >= 1; mask >>= 1) {
    const unsigned child_rel = t.rel + mask;
    if (child_rel < t.p) {
      std::vector<std::byte> payload = acquire_buffer();
      payload.assign(data.begin(), data.end());
      send_raw(self(), t.base + child_rel, tag, std::move(payload),
               data.size());
    }
    if (mask == 1) break;
  }
}

void ProcTransport::barrier(unsigned self, unsigned channel,
                            unsigned participants) {
  const Tree t = tree_for(self, participants);
  if (t.p == 1) return;
  tree_gather(t, coll_tag(channel, kOpBarrierUp), {});
  tree_bcast(t, coll_tag(channel, kOpBarrierDown), {});
}

void ProcTransport::reduce_sum(unsigned self, unsigned root,
                               std::span<double> inout, unsigned channel,
                               unsigned participants) {
  const Tree t = tree_for(self, participants);
  SCD_REQUIRE(root == t.base,
              "proc reduce_sum roots at the channel's lowest rank");
  // One record per rank: u64 rank then the contribution doubles. Records
  // concatenate up the tree un-summed; only the root folds, in ascending
  // rank order — the exact fold SimTransport performs, so sums are
  // bit-identical across backends.
  const std::size_t record = sizeof(std::uint64_t) + inout.size_bytes();
  std::vector<std::byte> own(record);
  const std::uint64_t rank64 = self;
  std::memcpy(own.data(), &rank64, sizeof(rank64));
  if (!inout.empty()) {
    std::memcpy(own.data() + sizeof(rank64), inout.data(),
                inout.size_bytes());
  }
  std::vector<std::byte> all =
      tree_gather(t, coll_tag(channel, kOpReduceUp), own);
  if (t.rel == 0) {
    SCD_REQUIRE(all.size() == record * t.p,
                "reduce length mismatch across ranks");
    std::vector<const std::byte*> by_rank(num_ranks_, nullptr);
    for (unsigned i = 0; i < t.p; ++i) {
      const std::byte* rec = all.data() + i * record;
      std::uint64_t rank = 0;
      std::memcpy(&rank, rec, sizeof(rank));
      SCD_REQUIRE(rank >= t.base && rank < num_ranks_ &&
                      by_rank[rank] == nullptr,
                  "duplicate or out-of-channel reduce contribution");
      by_rank[rank] = rec + sizeof(rank);
    }
    std::vector<double> acc(inout.size(), 0.0);
    for (unsigned rank = 0; rank < num_ranks_; ++rank) {
      if (by_rank[rank] == nullptr) continue;
      for (std::size_t i = 0; i < acc.size(); ++i) {
        double part = 0.0;
        std::memcpy(&part, by_rank[rank] + i * sizeof(double), sizeof(part));
        acc[i] += part;
      }
    }
    std::copy(acc.begin(), acc.end(), inout.begin());
  }
  // Release barrier down the tree; non-roots leave `inout` untouched,
  // per the contract.
  tree_bcast(t, coll_tag(channel, kOpReduceDown), {});
}

void ProcTransport::broadcast(unsigned self, unsigned root,
                              std::span<std::byte> data, unsigned channel,
                              unsigned participants) {
  const Tree t = tree_for(self, participants);
  SCD_REQUIRE(root == t.base,
              "proc broadcast roots at the channel's lowest rank");
  if (t.p == 1) return;
  tree_bcast(t, coll_tag(channel, kOpBcast), data);
}

void ProcTransport::abort_all() {
  if (self_ < 0) return;
  const FrameHeader poison{kFrameMagic, kAbortTag, 0};
  for (unsigned r = 0; r < num_ranks_; ++r) {
    if (r == static_cast<unsigned>(self_)) continue;
    if (peers_[r].fd >= 0) {
      write_full(peers_[r].fd, &poison, sizeof(poison));  // gone peer = no-op
    }
  }
}

void ProcTransport::mark_rank_dead(unsigned rank) {
  SCD_REQUIRE(rank < num_ranks_, "rank out of range");
  if (self_ >= 0 && rank == static_cast<unsigned>(self_)) {
    // Announce our own scripted death: close every fd. Peers drain what
    // we already sent, then see EOF.
    for (Peer& peer : peers_) close_quiet(peer.fd);
    self_closed_ = true;
    return;
  }
  if (self_ >= 0) peers_[rank].dead = true;
}

bool ProcTransport::rank_dead(unsigned rank) const {
  SCD_REQUIRE(rank < num_ranks_, "rank out of range");
  if (self_ >= 0 && rank == static_cast<unsigned>(self_)) {
    return self_closed_;
  }
  return self_ >= 0 && peers_[rank].dead;
}

}  // namespace scd::proc
