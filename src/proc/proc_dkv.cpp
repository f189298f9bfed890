#include "proc/proc_dkv.h"

#include <cstring>
#include <string>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/transport.h"
#include "proc/framing.h"
#include "util/error.h"
#include "util/log.h"

namespace scd::proc {

namespace {

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ProcDkv::ProcDkv(std::uint64_t num_rows, std::uint32_t row_width,
                 unsigned num_ranks, quant::RowCodec codec, float sparse_eps,
                 double recv_timeout_s)
    : partition_(num_rows, num_ranks - 1),
      row_width_(row_width),
      codec_(codec),
      value_bytes_(quant::encoded_bytes(codec, row_width)),
      sparse_eps_(sparse_eps),
      recv_timeout_s_(recv_timeout_s),
      num_ranks_(num_ranks) {
  SCD_REQUIRE(num_ranks >= 2, "proc store needs a master and >= 1 worker");
  SCD_REQUIRE(row_width >= 1, "row_width must be >= 1");
  data_.resize(num_rows * value_bytes_);
  const unsigned shards = partition_.num_shards();
  remap_ = std::make_unique<std::atomic<unsigned>[]>(shards);
  for (unsigned s = 0; s < shards; ++s) remap_[s].store(s);
  mesh_.resize(shards);
  for (unsigned s = 0; s < shards; ++s) {
    mesh_[s].resize(num_ranks);
    for (unsigned r = 0; r < num_ranks; ++r) {
      if (r == s + 1) continue;  // own-shard access is a local memcpy
      int sv[2];
      SCD_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                  "socketpair failed");
      mesh_[s][r].client = sv[0];
      mesh_[s][r].server = sv[1];
    }
  }
}

ProcDkv::~ProcDkv() {
  if (server_.joinable()) {
    stop_.store(true);
    server_.join();
  }
  for (int& fd : client_fds_) close_quiet(fd);
  for (int& fd : serve_fds_) close_quiet(fd);
  for (auto& row : mesh_) {
    for (Channel& ch : row) {
      close_quiet(ch.client);
      close_quiet(ch.server);
    }
  }
}

void ProcDkv::attach(unsigned rank) {
  SCD_REQUIRE(rank < num_ranks_, "rank out of range");
  SCD_REQUIRE(self_ < 0, "store already attached in this process");
  const unsigned shards = partition_.num_shards();
  client_fds_.assign(shards, -1);
  serve_fds_.assign(num_ranks_, -1);
  for (unsigned s = 0; s < shards; ++s) {
    for (unsigned r = 0; r < num_ranks_; ++r) {
      Channel& ch = mesh_[s][r];
      if (r == rank) {
        client_fds_[s] = ch.client;
        ch.client = -1;
        close_quiet(ch.server);
      } else if (s + 1 == rank) {
        serve_fds_[r] = ch.server;
        ch.server = -1;
        close_quiet(ch.client);
      } else {
        close_quiet(ch.client);
        close_quiet(ch.server);
      }
    }
  }
  self_ = static_cast<int>(rank);
  if (rank >= 1) {
    server_ = std::thread([this] { serve(); });
  }
}

void ProcDkv::join_server() {
  if (server_.joinable()) server_.join();
}

void ProcDkv::shutdown_servers() {
  SCD_REQUIRE(self_ >= 0, "shutdown_servers needs an attached store");
  const Request req{kShutdown, 0, 0};
  for (unsigned s = 0; s < partition_.num_shards(); ++s) {
    if (client_fds_[s] >= 0) {
      write_full(client_fds_[s], &req, sizeof(req));  // gone server = no-op
    }
  }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

void ProcDkv::serve() {
  std::vector<pollfd> pfds;
  std::vector<unsigned> pfd_rank;
  for (;;) {
    if (stop_.load()) return;
    pfds.clear();
    pfd_rank.clear();
    for (unsigned r = 0; r < num_ranks_; ++r) {
      if (serve_fds_[r] >= 0) {
        pfds.push_back({serve_fds_[r], POLLIN, 0});
        pfd_rank.push_back(r);
      }
    }
    if (pfds.empty()) return;  // every client hung up
    const int pr = ::poll(pfds.data(), pfds.size(), 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) == 0) {
        continue;
      }
      bool shutdown = false;
      bool open = false;
      try {
        open = serve_one(serve_fds_[pfd_rank[i]], shutdown);
      } catch (const std::exception& e) {
        // A malformed request drops that client (it sees EOF), not the
        // whole worker process.
        SCD_LOG_WARN() << "dkv shard " << self_ - 1 << ": dropping client "
                       << pfd_rank[i] << ": " << e.what();
      }
      if (!open) close_quiet(serve_fds_[pfd_rank[i]]);
      if (shutdown) return;
    }
  }
}

bool ProcDkv::serve_one(int fd, bool& shutdown) {
  Request req;
  const IoStatus st = read_full(fd, &req, sizeof(req), recv_timeout_s_);
  if (st != IoStatus::kOk) return false;  // EOF: client is gone
  switch (req.op) {
    case kShutdown:
      shutdown = true;
      return true;
    case kRehome: {
      std::uint64_t args[2];
      read_full_or_throw(fd, args, sizeof(args), recv_timeout_s_,
                         "dkv rehome request");
      SCD_REQUIRE(args[0] < partition_.num_shards() &&
                      args[1] < partition_.num_shards(),
                  "rehome shard out of range");
      remap_[args[0]].store(static_cast<unsigned>(args[1]));
      const std::byte ack{1};
      return write_full(fd, &ack, sizeof(ack));
    }
    case kGet: {
      const std::size_t count =
          checked_count(req.count, sizeof(std::uint64_t) + value_bytes_,
                        kMaxFrameBytes, "dkv get request");
      std::vector<std::uint64_t> keys(count);
      read_full_or_throw(fd, keys.data(), keys.size() * sizeof(keys[0]),
                         recv_timeout_s_, "dkv get request");
      std::vector<std::byte> reply(count * value_bytes_);
      {
        std::lock_guard<std::mutex> lock(data_mu_);
        for (std::size_t i = 0; i < count; ++i) {
          SCD_REQUIRE(keys[i] < partition_.num_rows(), "dkv key out of range");
          std::memcpy(reply.data() + i * value_bytes_, slot(keys[i]),
                      value_bytes_);
        }
      }
      return write_full(fd, reply.data(), reply.size());
    }
    case kPut: {
      const std::size_t count =
          checked_count(req.count, sizeof(std::uint64_t) + value_bytes_,
                        kMaxFrameBytes, "dkv put request");
      std::vector<std::uint64_t> keys(count);
      read_full_or_throw(fd, keys.data(), keys.size() * sizeof(keys[0]),
                         recv_timeout_s_, "dkv put request");
      std::vector<std::byte> rows(count * value_bytes_);
      read_full_or_throw(fd, rows.data(), rows.size(), recv_timeout_s_,
                         "dkv put payload");
      {
        std::lock_guard<std::mutex> lock(data_mu_);
        for (std::size_t i = 0; i < count; ++i) {
          SCD_REQUIRE(keys[i] < partition_.num_rows(), "dkv key out of range");
          std::memcpy(slot(keys[i]), rows.data() + i * value_bytes_,
                      value_bytes_);
        }
      }
      // Synchronous ack: the writer's stage barrier must imply global
      // visibility of its puts.
      const std::byte ack{1};
      return write_full(fd, &ack, sizeof(ack));
    }
    default:
      throw comm::TransportError("unknown dkv request op " +
                                 std::to_string(req.op));
  }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

unsigned ProcDkv::effective_owner(std::uint64_t key) const {
  return remap_[partition_.owner(key)].load();
}

bool ProcDkv::row_is_local(std::uint64_t key) const {
  return self_ >= 1 &&
         effective_owner(key) == static_cast<unsigned>(self_) - 1;
}

void ProcDkv::remote_get(unsigned shard, std::span<const std::uint64_t> keys,
                         std::span<std::byte> rows) {
  const int fd = client_fds_[shard];
  SCD_REQUIRE(fd >= 0, "no channel to dkv shard " + std::to_string(shard));
  const std::string what = "dkv shard " + std::to_string(shard);
  const Request req{kGet, 0, keys.size()};
  write_full_or_throw(fd, &req, sizeof(req), what);
  write_full_or_throw(fd, keys.data(), keys.size_bytes(), what);
  read_full_or_throw(fd, rows.data(), keys.size() * value_bytes_,
                     recv_timeout_s_, what);
}

void ProcDkv::remote_put(unsigned shard, std::span<const std::uint64_t> keys,
                         std::span<const std::byte> rows) {
  const int fd = client_fds_[shard];
  SCD_REQUIRE(fd >= 0, "no channel to dkv shard " + std::to_string(shard));
  const std::string what = "dkv shard " + std::to_string(shard);
  const Request req{kPut, 0, keys.size()};
  write_full_or_throw(fd, &req, sizeof(req), what);
  write_full_or_throw(fd, keys.data(), keys.size_bytes(), what);
  write_full_or_throw(fd, rows.data(), keys.size() * value_bytes_, what);
  std::byte ack;
  read_full_or_throw(fd, &ack, sizeof(ack), recv_timeout_s_, what);
}

void ProcDkv::route_get(std::span<const std::uint64_t> keys, std::byte* out) {
  const unsigned shards = partition_.num_shards();
  const unsigned own =
      self_ >= 1 ? static_cast<unsigned>(self_) - 1 : shards;  // none
  // Counting sort of the batch by effective owner: one coalesced request
  // per contacted shard, mirroring the modeled store's message count.
  std::vector<std::uint64_t> counts(shards + 1, 0);
  for (std::uint64_t key : keys) ++counts[effective_owner(key)];
  std::vector<std::uint64_t> offset(shards + 1, 0);
  for (unsigned s = 1; s <= shards; ++s) {
    offset[s] = offset[s - 1] + counts[s - 1];
  }
  group_keys_.resize(keys.size());
  group_slot_.resize(keys.size());
  std::vector<std::uint64_t> cursor = offset;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t at = cursor[effective_owner(keys[i])]++;
    group_keys_[at] = keys[i];
    group_slot_[at] = static_cast<std::uint32_t>(i);
  }
  for (unsigned s = 0; s < shards; ++s) {
    const std::uint64_t begin = offset[s];
    const std::uint64_t n = counts[s];
    if (n == 0) continue;
    if (s == own || self_ < 0) {
      std::lock_guard<std::mutex> lock(data_mu_);
      for (std::uint64_t i = begin; i < begin + n; ++i) {
        std::memcpy(out + group_slot_[i] * value_bytes_,
                    slot(group_keys_[i]), value_bytes_);
      }
      continue;
    }
    stage_.resize(n * value_bytes_);
    remote_get(s, {group_keys_.data() + begin, n}, stage_);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::memcpy(out + group_slot_[begin + i] * value_bytes_,
                  stage_.data() + i * value_bytes_, value_bytes_);
    }
  }
}

void ProcDkv::route_put(std::span<const std::uint64_t> keys,
                        const std::byte* values) {
  const unsigned shards = partition_.num_shards();
  const unsigned own =
      self_ >= 1 ? static_cast<unsigned>(self_) - 1 : shards;
  std::vector<std::uint64_t> counts(shards + 1, 0);
  for (std::uint64_t key : keys) ++counts[effective_owner(key)];
  std::vector<std::uint64_t> offset(shards + 1, 0);
  for (unsigned s = 1; s <= shards; ++s) {
    offset[s] = offset[s - 1] + counts[s - 1];
  }
  group_keys_.resize(keys.size());
  group_slot_.resize(keys.size());
  std::vector<std::uint64_t> cursor = offset;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::uint64_t at = cursor[effective_owner(keys[i])]++;
    group_keys_[at] = keys[i];
    group_slot_[at] = static_cast<std::uint32_t>(i);
  }
  for (unsigned s = 0; s < shards; ++s) {
    const std::uint64_t begin = offset[s];
    const std::uint64_t n = counts[s];
    if (n == 0) continue;
    if (s == own || self_ < 0) {
      std::lock_guard<std::mutex> lock(data_mu_);
      for (std::uint64_t i = begin; i < begin + n; ++i) {
        std::memcpy(slot(group_keys_[i]),
                    values + group_slot_[i] * value_bytes_, value_bytes_);
      }
      continue;
    }
    stage_.resize(n * value_bytes_);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::memcpy(stage_.data() + i * value_bytes_,
                  values + group_slot_[begin + i] * value_bytes_,
                  value_bytes_);
    }
    remote_put(s, {group_keys_.data() + begin, n}, stage_);
  }
}

// ---------------------------------------------------------------------
// DkvStore
// ---------------------------------------------------------------------

void ProcDkv::init_row(std::uint64_t key, std::span<const float> value) {
  SCD_REQUIRE(key < partition_.num_rows(), "key out of range");
  SCD_REQUIRE(value.size() == row_width_, "row width mismatch");
  if (self_ < 0) {
    // Launcher, pre-fork: write the shared initial image directly.
    quant::encode_row(codec_, value, {slot(key), value_bytes_}, sparse_eps_);
    return;
  }
  // Attached (the FT rollback restore): route through the effective
  // owner so the heir's stale copy-on-write image gets rewritten.
  encode_scratch_.resize(value_bytes_);
  quant::encode_row(codec_, value, encode_scratch_, sparse_eps_);
  route_put({&key, 1}, encode_scratch_.data());
}

double ProcDkv::get_rows(unsigned /*requester_shard*/,
                         std::span<const std::uint64_t> keys,
                         std::span<float> out) {
  SCD_REQUIRE(out.size() == keys.size() * row_width_, "output size mismatch");
  io_stage_.resize(keys.size() * value_bytes_);
  route_get(keys, io_stage_.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    quant::decode_row(
        codec_,
        {io_stage_.data() + i * value_bytes_, value_bytes_},
        out.subspan(i * row_width_, row_width_));
  }
  return 0.0;
}

double ProcDkv::put_rows(unsigned /*requester_shard*/,
                         std::span<const std::uint64_t> keys,
                         std::span<const float> values) {
  SCD_REQUIRE(values.size() == keys.size() * row_width_,
              "value size mismatch");
  io_stage_.resize(keys.size() * value_bytes_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    quant::encode_row(codec_, values.subspan(i * row_width_, row_width_),
                      {io_stage_.data() + i * value_bytes_, value_bytes_},
                      sparse_eps_);
  }
  route_put(keys, io_stage_.data());
  return 0.0;
}

double ProcDkv::get_rows_encoded(unsigned /*requester_shard*/,
                                 std::span<const std::uint64_t> keys,
                                 std::span<std::byte> out) {
  SCD_REQUIRE(out.size() >= keys.size() * value_bytes_,
              "output size mismatch");
  route_get(keys, out.data());
  return 0.0;
}

double ProcDkv::put_rows_encoded(unsigned /*requester_shard*/,
                                 std::span<const std::uint64_t> keys,
                                 std::span<const std::byte> values) {
  SCD_REQUIRE(values.size() >= keys.size() * value_bytes_,
              "value size mismatch");
  route_put(keys, values.data());
  return 0.0;
}

// ---------------------------------------------------------------------
// ShardedDkv
// ---------------------------------------------------------------------

std::span<const float> ProcDkv::row(std::uint64_t key) const {
  SCD_REQUIRE(codec_ == quant::RowCodec::kFloat32,
              "direct row views need the fp32 codec; use read_row");
  SCD_REQUIRE(key < partition_.num_rows(), "key out of range");
  SCD_REQUIRE(self_ < 0 || pulled_ || row_is_local(key),
              "row() on the proc backend is local-only; pull_all_rows() "
              "first or use read_row");
  return {reinterpret_cast<const float*>(slot(key)), row_width_};
}

void ProcDkv::read_row(std::uint64_t key, std::span<float> out) const {
  SCD_REQUIRE(key < partition_.num_rows(), "key out of range");
  SCD_REQUIRE(out.size() == row_width_, "row width mismatch");
  if (self_ < 0 || pulled_ || row_is_local(key)) {
    std::lock_guard<std::mutex> lock(data_mu_);
    quant::decode_row(codec_, {slot(key), value_bytes_}, out);
    return;
  }
  // Remote single-row fetch (the master's mid-run checkpoint snapshot);
  // sockets make this logically non-const but observably pure.
  std::vector<std::byte> enc(value_bytes_);
  const unsigned owner = effective_owner(key);
  const_cast<ProcDkv*>(this)->remote_get(owner, {&key, 1}, enc);
  quant::decode_row(codec_, enc, out);
}

void ProcDkv::rehome_shard(unsigned shard, unsigned new_owner) {
  SCD_REQUIRE(shard < partition_.num_shards() &&
                  new_owner < partition_.num_shards(),
              "shard out of range");
  remap_[shard].store(new_owner);
  if (self_ < 0) return;
  // Fan the remap out to every server so workers route consistently; a
  // server whose process already died is skipped (its shard is exactly
  // the one being re-homed).
  const Request req{kRehome, 0, 2};
  const std::uint64_t args[2] = {shard, new_owner};
  for (unsigned s = 0; s < partition_.num_shards(); ++s) {
    const int fd = client_fds_[s];
    if (fd < 0) continue;
    if (!write_full(fd, &req, sizeof(req)) ||
        !write_full(fd, args, sizeof(args))) {
      continue;
    }
    std::byte ack;
    read_full(fd, &ack, sizeof(ack), recv_timeout_s_);  // EOF = server gone
  }
}

void ProcDkv::pull_all_rows() {
  SCD_REQUIRE(self_ >= 0, "pull_all_rows needs an attached store");
  // Re-homing moves whole shards, so each original block is wholly owned
  // by one (possibly re-homed) server: one bulk GET per block.
  std::vector<std::uint64_t> keys;
  for (unsigned o = 0; o < partition_.num_shards(); ++o) {
    const auto [begin, end] = partition_.range(o);
    if (begin == end) continue;
    const unsigned target = remap_[o].load();
    keys.resize(end - begin);
    for (std::uint64_t k = begin; k < end; ++k) keys[k - begin] = k;
    if (self_ >= 1 && target == static_cast<unsigned>(self_) - 1) {
      continue;  // already local
    }
    std::lock_guard<std::mutex> lock(data_mu_);
    remote_get(target, keys, {slot(begin), keys.size() * value_bytes_});
  }
  pulled_ = true;
}

}  // namespace scd::proc
