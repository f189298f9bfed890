// Multi-process pi-row store: shard-owning server threads behind Unix
// sockets — the process-backend implementation of dkv::ShardedDkv.
//
// Life cycle mirrors ProcTransport: the launcher constructs the store
// *before* forking (allocating the row array and one client/server
// socketpair per (rank, shard) pair), every init_row issued pre-fork
// writes the shared initial image that all children inherit copy-on-
// write, and attach(rank) closes the foreign fds post-fork. Worker rank
// s + 1 then starts one server thread for shard s that answers GET/PUT/
// REHOME requests over its per-client sockets; batches target each
// contacted shard with ONE length-prefixed request (the same coalescing
// the modeled store charges for), rows travel *encoded* with the
// configured RowCodec, and a client's accesses to its own shard bypass
// the sockets entirely — a memcpy into the local array, safe under the
// algorithm's barrier-separated stage discipline.
//
// PUT requests are acknowledged synchronously, so a worker's writes are
// globally visible before it reaches the stage barrier — the ordering
// the sampler's read-after-barrier pattern relies on. Every cost query
// returns 0.0: on this backend the callers charge measured wall time,
// not modeled seconds.
//
// Fault tolerance: rehome_shard() re-points the shard->owner map on
// every *server* (REHOME fan-out with acks) and locally on the caller;
// the heir's copy-on-write image of the re-homed rows is stale by
// construction, which is why the sampler requires rollback_interval > 0
// for process-backend crash runs — the master's post-crash restore
// rewrites every row through its effective owner (init_row routes over
// the sockets once attached). A crashed rank's server thread stays
// alive until shutdown: only the worker *loop* fail-stops, matching the
// paper's fail-stop model where the store survives on other machines.
//
// After the rank functions return, the launcher calls pull_all_rows()
// to fetch the final image from the servers (through effective owners),
// then shutdown_servers(); snapshots and row views are local
// thereafter.
#pragma once

#include <cstddef>
#include <cstdint>

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dkv/partition.h"
#include "dkv/sharded_dkv.h"

namespace scd::proc {

class ProcDkv final : public dkv::ShardedDkv {
 public:
  /// Builds storage and the socket mesh. Call in the launcher before
  /// forking. `num_ranks` counts the master: shard s is served by rank
  /// s + 1.
  ProcDkv(std::uint64_t num_rows, std::uint32_t row_width,
          unsigned num_ranks, quant::RowCodec codec, float sparse_eps,
          double recv_timeout_s);
  ~ProcDkv() override;

  ProcDkv(const ProcDkv&) = delete;
  ProcDkv& operator=(const ProcDkv&) = delete;

  /// Adopt rank `rank` in this process: closes foreign fds and, on
  /// worker ranks, starts the shard server thread.
  void attach(unsigned rank);
  bool attached() const { return self_ >= 0; }

  /// Worker rank, after its rank function returned: block until the
  /// server thread exits (on a SHUTDOWN request or when every client
  /// hung up).
  void join_server();

  /// Launcher, after the run: post a SHUTDOWN to every server.
  void shutdown_servers();

  /// Launcher, after the run and before shutdown_servers(): fetch every
  /// row from its effective owner into the local array, making row()/
  /// read_row() serve locally from the final image.
  void pull_all_rows();

  // -- DkvStore -----------------------------------------------------------
  std::uint64_t num_rows() const override { return partition_.num_rows(); }
  std::uint32_t row_width() const override { return row_width_; }
  quant::RowCodec codec() const override { return codec_; }
  std::size_t value_bytes() const override { return value_bytes_; }
  float sparse_eps() const override { return sparse_eps_; }

  void init_row(std::uint64_t key, std::span<const float> value) override;

  double get_rows(unsigned requester_shard,
                  std::span<const std::uint64_t> keys,
                  std::span<float> out) override;
  double put_rows(unsigned requester_shard,
                  std::span<const std::uint64_t> keys,
                  std::span<const float> values) override;
  double get_rows_encoded(unsigned requester_shard,
                          std::span<const std::uint64_t> keys,
                          std::span<std::byte> out) override;
  double put_rows_encoded(unsigned requester_shard,
                          std::span<const std::uint64_t> keys,
                          std::span<const std::byte> values) override;

  /// All zero: wall-clock callers measure instead of modeling.
  double read_cost(unsigned, std::uint64_t, std::uint64_t) const override {
    return 0.0;
  }
  double write_cost(unsigned, std::uint64_t, std::uint64_t) const override {
    return 0.0;
  }

  // -- ShardedDkv ---------------------------------------------------------
  const dkv::RowPartition& partition() const override { return partition_; }
  std::span<const float> row(std::uint64_t key) const override;
  void read_row(std::uint64_t key, std::span<float> out) const override;
  void rehome_shard(unsigned shard, unsigned new_owner) override;
  double rehome_cost(unsigned) const override { return 0.0; }
  unsigned effective_owner(std::uint64_t key) const override;

  // -- Wire protocol --------------------------------------------------------
  /// One client request: GET is followed by `count` keys, PUT by `count`
  /// keys then `count` encoded rows, REHOME by two shard ids. `count`
  /// comes off the socket, so the server caps it before sizing anything
  /// by it.
  enum Op : std::uint32_t { kGet = 1, kPut, kRehome, kShutdown };
  struct Request {
    std::uint32_t op = 0;
    std::uint32_t pad = 0;
    std::uint64_t count = 0;
  };
  static_assert(sizeof(Request) == 16);

  /// Answer one request read from `fd` — the server thread's unit of
  /// work. False when the client hung up or asked for shutdown; throws
  /// comm::TransportError on a malformed request (the server thread then
  /// drops that client).
  bool serve_one(int fd, bool& shutdown);

 private:
  /// One remote batch: `keys` (all owned by `shard` post-remap) moved
  /// to/from the contiguous staging area `rows` of keys.size() slots.
  void remote_get(unsigned shard, std::span<const std::uint64_t> keys,
                  std::span<std::byte> rows);
  void remote_put(unsigned shard, std::span<const std::uint64_t> keys,
                  std::span<const std::byte> rows);
  /// Group `keys` by effective owner and move each group, local slots
  /// via memcpy, remote groups via one coalesced request per shard.
  /// `scatter[i]` is the slot of keys[i] in the caller's buffer.
  void route_get(std::span<const std::uint64_t> keys, std::byte* out);
  void route_put(std::span<const std::uint64_t> keys, const std::byte* values);

  void serve();

  bool row_is_local(std::uint64_t key) const;
  std::byte* slot(std::uint64_t key) {
    return data_.data() + key * value_bytes_;
  }
  const std::byte* slot(std::uint64_t key) const {
    return data_.data() + key * value_bytes_;
  }

  dkv::RowPartition partition_;
  std::uint32_t row_width_;
  quant::RowCodec codec_;
  std::size_t value_bytes_;
  float sparse_eps_;
  double recv_timeout_s_;
  unsigned num_ranks_;
  int self_ = -1;
  bool pulled_ = false;

  std::vector<std::byte> data_;
  /// data_ guard within one process: the shard server thread and the
  /// rank's main thread both touch the array (barrier-separated across
  /// processes, but the intra-process overlap needs a real lock).
  mutable std::mutex data_mu_;

  /// Pre-attach: mesh_[shard][rank] = {client end, server end} of the
  /// rank->shard channel (unused when rank hosts the shard).
  struct Channel {
    int client = -1;
    int server = -1;
  };
  std::vector<std::vector<Channel>> mesh_;
  /// Post-attach: this rank's client fd per shard (-1 for its own).
  std::vector<int> client_fds_;
  /// Post-attach, worker ranks: server-side fd per client rank.
  std::vector<int> serve_fds_;
  std::thread server_;
  std::atomic<bool> stop_{false};

  /// shard -> effective shard, updated by REHOME on every process.
  /// Atomics because the server thread remaps while the main thread
  /// routes; a plain array would be a formal data race.
  std::unique_ptr<std::atomic<unsigned>[]> remap_;

  // Reused batch scratch (client side, single-threaded per rank).
  std::vector<std::uint64_t> group_keys_;
  std::vector<std::uint32_t> group_slot_;
  std::vector<std::byte> stage_;
  std::vector<std::byte> io_stage_;
  std::vector<std::byte> encode_scratch_;
};

}  // namespace scd::proc
