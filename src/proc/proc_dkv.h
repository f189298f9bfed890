// Multi-process pi-row store: one shared memory mapping that every rank
// reads and writes directly — the process-backend implementation of
// dkv::ShardedDkv, and the single-host counterpart of the paper's
// one-sided RDMA store (Section III-B).
//
// The launcher constructs the store *before* forking: the constructor
// maps one MAP_SHARED | MAP_ANONYMOUS region holding the shard remap and
// a flat array of fixed-capacity encoded row slots (slot of `key` at
// key * value_bytes()), and every init_row issued pre-fork writes the
// initial image into it. The forked ranks inherit the same physical
// pages, so a put on one rank is a write another rank's get reads — no
// server thread, no request protocol, no copy of the image per process.
// Rows are stored *encoded* with the configured RowCodec; encode and
// decode happen at the float interface, exactly as in SimRdmaDkv.
//
// Ordering: the sampler's stages are barrier-separated (no read/write or
// write/write overlap on a row within a stage), and each barrier is a
// socket round trip through the kernel. The release fence after a put
// batch and the acquire fence before a get batch pair across that
// barrier, so every row a rank wrote before the barrier is what another
// rank reads after it. The store checks nothing beyond key bounds,
// like its RDMA and simulated counterparts.
//
// Fault tolerance: rehome_shard() only updates the remap, which lives in
// the shared region so every rank's effective_owner() agrees — no rows
// move, because every rank already addresses every row. The region
// outlives any one process: rows a worker put before it fail-stopped
// stay readable, and the master's rollback restore rewrites every row in
// place. A SIGKILL mid-put leaves at worst a torn row, which that
// restore repairs (crash runs require rollback_interval > 0). Every cost
// query returns 0.0: on this backend the callers charge measured wall
// time, not modeled seconds.
//
// After the run the launcher's row()/read_row() read the final image
// straight from the mapping. The mapping is shared only between
// processes forked from one launcher, so the process backend runs on
// one host.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dkv/partition.h"
#include "dkv/sharded_dkv.h"

namespace scd::proc {

class ProcDkv final : public dkv::ShardedDkv {
 public:
  /// Maps the shared region. Call in the launcher before forking.
  /// `num_ranks` counts the master: shard s belongs to worker rank s + 1.
  ProcDkv(std::uint64_t num_rows, std::uint32_t row_width,
          unsigned num_ranks, quant::RowCodec codec, float sparse_eps);
  ~ProcDkv() override;

  ProcDkv(const ProcDkv&) = delete;
  ProcDkv& operator=(const ProcDkv&) = delete;

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

 private:
  std::byte* slot(std::uint64_t key) const;

  dkv::RowPartition partition_;
  std::uint32_t row_width_;
  quant::RowCodec codec_;
  std::size_t value_bytes_;
  float sparse_eps_;

  /// The shared mapping: the shard remap (one atomic per shard, shard ->
  /// effective shard), then the row slots from rows_ on.
  void* region_ = nullptr;
  std::size_t region_bytes_ = 0;
  std::atomic<unsigned>* remap_ = nullptr;
  std::byte* rows_ = nullptr;
};

}  // namespace scd::proc
