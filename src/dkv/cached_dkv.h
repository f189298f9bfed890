// LRU-cached wrapper around a DKV store.
//
// Section III-A argues that caching pi is pointless: "The distribution
// within the graph of the vertices of the mini-batch as well as the
// neighbor sets is completely random ... there is no opportunity to
// exploit data locality through caching." This wrapper exists to
// *quantify* that claim (bench_ablation): it caches rows read through it
// and reports the hit rate, which for uniformly random accesses converges
// to capacity/N — negligible for any realistic cache.
//
// Modeled time: hits cost a local memcpy (row streamed from this node's
// RAM, priced by the ComputeModel); only misses pay the inner store's
// cost. bench_ablation therefore reports time saved, not just hit rate.
//
// Cached rows are kept *encoded* in the inner store's codec: the cache
// mirrors the wire format, so a hit streams value_bytes() per row —
// quantization shrinks the cache footprint and the hit cost alike — and
// the float interface decodes at the boundary exactly like the inner
// store does.
//
// Coherence caveat: a cached row goes stale when its owner rewrites it,
// so users must drop cached copies at the same barrier where the paper's
// algorithm serializes writes. invalidate()/put_rows handle this: puts
// update the cache in place, and invalidate_all() clears it (called at
// the update_pi barrier when used inside the sampler).
#pragma once

#include <list>
#include <unordered_map>
#include <vector>

#include "comm/compute_model.h"
#include "dkv/dkv.h"
#include "trace/recorder.h"

namespace scd::dkv {

class CachedDkv final : public DkvStore {
 public:
  /// Wraps `inner` (not owned) with an LRU cache of `capacity_rows`.
  /// `node` prices the local copy a hit costs.
  CachedDkv(DkvStore& inner, std::uint64_t capacity_rows,
            const comm::ComputeModel& node = comm::ComputeModel{});

  std::uint64_t num_rows() const override { return inner_.num_rows(); }
  std::uint32_t row_width() const override { return inner_.row_width(); }
  quant::RowCodec codec() const override { return inner_.codec(); }
  std::size_t value_bytes() const override { return inner_.value_bytes(); }

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

  double read_cost(unsigned requester_shard, std::uint64_t local_rows,
                   std::uint64_t remote_rows) const override {
    return inner_.read_cost(requester_shard, local_rows, remote_rows);
  }
  double write_cost(unsigned requester_shard, std::uint64_t local_rows,
                    std::uint64_t remote_rows) const override {
    return inner_.write_cost(requester_shard, local_rows, remote_rows);
  }
  double read_cost_keys(unsigned requester_shard,
                        std::span<const std::uint64_t> keys) const override {
    return inner_.read_cost_keys(requester_shard, keys);
  }
  double write_cost_keys(unsigned requester_shard,
                         std::span<const std::uint64_t> keys) const override {
    return inner_.write_cost_keys(requester_shard, keys);
  }
  double avg_row_wire_bytes() const override {
    return inner_.avg_row_wire_bytes();
  }
  double avg_row_nnz() const override { return inner_.avg_row_nnz(); }
  float sparse_eps() const override { return inner_.sparse_eps(); }

  /// Modeled seconds `rows` average hits cost: the cached (encoded) rows
  /// streamed from local RAM. Under the dense codecs every row charges
  /// value_bytes(); under the sparse ones the real hit path charges each
  /// cached row's actual bytes, for which this is the store-average
  /// estimate.
  double hit_cost(std::uint64_t rows) const {
    return node_.local_bytes_time(static_cast<std::uint64_t>(
        rows * inner_.avg_row_wire_bytes()));
  }

  /// Drop every cached row (stale after another shard's writes).
  void invalidate_all();

  /// Install (or clear, with nullptr) a trace recorder: get_rows counts
  /// hit and miss rows on the requester's lane (shard s -> lane
  /// s + rank_offset). The wrapped inner store is not installed here —
  /// call its install_trace separately if it has one.
  void install_trace(trace::TraceRecorder* recorder,
                     unsigned rank_offset = 1) {
    trace_ = recorder;
    trace_rank_offset_ = rank_offset;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Rows displaced by capacity pressure (LRU pop), also counted on the
  /// requester's lane as trace::Metric::kDkvEvictions. invalidate_all()
  /// drops are deliberate coherence flushes, not evictions, and are not
  /// counted here.
  std::uint64_t evictions() const { return evictions_; }
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total > 0 ? static_cast<double>(hits_) /
                           static_cast<double>(total)
                     : 0.0;
  }
  std::uint64_t cached_rows() const { return map_.size(); }

 private:
  struct Entry {
    std::uint64_t key;
    std::vector<std::byte> value;  // encoded, value_bytes() long
  };

  void touch(std::list<Entry>::iterator it);
  void insert(unsigned requester_shard, std::uint64_t key,
              std::span<const std::byte> value);
  /// Shared hit/miss pass: serve hits through `on_hit(slot, encoded)`,
  /// collect misses into miss_keys_/miss_slots_, count metrics. Returns
  /// the hit cost.
  template <typename OnHit>
  double classify(unsigned requester_shard,
                  std::span<const std::uint64_t> keys, OnHit&& on_hit);

  DkvStore& inner_;
  std::uint64_t capacity_;
  comm::ComputeModel node_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  trace::TraceRecorder* trace_ = nullptr;
  unsigned trace_rank_offset_ = 1;
  // Reused per-call scratch for the miss pass.
  std::vector<std::uint64_t> miss_keys_;
  std::vector<std::size_t> miss_slots_;
  std::vector<std::byte> fetched_;
};

}  // namespace scd::dkv
