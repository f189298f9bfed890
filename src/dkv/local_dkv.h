// Shared-memory DKV backend.
//
// Used by the multithreaded single-node sampler (the paper's "vertical
// scaling" configuration, Section IV-D), where pi lives in local RAM and
// a row access costs memory bandwidth instead of a network round trip.
// Rows are stored encoded with the configured codec; memory-stream costs
// charge the encoded bytes — the fixed value_bytes() for the dense
// codecs, each row's actual quant::row_bytes() for the sparse top-R
// codecs (storage keeps fixed capacity slots; only the charged bytes
// shrink).
#pragma once

#include <atomic>
#include <vector>

#include "comm/compute_model.h"
#include "dkv/dkv.h"

namespace scd::dkv {

class LocalDkv final : public DkvStore {
 public:
  LocalDkv(std::uint64_t num_rows, std::uint32_t row_width,
           const comm::ComputeModel& node,
           quant::RowCodec codec = quant::RowCodec::kFloat32,
           float sparse_eps = quant::kDefaultSparseEps);

  std::uint64_t num_rows() const override { return num_rows_; }
  std::uint32_t row_width() const override { return row_width_; }
  quant::RowCodec codec() const override { return codec_; }
  std::size_t value_bytes() const override { return value_bytes_; }

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
                   std::uint64_t remote_rows) const override;
  double write_cost(unsigned requester_shard, std::uint64_t local_rows,
                    std::uint64_t remote_rows) const override;

  /// Average bytes one row currently charges (value_bytes() for dense
  /// codecs; tracked mean of quant::row_bytes() for sparse ones).
  double avg_row_wire_bytes() const override;
  /// Average kept pi entries per row (K for dense codecs).
  double avg_row_nnz() const override;
  /// Mass tolerance handed to quant::encode_row for the sparse codecs.
  float sparse_eps() const override { return sparse_eps_; }

  /// Direct row view for tests and the in-process samplers. Only valid
  /// under the kFloat32 codec, where storage *is* the float row.
  std::span<const float> row(std::uint64_t key) const;
  std::span<float> mutable_row(std::uint64_t key);

 private:
  std::span<std::byte> stored(std::uint64_t key) {
    return {data_.data() + key * value_bytes_, value_bytes_};
  }
  std::span<const std::byte> stored(std::uint64_t key) const {
    return {data_.data() + key * value_bytes_, value_bytes_};
  }
  /// Bytes `key` currently charges on the memory stream.
  std::size_t key_bytes(std::uint64_t key) const;
  /// Sum of key_bytes over a batch (rows * value_bytes() when dense).
  std::uint64_t batch_bytes(std::span<const std::uint64_t> keys) const;
  void untrack_row(std::uint64_t key);
  void track_row(std::uint64_t key);

  std::uint64_t num_rows_;
  std::uint32_t row_width_;
  comm::ComputeModel node_;
  quant::RowCodec codec_;
  std::size_t value_bytes_;
  float sparse_eps_;
  bool track_sparse_ = false;
  /// Running totals over all rows; relaxed atomics because the sampler
  /// threads share the store (row writes are disjoint, totals are not).
  std::atomic<std::uint64_t> total_row_bytes_{0};
  std::atomic<std::uint64_t> total_row_nnz_{0};
  std::vector<std::byte> data_;
};

}  // namespace scd::dkv
