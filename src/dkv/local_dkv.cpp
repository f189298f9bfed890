#include "dkv/local_dkv.h"

#include <cmath>
#include <cstring>

#include "util/error.h"

namespace scd::dkv {

LocalDkv::LocalDkv(std::uint64_t num_rows, std::uint32_t row_width,
                   const comm::ComputeModel& node, quant::RowCodec codec,
                   float sparse_eps)
    : num_rows_(num_rows),
      row_width_(row_width),
      node_(node),
      codec_(codec),
      value_bytes_(quant::encoded_bytes(codec, row_width)),
      sparse_eps_(sparse_eps) {
  SCD_REQUIRE(num_rows >= 1 && row_width >= 1, "empty store");
  data_.assign(num_rows * value_bytes_, std::byte{0});
  track_sparse_ = quant::is_sparse(codec_);
  if (codec_ != quant::RowCodec::kFloat32) {
    // Encoded all-zero rows are not all-zero bytes; initialize properly.
    std::vector<float> zero(row_width_, 0.0f);
    for (std::uint64_t key = 0; key < num_rows_; ++key) {
      quant::encode_row(codec_, zero, stored(key), sparse_eps_);
    }
  }
  if (track_sparse_) {
    total_row_bytes_.store(
        num_rows_ * quant::row_bytes(codec_, row_width_, stored(0)),
        std::memory_order_relaxed);
    total_row_nnz_.store(
        num_rows_ * std::uint64_t{quant::row_nnz(codec_, row_width_,
                                                 stored(0))},
        std::memory_order_relaxed);
  }
}

std::size_t LocalDkv::key_bytes(std::uint64_t key) const {
  if (!track_sparse_) return value_bytes_;
  return quant::row_bytes(codec_, row_width_, stored(key));
}

std::uint64_t LocalDkv::batch_bytes(
    std::span<const std::uint64_t> keys) const {
  if (!track_sparse_) return keys.size() * value_bytes_;
  std::uint64_t bytes = 0;
  for (std::uint64_t key : keys) bytes += key_bytes(key);
  return bytes;
}

void LocalDkv::untrack_row(std::uint64_t key) {
  if (!track_sparse_) return;
  total_row_bytes_.fetch_sub(quant::row_bytes(codec_, row_width_, stored(key)),
                             std::memory_order_relaxed);
  total_row_nnz_.fetch_sub(quant::row_nnz(codec_, row_width_, stored(key)),
                           std::memory_order_relaxed);
}

void LocalDkv::track_row(std::uint64_t key) {
  if (!track_sparse_) return;
  total_row_bytes_.fetch_add(quant::row_bytes(codec_, row_width_, stored(key)),
                             std::memory_order_relaxed);
  total_row_nnz_.fetch_add(quant::row_nnz(codec_, row_width_, stored(key)),
                           std::memory_order_relaxed);
}

double LocalDkv::avg_row_wire_bytes() const {
  if (!track_sparse_) return static_cast<double>(value_bytes_);
  return static_cast<double>(total_row_bytes_.load(std::memory_order_relaxed)) /
         static_cast<double>(num_rows_);
}

double LocalDkv::avg_row_nnz() const {
  if (!track_sparse_) return static_cast<double>(row_width_ - 1);
  return static_cast<double>(total_row_nnz_.load(std::memory_order_relaxed)) /
         static_cast<double>(num_rows_);
}

void LocalDkv::init_row(std::uint64_t key, std::span<const float> value) {
  SCD_REQUIRE(key < num_rows_, "row key out of range");
  SCD_REQUIRE(value.size() == row_width_, "row width mismatch");
  untrack_row(key);
  quant::encode_row(codec_, value, stored(key), sparse_eps_);
  track_row(key);
}

double LocalDkv::get_rows(unsigned /*requester_shard*/,
                          std::span<const std::uint64_t> keys,
                          std::span<float> out) {
  SCD_REQUIRE(out.size() == keys.size() * row_width_,
              "output buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows_, "row key out of range");
    quant::decode_row(codec_, stored(keys[i]),
                      out.subspan(i * row_width_, row_width_));
  }
  return node_.local_bytes_time(batch_bytes(keys));
}

double LocalDkv::put_rows(unsigned /*requester_shard*/,
                          std::span<const std::uint64_t> keys,
                          std::span<const float> values) {
  SCD_REQUIRE(values.size() == keys.size() * row_width_,
              "input buffer size mismatch");
  // Encode (re-sparsifying under the sparse codecs) first so the charge
  // covers the bytes this write actually streams.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows_, "row key out of range");
    untrack_row(keys[i]);
    quant::encode_row(codec_, values.subspan(i * row_width_, row_width_),
                      stored(keys[i]), sparse_eps_);
    track_row(keys[i]);
  }
  return node_.local_bytes_time(batch_bytes(keys));
}

double LocalDkv::get_rows_encoded(unsigned /*requester_shard*/,
                                  std::span<const std::uint64_t> keys,
                                  std::span<std::byte> out) {
  SCD_REQUIRE(out.size() == keys.size() * value_bytes_,
              "output buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows_, "row key out of range");
    std::memcpy(out.data() + i * value_bytes_, stored(keys[i]).data(),
                value_bytes_);
  }
  return node_.local_bytes_time(batch_bytes(keys));
}

double LocalDkv::put_rows_encoded(unsigned /*requester_shard*/,
                                  std::span<const std::uint64_t> keys,
                                  std::span<const std::byte> values) {
  SCD_REQUIRE(values.size() == keys.size() * value_bytes_,
              "input buffer size mismatch");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    SCD_ASSERT(keys[i] < num_rows_, "row key out of range");
    untrack_row(keys[i]);
    std::memcpy(stored(keys[i]).data(), values.data() + i * value_bytes_,
                value_bytes_);
    track_row(keys[i]);
  }
  return node_.local_bytes_time(batch_bytes(keys));
}

double LocalDkv::read_cost(unsigned /*requester_shard*/,
                           std::uint64_t local_rows,
                           std::uint64_t remote_rows) const {
  SCD_ASSERT(remote_rows == 0, "LocalDkv has no remote rows");
  return node_.local_bytes_time(static_cast<std::uint64_t>(
      std::llround(local_rows * avg_row_wire_bytes())));
}

double LocalDkv::write_cost(unsigned requester_shard,
                            std::uint64_t local_rows,
                            std::uint64_t remote_rows) const {
  return read_cost(requester_shard, local_rows, remote_rows);
}

std::span<const float> LocalDkv::row(std::uint64_t key) const {
  SCD_REQUIRE(codec_ == quant::RowCodec::kFloat32,
              "direct row views require the fp32 codec");
  return {reinterpret_cast<const float*>(data_.data()) + key * row_width_,
          row_width_};
}

std::span<float> LocalDkv::mutable_row(std::uint64_t key) {
  SCD_REQUIRE(codec_ == quant::RowCodec::kFloat32,
              "direct row views require the fp32 codec");
  return {reinterpret_cast<float*>(data_.data()) + key * row_width_,
          row_width_};
}

}  // namespace scd::dkv
