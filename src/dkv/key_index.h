// Key deduplication for stage-batched DKV reads.
//
// Within one read stage the sampler references the same pi rows many
// times — chunk vertices share neighbors, update_beta pairs share
// endpoints — and pi is read-only between the stage barriers, so every
// distinct row needs to cross the wire exactly once per stage. KeyIndex
// turns a reference list into (a) the sorted distinct keys to fetch and
// (b) a per-reference remap into that fetch, letting callers keep their
// original access pattern over the deduplicated row buffer.
//
// Sorting (rather than a hash or an N-sized stamp array) keeps the cost
// independent of graph size — O(R) per byte of the largest key, by a
// byte-wise radix sort, allocation-free once the grow-only buffers are
// warm — and hands the distinct keys over in sorted order, which under
// block partitioning is exactly owner-grouped, the order the coalescing
// layer wants.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace scd::dkv {

class KeyIndex {
 public:
  /// Pre-size the internal buffers for up to `max_refs` references.
  void reserve(std::size_t max_refs) {
    order_.reserve(max_refs);
    spare_.reserve(max_refs);
    unique_.reserve(max_refs);
    remap_.reserve(max_refs);
  }

  /// Index `keys`; afterwards unique_keys()/remap() describe it.
  void build(std::span<const std::uint64_t> keys) {
    order_.resize(keys.size());
    spare_.resize(keys.size());
    remap_.resize(keys.size());
    unique_.clear();
    std::uint64_t key_bits = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      order_[i] = {keys[i], static_cast<std::uint32_t>(i)};
      key_bits |= keys[i];
    }
    // LSD radix sort by key, one byte per pass, for as many bytes as the
    // largest key has. Every pass is stable and the input is in reference
    // order, so equal keys keep ascending positions: the result is the
    // (key, position) pairs in ascending order.
    for (unsigned shift = 0; shift < 64 && (key_bits >> shift) != 0;
         shift += 8) {
      std::array<std::uint32_t, 257> start{};
      for (const auto& entry : order_) {
        ++start[((entry.first >> shift) & 0xff) + 1];
      }
      for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
      for (const auto& entry : order_) {
        spare_[start[(entry.first >> shift) & 0xff]++] = entry;
      }
      order_.swap(spare_);
    }
    for (const auto& [key, pos] : order_) {
      if (unique_.empty() || unique_.back() != key) unique_.push_back(key);
      remap_[pos] = static_cast<std::uint32_t>(unique_.size() - 1);
    }
  }

  /// Distinct keys in ascending order (owner-grouped for block layouts).
  std::span<const std::uint64_t> unique_keys() const { return unique_; }

  /// remap()[i] is the unique_keys() index holding the i-th reference:
  /// reference i's row starts at rows[remap()[i] * row_width].
  std::span<const std::uint32_t> remap() const { return remap_; }

 private:
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> spare_;
  std::vector<std::uint64_t> unique_;
  std::vector<std::uint32_t> remap_;
};

}  // namespace scd::dkv
