#include "dkv/cached_dkv.h"

#include <cstring>

#include "util/error.h"

namespace scd::dkv {

CachedDkv::CachedDkv(DkvStore& inner, std::uint64_t capacity_rows,
                     const comm::ComputeModel& node)
    : inner_(inner), capacity_(capacity_rows), node_(node) {
  SCD_REQUIRE(capacity_rows >= 1, "cache needs capacity >= 1 row");
}

void CachedDkv::init_row(std::uint64_t key, std::span<const float> value) {
  inner_.init_row(key, value);
}

void CachedDkv::touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void CachedDkv::insert(unsigned requester_shard, std::uint64_t key,
                       std::span<const std::byte> value) {
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    if (trace_ != nullptr) {
      const unsigned lane = requester_shard + trace_rank_offset_;
      if (lane < trace_->num_lanes()) {
        trace_->metrics().count(trace::Metric::kDkvEvictions, lane);
      }
    }
  }
  lru_.push_front(Entry{key, {value.begin(), value.end()}});
  map_[key] = lru_.begin();
}

template <typename OnHit>
double CachedDkv::classify(unsigned requester_shard,
                           std::span<const std::uint64_t> keys,
                           OnHit&& on_hit) {
  miss_keys_.clear();
  miss_slots_.clear();
  const quant::RowCodec codec = inner_.codec();
  const bool sparse = quant::is_sparse(codec);
  const std::uint32_t width = row_width();
  std::uint64_t hit_rows = 0;
  std::uint64_t hit_bytes = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = map_.find(keys[i]);
    if (it != map_.end()) {
      ++hits_;
      ++hit_rows;
      touch(it->second);
      const std::span<const std::byte> value(it->second->value);
      hit_bytes +=
          sparse ? quant::row_bytes(codec, width, value) : value.size();
      on_hit(i, value);
    } else {
      ++misses_;
      miss_keys_.push_back(keys[i]);
      miss_slots_.push_back(i);
    }
  }
  if (trace_ != nullptr) {
    const unsigned lane = requester_shard + trace_rank_offset_;
    if (lane < trace_->num_lanes()) {
      trace::MetricsRegistry& metrics = trace_->metrics();
      metrics.count(trace::Metric::kDkvHits, lane, hit_rows);
      metrics.count(trace::Metric::kDkvMisses, lane, miss_keys_.size());
    }
  }
  // Hits stream the cached copy from local RAM; only misses pay the
  // inner store's (possibly remote) cost. Sparse rows charge the bytes
  // they actually occupy inside their capacity slot.
  return node_.local_bytes_time(hit_bytes);
}

double CachedDkv::get_rows(unsigned requester_shard,
                           std::span<const std::uint64_t> keys,
                           std::span<float> out) {
  SCD_REQUIRE(out.size() == keys.size() * row_width(),
              "output buffer size mismatch");
  const std::uint32_t width = row_width();
  const quant::RowCodec codec = inner_.codec();
  double cost = classify(
      requester_shard, keys, [&](std::size_t i, std::span<const std::byte> v) {
        quant::decode_row(codec, v, out.subspan(i * width, width));
      });
  if (miss_keys_.empty()) return cost;
  const std::size_t vbytes = inner_.value_bytes();
  fetched_.resize(miss_keys_.size() * vbytes);
  cost += inner_.get_rows_encoded(requester_shard, miss_keys_, fetched_);
  for (std::size_t m = 0; m < miss_keys_.size(); ++m) {
    std::span<const std::byte> value(fetched_.data() + m * vbytes, vbytes);
    quant::decode_row(codec, value,
                      out.subspan(miss_slots_[m] * width, width));
    insert(requester_shard, miss_keys_[m], value);
  }
  return cost;
}

double CachedDkv::get_rows_encoded(unsigned requester_shard,
                                   std::span<const std::uint64_t> keys,
                                   std::span<std::byte> out) {
  const std::size_t vbytes = inner_.value_bytes();
  SCD_REQUIRE(out.size() == keys.size() * vbytes,
              "output buffer size mismatch");
  double cost = classify(
      requester_shard, keys, [&](std::size_t i, std::span<const std::byte> v) {
        std::memcpy(out.data() + i * vbytes, v.data(), vbytes);
      });
  if (miss_keys_.empty()) return cost;
  fetched_.resize(miss_keys_.size() * vbytes);
  cost += inner_.get_rows_encoded(requester_shard, miss_keys_, fetched_);
  for (std::size_t m = 0; m < miss_keys_.size(); ++m) {
    std::span<const std::byte> value(fetched_.data() + m * vbytes, vbytes);
    std::memcpy(out.data() + miss_slots_[m] * vbytes, value.data(), vbytes);
    insert(requester_shard, miss_keys_[m], value);
  }
  return cost;
}

double CachedDkv::put_rows(unsigned requester_shard,
                           std::span<const std::uint64_t> keys,
                           std::span<const float> values) {
  const std::uint32_t width = row_width();
  const quant::RowCodec codec = inner_.codec();
  const std::size_t vbytes = inner_.value_bytes();
  // Write-through; refresh any cached copies so reads stay coherent
  // with this requester's own writes.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = map_.find(keys[i]);
    if (it != map_.end()) {
      it->second->value.resize(vbytes);
      quant::encode_row(codec, values.subspan(i * width, width),
                        it->second->value, inner_.sparse_eps());
      touch(it->second);
    }
  }
  return inner_.put_rows(requester_shard, keys, values);
}

double CachedDkv::put_rows_encoded(unsigned requester_shard,
                                   std::span<const std::uint64_t> keys,
                                   std::span<const std::byte> values) {
  const std::size_t vbytes = inner_.value_bytes();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto it = map_.find(keys[i]);
    if (it != map_.end()) {
      const auto value = values.subspan(i * vbytes, vbytes);
      it->second->value.assign(value.begin(), value.end());
      touch(it->second);
    }
  }
  return inner_.put_rows_encoded(requester_shard, keys, values);
}

void CachedDkv::invalidate_all() {
  lru_.clear();
  map_.clear();
}

}  // namespace scd::dkv
