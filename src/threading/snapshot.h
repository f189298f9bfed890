// Lock-free snapshot publication for read-mostly services.
//
// The serving layer answers queries against an immutable model snapshot
// while a refresh occasionally installs a new one. SnapshotManager serves
// any number of readers and rare writers: readers acquire the current
// snapshot wait-free in the common case, and publish() retires the
// previous snapshot only after every reader that could possibly hold it
// has let go — an epoch/reader-count hybrid of RCU.
//
// Mechanics: a small ring of slots, each pairing an owning pointer with
// an atomic reader count. `current_` names the slot readers should use.
//   acquire(): load current_, increment that slot's reader count, then
//     re-check current_. If it still names the slot, the publisher cannot
//     retire it before the count drops (publishers drain counts only
//     AFTER redirecting current_, so a passed re-check proves the
//     increment is visible to any future drain). On a lost race the
//     reader decrements and retries — bounded by the number of concurrent
//     publishes, never by another reader, and publishes are rare.
//   publish(): install the new snapshot in a free slot, redirect
//     current_, then spin-wait the old slot's readers down to zero and
//     delete the old snapshot. The wait lives entirely on the publisher;
//     no reader ever blocks, takes a lock, or observes a torn snapshot.
//
// All atomics use seq_cst: publishes are rare and queries do O(K) work
// per acquire, so the fence cost is noise next to the correctness
// obligations (the re-check protocol above is exactly the kind of code
// where relaxed orderings go quietly wrong). TSan-clean by construction —
// tests/threading/snapshot_test.cpp hammers publish/acquire under the
// tsan preset.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "util/error.h"

namespace scd::threading {

template <typename T>
class SnapshotManager {
 public:
  /// Concurrent-publish headroom: one live slot, one draining slot, and
  /// two spare so a publish never waits for a free slot even while the
  /// previous retire is still draining stragglers.
  static constexpr unsigned kSlots = 4;

  /// RAII read guard. Holds the slot's reader count for its lifetime;
  /// the snapshot it points at cannot be retired while the guard lives.
  /// Movable, not copyable. retries() reports how many acquire attempts
  /// lost a race with a concurrent publish before this one succeeded
  /// (0 in the steady state — the serve bench asserts it stays bounded).
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept
        : readers_(std::exchange(other.readers_, nullptr)),
          snapshot_(std::exchange(other.snapshot_, nullptr)),
          retries_(other.retries_) {}
    Ref& operator=(Ref&& other) noexcept {
      if (this != &other) {
        release();
        readers_ = std::exchange(other.readers_, nullptr);
        snapshot_ = std::exchange(other.snapshot_, nullptr);
        retries_ = other.retries_;
      }
      return *this;
    }
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref() { release(); }

    const T& operator*() const { return *snapshot_; }
    const T* operator->() const { return snapshot_; }
    const T* get() const { return snapshot_; }
    explicit operator bool() const { return snapshot_ != nullptr; }
    std::uint32_t retries() const { return retries_; }

   private:
    friend class SnapshotManager;
    Ref(std::atomic<std::int64_t>* readers, const T* snapshot,
        std::uint32_t retries)
        : readers_(readers), snapshot_(snapshot), retries_(retries) {}
    void release() {
      if (readers_ != nullptr) {
        readers_->fetch_sub(1);
        readers_ = nullptr;
      }
      snapshot_ = nullptr;
    }

    std::atomic<std::int64_t>* readers_ = nullptr;
    const T* snapshot_ = nullptr;
    std::uint32_t retries_ = 0;
  };

  SnapshotManager() = default;
  explicit SnapshotManager(std::unique_ptr<const T> initial) {
    if (initial != nullptr) publish(std::move(initial));
  }

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  ~SnapshotManager() {
    // No readers may be live at destruction (they hold pointers into the
    // slots); delete whatever snapshots remain installed.
    for (Slot& slot : slots_) {
      delete slot.snapshot.load();
    }
  }

  /// Acquire the current snapshot. Lock-free and non-blocking: a reader
  /// retries only while a publish redirects current_ under its feet, at
  /// most once per concurrent publish. Returns an empty Ref only before
  /// the first publish.
  Ref acquire() {
    for (std::uint32_t retries = 0;; ++retries) {
      const std::uint32_t index = current_.load();
      if (index == kNone) return Ref(nullptr, nullptr, retries);
      Slot& slot = slots_[index];
      slot.readers.fetch_add(1);
      if (current_.load() == index) {
        // The re-check proves the increment happened before any future
        // redirect-then-drain, so the publisher's drain wait covers us.
        return Ref(&slot.readers, slot.snapshot.load(), retries);
      }
      slot.readers.fetch_sub(1);  // lost the race; the slot may drain
      total_retries_.fetch_add(1, std::memory_order_relaxed);
      if (retries + 1 == kStallRetries) {
        // One acquire losing this many races in a row means publishes are
        // arriving faster than the reader can re-check — a genuine stall,
        // not the bounded once-per-publish bump. Structurally unreachable
        // outside a publish storm; the serve bench asserts it stays 0.
        stalled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Install `next` as the current snapshot and retire the previous one.
  /// The previous snapshot is deleted only after its reader count drains;
  /// the wait (a yield loop) runs on the publishing thread while readers
  /// proceed against the new snapshot unimpeded. Thread-safe against
  /// concurrent publishers (serialized by a CAS claim on the target
  /// slot), though refreshes are expected to be single-sourced.
  void publish(std::unique_ptr<const T> next) {
    SCD_REQUIRE(next != nullptr, "cannot publish a null snapshot");
    const std::uint32_t target = claim_free_slot();
    slots_[target].snapshot.store(next.release());
    const std::uint32_t previous = current_.exchange(target);
    epoch_.fetch_add(1);
    if (previous == kNone) return;
    retire(previous);
  }

  /// Number of publishes so far; readers can cheaply detect refreshes.
  std::uint64_t epoch() const { return epoch_.load(); }

  /// Total acquire retries caused by concurrent publishes — a direct
  /// measure of reader disturbance (0 when no publish raced a reader).
  std::uint64_t acquire_retries() const {
    return total_retries_.load(std::memory_order_relaxed);
  }

  /// Acquires that retried kStallRetries times before succeeding — the
  /// "did a reader ever actually stall" metric. Must stay 0 under any
  /// realistic refresh rate.
  std::uint64_t stalled_acquires() const {
    return stalled_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kStallRetries = 4 * kSlots;

  // Cache-line padding keeps reader-count traffic on one slot from
  // false-sharing with its neighbors under heavy query load.
  struct alignas(64) Slot {
    std::atomic<const T*> snapshot{nullptr};
    std::atomic<std::int64_t> readers{0};
    std::atomic<bool> claimed{false};
  };

  std::uint32_t claim_free_slot() {
    for (;;) {
      for (std::uint32_t i = 0; i < kSlots; ++i) {
        bool expected = false;
        if (slots_[i].claimed.compare_exchange_strong(expected, true)) {
          return i;
        }
      }
      // All slots transiently claimed (publish storm); yield and retry.
      std::this_thread::yield();
    }
  }

  void retire(std::uint32_t index) {
    Slot& slot = slots_[index];
    // Straggler readers that incremented after the current_ redirect
    // observe the failed re-check and decrement without touching the
    // snapshot, so the count provably reaches zero.
    while (slot.readers.load() != 0) {
      std::this_thread::yield();
    }
    delete slot.snapshot.exchange(nullptr);
    slot.claimed.store(false);
  }

  Slot slots_[kSlots];
  std::atomic<std::uint32_t> current_{kNone};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> total_retries_{0};
  std::atomic<std::uint64_t> stalled_{0};
};

}  // namespace scd::threading
