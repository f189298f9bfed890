#include "dkv/local_dkv.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace scd::dkv {
namespace {

comm::ComputeModel node() {
  comm::ComputeModel m;
  m.mem_bandwidth_Bps = 1e9;
  return m;
}

TEST(LocalDkvTest, InitThenGetRoundTrips) {
  LocalDkv store(10, 3, node());
  store.init_row(4, std::vector<float>{1.0f, 2.0f, 3.0f});
  std::vector<std::uint64_t> keys = {4};
  std::vector<float> out(3);
  store.get_rows(0, keys, out);
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(LocalDkvTest, PutOverwritesAndBatches) {
  LocalDkv store(10, 2, node());
  std::vector<std::uint64_t> keys = {1, 5, 9};
  const std::vector<float> values = {1, 2, 3, 4, 5, 6};
  store.put_rows(0, keys, values);
  std::vector<float> out(6);
  store.get_rows(0, keys, out);
  EXPECT_EQ(out, values);
  EXPECT_EQ(store.row(5)[1], 4.0f);
}

TEST(LocalDkvTest, CostIsMemoryBandwidthBound) {
  LocalDkv store(1000, 250, node());  // 1000 B rows at 1 GB/s = 1 us/row
  std::vector<std::uint64_t> keys(100);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  std::vector<float> out(100 * 250);
  const double cost = store.get_rows(0, keys, out);
  EXPECT_NEAR(cost, 100e-6, 1e-9);
  EXPECT_DOUBLE_EQ(store.write_cost(0, 100, 0), cost);
}

TEST(LocalDkvTest, SizeMismatchThrows) {
  LocalDkv store(4, 2, node());
  std::vector<std::uint64_t> keys = {0, 1};
  std::vector<float> too_small(3);
  EXPECT_THROW(store.get_rows(0, keys, too_small), scd::UsageError);
  EXPECT_THROW(store.init_row(0, std::vector<float>{1.0f}),
               scd::UsageError);
}

TEST(LocalDkvTest, MutableRowAliasesStorage) {
  LocalDkv store(2, 2, node());
  store.mutable_row(1)[0] = 7.0f;
  EXPECT_EQ(store.row(1)[0], 7.0f);
}

}  // namespace
}  // namespace scd::dkv
