// Codec layouts, round-trip error bounds, and the half-float primitive.
#include "quant/row_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "random/xoshiro.h"
#include "util/error.h"

namespace scd::quant {
namespace {

std::vector<float> random_pi_row(rng::Xoshiro256& rng, std::uint32_t k,
                                 float phi_sum) {
  std::vector<float> row(k + 1);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(rng.next_double()) + 1e-6f;
    sum += row[i];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::uint32_t i = 0; i < k; ++i) row[i] *= inv;
  row[k] = phi_sum;
  return row;
}

/// Full-sort reference for the sparse encoders: orders all K entries
/// (value descending, index ascending) before choosing nnz, then lays the
/// row out as SparseHeader | indices | value-codec block | fp32 tail, or
/// as the dense fallback. The kept values plus the tail encode exactly
/// like a dense row of nnz + 1 floats.
std::vector<std::byte> full_sort_sparse_encode(RowCodec codec,
                                               std::span<const float> row,
                                               float eps) {
  const auto k = static_cast<std::uint32_t>(row.size() - 1);
  const RowCodec value = value_codec(codec);
  std::vector<std::byte> out(encoded_bytes(codec, k + 1), std::byte{0});
  std::vector<std::uint32_t> order(k);
  for (std::uint32_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return row[a] != row[b] ? row[a] > row[b] : a < b;
  });
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) sum += row[i];
  const double target = (1.0 - static_cast<double>(eps)) * sum;
  double kept_sum = 0.0;
  std::uint32_t nnz = 0;
  while (nnz < k && kept_sum < target) kept_sum += row[order[nnz++]];
  if (nnz > k / 2 || sum <= 0.0) {
    const SparseHeader header{k, 0.0f};
    std::memcpy(out.data(), &header, kSparseHeaderBytes);
    encode_row(value, row,
               std::span(out).subspan(kSparseHeaderBytes,
                                      encoded_bytes(value, k + 1)));
    return out;
  }
  std::sort(order.begin(), order.begin() + nnz);
  const SparseHeader header{
      nnz, static_cast<float>(std::max(0.0, sum - kept_sum))};
  std::memcpy(out.data(), &header, kSparseHeaderBytes);
  std::size_t at = kSparseHeaderBytes;
  std::vector<float> kept;
  for (std::uint32_t i = 0; i < nnz; ++i) {
    if (sparse_index_bytes(k) == sizeof(std::uint16_t)) {
      const auto idx = static_cast<std::uint16_t>(order[i]);
      std::memcpy(out.data() + at, &idx, sizeof(idx));
    } else {
      std::memcpy(out.data() + at, &order[i], sizeof(order[i]));
    }
    at += sparse_index_bytes(k);
    kept.push_back(row[order[i]]);
  }
  kept.push_back(row[k]);
  encode_row(value, kept,
             std::span(out).subspan(at, encoded_bytes(value, nnz + 1)));
  return out;
}

TEST(RowCodecTest, EncodedBytesMatchDocumentedLayouts) {
  for (const std::uint32_t width : {2u, 5u, 257u, 1025u}) {
    EXPECT_EQ(encoded_bytes(RowCodec::kFloat32, width), width * 4u);
    EXPECT_EQ(encoded_bytes(RowCodec::kFp16, width), (width - 1) * 2u + 4u);
    EXPECT_EQ(encoded_bytes(RowCodec::kInt8, width),
              kInt8HeaderBytes + (width - 1) + 4u);
  }
}

TEST(RowCodecTest, NamesRoundTripAndAliasesParse) {
  EXPECT_STREQ(codec_name(RowCodec::kFloat32), "fp32");
  EXPECT_STREQ(codec_name(RowCodec::kFp16), "fp16");
  EXPECT_STREQ(codec_name(RowCodec::kInt8), "int8");
  for (const RowCodec c :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    EXPECT_EQ(codec_from_name(codec_name(c)), c);
  }
  EXPECT_EQ(codec_from_name("float32"), RowCodec::kFloat32);
  EXPECT_EQ(codec_from_name("half"), RowCodec::kFp16);
  EXPECT_THROW(codec_from_name("int4"), scd::UsageError);
  EXPECT_THROW(codec_from_name(""), scd::UsageError);
}

TEST(RowCodecTest, Float32RoundTripIsBitExact) {
  rng::Xoshiro256 rng(31);
  for (const std::uint32_t k : {1u, 7u, 256u, 1024u}) {
    const std::vector<float> row = random_pi_row(rng, k, 123.5f);
    std::vector<std::byte> enc(encoded_bytes(RowCodec::kFloat32, k + 1));
    std::vector<float> dec(k + 1);
    encode_row(RowCodec::kFloat32, row, enc);
    decode_row(RowCodec::kFloat32, enc, dec);
    EXPECT_EQ(dec, row) << "K=" << k;
  }
}

TEST(RowCodecTest, Fp16RoundTripWithinHalfPrecision) {
  rng::Xoshiro256 rng(33);
  for (const std::uint32_t k : {3u, 64u, 1024u}) {
    const std::vector<float> row = random_pi_row(rng, k, 42.25f);
    std::vector<std::byte> enc(encoded_bytes(RowCodec::kFp16, k + 1));
    std::vector<float> dec(k + 1);
    encode_row(RowCodec::kFp16, row, enc);
    decode_row(RowCodec::kFp16, enc, dec);
    // Normal halves carry 11 significand bits: 2^-11 relative under RNE.
    // Entries below 2^-14 land in the subnormal half range, where the
    // quantization grid has absolute spacing 2^-24 (error <= 2^-25).
    for (std::uint32_t i = 0; i < k; ++i) {
      EXPECT_NEAR(dec[i], row[i], std::abs(row[i]) * 0x1p-11f + 0x1p-25f)
          << "K=" << k << " i=" << i;
    }
    // phi_sum tail stays full fp32.
    EXPECT_EQ(dec[k], row[k]) << "K=" << k;
  }
}

TEST(RowCodecTest, Int8RoundTripWithinHalfScale) {
  rng::Xoshiro256 rng(35);
  for (const std::uint32_t k : {3u, 64u, 1024u}) {
    const std::vector<float> row = random_pi_row(rng, k, 7.75f);
    std::vector<std::byte> enc(encoded_bytes(RowCodec::kInt8, k + 1));
    std::vector<float> dec(k + 1);
    encode_row(RowCodec::kInt8, row, enc);
    decode_row(RowCodec::kInt8, enc, dec);
    const auto [lo, hi] = std::minmax_element(row.begin(), row.end() - 1);
    // Quantization step = range/255; RNE puts every entry within half a
    // step (plus float slack in the affine reconstruction).
    const float bound = (*hi - *lo) / 255.0f * 0.5f + 1e-6f;
    for (std::uint32_t i = 0; i < k; ++i) {
      EXPECT_NEAR(dec[i], row[i], bound) << "K=" << k << " i=" << i;
    }
    EXPECT_EQ(dec[k], row[k]) << "K=" << k;
  }
}

TEST(RowCodecTest, Int8ConstantRowIsExact) {
  // Zero range: scale = 0, every entry reconstructs to the offset.
  const std::vector<float> row = {0.25f, 0.25f, 0.25f, 0.25f, 9.0f};
  std::vector<std::byte> enc(encoded_bytes(RowCodec::kInt8, 5));
  std::vector<float> dec(5);
  encode_row(RowCodec::kInt8, row, enc);
  decode_row(RowCodec::kInt8, enc, dec);
  EXPECT_EQ(dec, row);
}

TEST(RowCodecTest, HalfConversionKnownValues) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000u);
  EXPECT_EQ(float_to_half(1.0f), 0x3c00u);
  EXPECT_EQ(float_to_half(-2.0f), 0xc000u);
  EXPECT_EQ(float_to_half(65504.0f), 0x7bffu);  // largest normal half
  EXPECT_EQ(float_to_half(1e9f), 0x7c00u);      // overflow -> +inf
  EXPECT_EQ(half_to_float(0x3c00u), 1.0f);
  EXPECT_EQ(half_to_float(0x7bffu), 65504.0f);
  EXPECT_TRUE(std::isinf(half_to_float(0x7c00u)));
  // Smallest subnormal half survives the round trip.
  EXPECT_EQ(float_to_half(half_to_float(0x0001u)), 0x0001u);
}

TEST(RowCodecTest, HalfConversionRoundTripsEveryHalf) {
  // Exhaustive inverse check over all finite half patterns.
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    if (exp == 0x1fu) continue;  // inf/nan
    EXPECT_EQ(float_to_half(half_to_float(static_cast<std::uint16_t>(h))),
              h);
  }
}

TEST(RowCodecTest, SparseEncodeMatchesFullSortReferenceOnTies) {
  // Coarsely quantized rows: most entries tie with many others, so the
  // index tie-break decides which of them land in the kept prefix.
  rng::Xoshiro256 rng(11);
  for (const RowCodec codec : {RowCodec::kSparseTopR,
                               RowCodec::kSparseTopRFp16,
                               RowCodec::kSparseTopRInt8}) {
    for (const std::uint32_t k : {1u, 2u, 7u, 8u, 63u, 64u, 65u, 200u}) {
      for (const float eps : {0.0f, 0.01f, 0.2f, 0.6f}) {
        for (int rep = 0; rep < 20; ++rep) {
          std::vector<float> row(k + 1);
          for (std::uint32_t i = 0; i < k; ++i) {
            const int level = static_cast<int>(rng.next_double() * 4.0);
            row[i] = rep % 2 == 0 ? 0.125f * static_cast<float>(level)
                                  : (level == 3 ? 1.0f : 0.001f);
          }
          row[k] = 3.5f;
          std::vector<std::byte> enc(encoded_bytes(codec, k + 1));
          encode_row(codec, row, enc, eps);
          EXPECT_EQ(enc, full_sort_sparse_encode(codec, row, eps))
              << codec_name(codec) << " k=" << k << " eps=" << eps
              << " rep=" << rep;
        }
      }
    }
  }
}

TEST(RowCodecTest, SparseEncodeMatchesFullSortReferenceAtFallbackBoundary) {
  // `heavy` equal entries carry 99.5% of the mass and the rest share
  // 0.5%, so at eps = 1% exactly `heavy` entries are kept: k/2 stays
  // sparse (nnz == k/2), k/2 + 1 is the first count that falls back.
  for (const RowCodec codec : {RowCodec::kSparseTopR,
                               RowCodec::kSparseTopRFp16,
                               RowCodec::kSparseTopRInt8}) {
    for (const std::uint32_t k : {8u, 9u, 64u, 65u}) {
      for (const std::uint32_t heavy : {k / 2, k / 2 + 1}) {
        std::vector<float> row(k + 1);
        for (std::uint32_t i = 0; i < k; ++i) {
          // The k/2 odd indices are heavy, plus index 0 past k/2, so
          // heavy and light entries interleave across the row.
          const bool is_heavy = i % 2 == 1 || (i == 0 && heavy > k / 2);
          row[i] = is_heavy ? 0.995f / static_cast<float>(heavy)
                            : 0.005f / static_cast<float>(k - heavy);
        }
        row[k] = 2.0f;
        std::uint32_t heavy_count = 0;
        for (std::uint32_t i = 0; i < k; ++i) {
          heavy_count += row[i] > 0.01f ? 1 : 0;
        }
        ASSERT_EQ(heavy_count, heavy) << "k=" << k;
        std::vector<std::byte> enc(encoded_bytes(codec, k + 1));
        encode_row(codec, row, enc, 0.01f);
        EXPECT_EQ(enc, full_sort_sparse_encode(codec, row, 0.01f))
            << codec_name(codec) << " k=" << k << " heavy=" << heavy;
        EXPECT_EQ(row_nnz(codec, k + 1, enc), heavy <= k / 2 ? heavy : k)
            << codec_name(codec) << " k=" << k << " heavy=" << heavy;
      }
    }
  }
}

TEST(RowCodecTest, SparseEncodeMatchesFullSortReferenceWithTopHalfAtTarget) {
  // k/2 entries of 3 and k/2 of 1 sum to 2k; at eps = 1/4 the target is
  // (3/4) * 2k = 3k/2, exactly the top half's mass, so the row stays
  // sparse with nnz == k/2. Lowering one heavy entry by one ulp puts the
  // top half just under the target: the first row that falls back.
  for (const RowCodec codec : {RowCodec::kSparseTopR,
                               RowCodec::kSparseTopRFp16,
                               RowCodec::kSparseTopRInt8}) {
    for (const std::uint32_t k : {8u, 64u, 200u}) {
      for (const bool nudged : {false, true}) {
        std::vector<float> row(k + 1);
        for (std::uint32_t i = 0; i < k; ++i) {
          row[i] = i % 2 == 1 ? 3.0f : 1.0f;
        }
        if (nudged) row[1] = std::nextafter(3.0f, 0.0f);
        row[k] = 1.5f;
        std::vector<std::byte> enc(encoded_bytes(codec, k + 1));
        encode_row(codec, row, enc, 0.25f);
        EXPECT_EQ(enc, full_sort_sparse_encode(codec, row, 0.25f))
            << codec_name(codec) << " k=" << k << " nudged=" << nudged;
        EXPECT_EQ(row_nnz(codec, k + 1, enc), nudged ? k : k / 2)
            << codec_name(codec) << " k=" << k << " nudged=" << nudged;
      }
    }
  }
}

}  // namespace
}  // namespace scd::quant
