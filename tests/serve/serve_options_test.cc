#include <gtest/gtest.h>

#include <string>

#include "serve/serve_options.h"
#include "store/truth_store.h"

namespace ltm {
namespace serve {
namespace {

TEST(ServeOptionsTest, DefaultsValidate) {
  ServeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  EXPECT_EQ(options.max_inflight, 64u);
  EXPECT_EQ(options.refit_debounce_epochs, 0u);
  EXPECT_EQ(options.refit_queue, 1u);
  EXPECT_EQ(options.block_cache_mb, 8u);
  EXPECT_EQ(options.bloom_bits_per_key, 10u);
}

TEST(ServeOptionsTest, ValidateRejectsOutOfRange) {
  ServeOptions options;
  options.max_inflight = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = ServeOptions();
  options.refit_queue = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ServeOptionsTest, ParseBareNameYieldsDefaults) {
  auto parsed = ParseServeSpec("serve");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->max_inflight, ServeOptions().max_inflight);
}

TEST(ServeOptionsTest, ParseSetsEveryKey) {
  auto parsed = ParseServeSpec(
      "serve(max_inflight=8, refit_debounce_epochs=4, refit_queue=2, "
      "block_cache_mb=32, bloom_bits_per_key=12, partitions=3)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->max_inflight, 8u);
  EXPECT_EQ(parsed->refit_debounce_epochs, 4u);
  EXPECT_EQ(parsed->refit_queue, 2u);
  EXPECT_EQ(parsed->block_cache_mb, 32u);
  EXPECT_EQ(parsed->bloom_bits_per_key, 12u);
  EXPECT_EQ(parsed->partitions, 3u);
}

TEST(ServeOptionsTest, SpecStringRoundTrips) {
  ServeOptions options;
  options.max_inflight = 12;
  options.refit_debounce_epochs = 9;
  options.refit_queue = 3;
  options.block_cache_mb = 16;
  options.bloom_bits_per_key = 14;
  auto parsed = ParseServeSpec(options.ToSpecString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->max_inflight, options.max_inflight);
  EXPECT_EQ(parsed->refit_debounce_epochs, options.refit_debounce_epochs);
  EXPECT_EQ(parsed->refit_queue, options.refit_queue);
  EXPECT_EQ(parsed->block_cache_mb, options.block_cache_mb);
  EXPECT_EQ(parsed->bloom_bits_per_key, options.bloom_bits_per_key);
  // And the canonical form is a fixed point.
  EXPECT_EQ(parsed->ToSpecString(), options.ToSpecString());
}

TEST(ServeOptionsTest, ParseRejectsUnknownKeys) {
  // Removed keys fail loudly too, naming the key, so a stale spec
  // cannot silently lose a setting.
  for (const std::string key : {"no_such_key", "batch_window_us"}) {
    auto parsed = ParseServeSpec("serve(" + key + "=1, max_inflight=2)");
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(parsed.status().message().find(key), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ServeOptionsTest, ParseRejectsWrongName) {
  EXPECT_FALSE(ParseServeSpec("LTM(iterations=10)").ok());
  EXPECT_FALSE(ParseServeSpec("").ok());
}

TEST(ServeOptionsTest, ParseRejectsInvalidValues) {
  // Parsed fine, but fails validation.
  EXPECT_FALSE(ParseServeSpec("serve(max_inflight=0)").ok());
  // Not an integer at all.
  EXPECT_FALSE(ParseServeSpec("serve(max_inflight=soon)").ok());
  // Past 64 bits/key the filter would be all ones — rejected before the
  // value can truncate into the uint32 field.
  EXPECT_FALSE(ParseServeSpec("serve(bloom_bits_per_key=65)").ok());
  EXPECT_FALSE(ParseServeSpec("serve(bloom_bits_per_key=4294967296)").ok());
  // Disabling both is legal: 0 means "off", not "invalid".
  EXPECT_TRUE(
      ParseServeSpec("serve(block_cache_mb=0, bloom_bits_per_key=0)").ok());
}

TEST(ServeOptionsTest, ApplyToStoreCarriesTheReadSideBudget) {
  ServeOptions options;
  options.block_cache_mb = 24;
  options.bloom_bits_per_key = 6;
  store::TruthStoreOptions base;
  base.sync_every_append = true;  // unrelated knobs must pass through
  store::TruthStoreOptions applied = options.ApplyToStore(base);
  EXPECT_EQ(applied.block_cache_mb, 24u);
  EXPECT_EQ(applied.bloom_bits_per_key, 6u);
  EXPECT_TRUE(applied.sync_every_append);
}

TEST(ServeOptionsTest, CaseInsensitiveName) {
  EXPECT_TRUE(ParseServeSpec("Serve(max_inflight=2)").ok());
  EXPECT_TRUE(ParseServeSpec("SERVE").ok());
}

}  // namespace
}  // namespace serve
}  // namespace ltm
