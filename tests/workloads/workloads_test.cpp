#include <gtest/gtest.h>

#include <climits>

#include "util/rng.hpp"
#include "workloads/array_filter.hpp"
#include "workloads/cpu_burner.hpp"
#include "workloads/firewall.hpp"
#include "workloads/nat.hpp"
#include "workloads/thumbnail.hpp"

namespace horse::workloads {
namespace {

// ---------------------------------------------------------------- firewall

TEST(HeaderParseTest, ParsesValidHeader) {
  const auto header =
      parse_header("src=10.2.3.4 dst=192.168.0.1 port=443 proto=tcp");
  ASSERT_TRUE(header.valid);
  EXPECT_EQ(header.src, (10u << 24) | (2u << 16) | (3u << 8) | 4u);
  EXPECT_EQ(header.dst, (192u << 24) | (168u << 16) | 1u);
  EXPECT_EQ(header.port, 443);
  EXPECT_EQ(header.proto, 6);
}

TEST(HeaderParseTest, ParsesUdp) {
  const auto header = parse_header("src=1.1.1.1 dst=2.2.2.2 port=53 proto=udp");
  ASSERT_TRUE(header.valid);
  EXPECT_EQ(header.proto, 17);
}

TEST(HeaderParseTest, RejectsMalformedInputs) {
  EXPECT_FALSE(parse_header("").valid);
  EXPECT_FALSE(parse_header("src=1.2.3 dst=1.1.1.1 port=1 proto=tcp").valid);
  EXPECT_FALSE(parse_header("src=1.2.3.4 dst=1.1.1.1 port=99999 proto=tcp").valid);
  EXPECT_FALSE(parse_header("src=1.2.3.4 dst=1.1.1.1 port=1 proto=icmp").valid);
  EXPECT_FALSE(parse_header("src=256.0.0.1 dst=1.1.1.1 port=1 proto=tcp").valid);
  EXPECT_FALSE(parse_header("dst=1.1.1.1 port=1 proto=tcp").valid);
}

TEST(FirewallTest, ExplicitRuleAllowsMatchingPacket) {
  FirewallFunction firewall(0);  // empty generated list
  FirewallRule rule;
  rule.src_prefix = (10u << 24);
  rule.src_mask = 0xff000000;  // 10.0.0.0/8
  rule.dst_addr = (192u << 24) | (168u << 16) | 1u;
  rule.port_lo = 400;
  rule.port_hi = 500;
  rule.proto = 6;
  firewall.add_rule(rule);

  Request request;
  request.header = "src=10.9.9.9 dst=192.168.0.1 port=443 proto=tcp";
  EXPECT_TRUE(firewall.invoke(request).allowed);

  request.header = "src=11.9.9.9 dst=192.168.0.1 port=443 proto=tcp";
  EXPECT_FALSE(firewall.invoke(request).allowed);  // wrong prefix
  request.header = "src=10.9.9.9 dst=192.168.0.1 port=501 proto=tcp";
  EXPECT_FALSE(firewall.invoke(request).allowed);  // port out of range
  request.header = "src=10.9.9.9 dst=192.168.0.1 port=443 proto=udp";
  EXPECT_FALSE(firewall.invoke(request).allowed);  // wrong proto
}

TEST(FirewallTest, InvalidHeaderDenied) {
  FirewallFunction firewall(16);
  Request request;
  request.header = "garbage";
  EXPECT_FALSE(firewall.invoke(request).allowed);
}

TEST(FirewallTest, MetadataMatchesCategory1) {
  FirewallFunction firewall;
  EXPECT_EQ(firewall.category(), Category::kCategory1);
  EXPECT_TRUE(is_ull(firewall.category()));
  EXPECT_EQ(firewall.nominal_duration(), 17 * util::kMicrosecond);
  EXPECT_EQ(firewall.rule_count(), 4096u);
}

TEST(FirewallTest, DeterministicAcrossInstances) {
  FirewallFunction a(256, 9);
  FirewallFunction b(256, 9);
  Request request;
  request.header = "src=10.2.3.4 dst=1.2.3.4 port=80 proto=tcp";
  EXPECT_EQ(a.invoke(request).checksum, b.invoke(request).checksum);
}

// --------------------------------------------------------------------- nat

TEST(NatTest, RewritesMatchingHeader) {
  NatFunction nat(0);
  const std::uint32_t dst = (203u << 24) | (0u << 16) | (113u << 8) | 10u;
  nat.add_rule(dst, 8080, NatRule{(10u << 24) | 5u, 80});
  Request request;
  request.header = "src=1.2.3.4 dst=203.0.113.10 port=8080 proto=tcp";
  const auto response = nat.invoke(request);
  EXPECT_TRUE(response.allowed);
  EXPECT_EQ(response.rewritten_header,
            "src=1.2.3.4 dst=10.0.0.5 port=80 proto=tcp");
}

TEST(NatTest, PassThroughWithoutRule) {
  NatFunction nat(0);
  Request request;
  request.header = "src=1.2.3.4 dst=9.9.9.9 port=1234 proto=udp";
  const auto response = nat.invoke(request);
  EXPECT_FALSE(response.allowed);
  EXPECT_EQ(response.rewritten_header,
            "src=1.2.3.4 dst=9.9.9.9 port=1234 proto=udp");
}

TEST(NatTest, InvalidHeaderReturnsEmpty) {
  NatFunction nat(8);
  Request request;
  request.header = "not a packet";
  const auto response = nat.invoke(request);
  EXPECT_TRUE(response.rewritten_header.empty());
}

TEST(NatTest, MetadataMatchesCategory2) {
  NatFunction nat;
  EXPECT_EQ(nat.category(), Category::kCategory2);
  EXPECT_EQ(nat.nominal_duration(), 1'500);
  EXPECT_EQ(nat.rule_count(), 1024u);
}

// ------------------------------------------------------------ array filter

TEST(ArrayFilterTest, FindsIndexesAboveThreshold) {
  ArrayFilterFunction filter;
  Request request;
  request.payload = {5, 10, 3, 20, 10};
  request.threshold = 9;
  const auto response = filter.invoke(request);
  EXPECT_EQ(response.indexes, (std::vector<std::int32_t>{1, 3, 4}));
  EXPECT_TRUE(response.allowed);
  EXPECT_EQ(response.checksum, 1u + 3u + 4u);
}

TEST(ArrayFilterTest, NoMatches) {
  ArrayFilterFunction filter;
  Request request;
  request.payload = {1, 2, 3};
  request.threshold = 100;
  const auto response = filter.invoke(request);
  EXPECT_TRUE(response.indexes.empty());
  EXPECT_FALSE(response.allowed);
}

TEST(ArrayFilterTest, EmptyPayload) {
  ArrayFilterFunction filter;
  Request request;
  EXPECT_TRUE(filter.invoke(request).indexes.empty());
}

TEST(ArrayFilterTest, DefaultPayloadHas3000Integers) {
  const auto payload = ArrayFilterFunction::default_payload();
  EXPECT_EQ(payload.size(), ArrayFilterFunction::kDefaultArraySize);
  EXPECT_EQ(payload.size(), 3000u);  // the paper's exact array size
  // Deterministic.
  EXPECT_EQ(ArrayFilterFunction::default_payload(), payload);
}

TEST(ArrayFilterTest, MetadataMatchesCategory3) {
  ArrayFilterFunction filter;
  EXPECT_EQ(filter.category(), Category::kCategory3);
  EXPECT_EQ(filter.nominal_duration(), 700);
}

// The contract, written as the obvious loop: ascending indexes of the
// elements strictly greater than the threshold, their uint64 sum, and
// "allowed" when any was kept.
Response reference_filter(const Request& request) {
  Response response;
  for (std::size_t i = 0; i < request.payload.size(); ++i) {
    if (request.payload[i] > request.threshold) {
      response.indexes.push_back(static_cast<std::int32_t>(i));
      response.checksum += i;
    }
  }
  response.allowed = !response.indexes.empty();
  return response;
}

void expect_matches_reference(ArrayFilterFunction& filter,
                              const Request& request) {
  const Response want = reference_filter(request);
  const Response got = filter.invoke(request);
  ASSERT_EQ(got.indexes, want.indexes)
      << "size " << request.payload.size() << ", threshold "
      << request.threshold;
  EXPECT_EQ(got.checksum, want.checksum);
  EXPECT_EQ(got.allowed, want.allowed);
  // Sized to what was kept, not to the input.
  EXPECT_LE(got.indexes.capacity(), got.indexes.size() + 16);
}

// Values from a narrow band plus both extremes, so thresholds equal to
// elements (the comparison is strict) and INT_MIN/INT_MAX elements occur.
std::vector<std::int32_t> narrow_payload(std::size_t size,
                                         util::Xoshiro256& rng) {
  std::vector<std::int32_t> payload(size);
  for (std::int32_t& value : payload) {
    switch (rng.bounded(16)) {
      case 0: value = INT_MIN; break;
      case 1: value = INT_MAX; break;
      default: value = static_cast<std::int32_t>(rng.bounded(41)) - 20;
    }
  }
  return payload;
}

TEST(ArrayFilterTest, MatchesReferenceAcrossSizesAndThresholds) {
  ArrayFilterFunction filter;
  util::Xoshiro256 rng(2024);
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= 70; ++size) sizes.push_back(size);
  sizes.push_back(3000);
  sizes.push_back(4099);
  for (const std::size_t size : sizes) {
    Request request;
    request.payload = narrow_payload(size, rng);
    std::vector<std::int32_t> thresholds = {INT_MIN, INT_MAX, -1, 0};
    if (size > 0) {
      thresholds.push_back(request.payload.front());
      thresholds.push_back(request.payload[size / 2]);
      thresholds.push_back(request.payload.back());
    }
    for (const std::int32_t threshold : thresholds) {
      request.threshold = threshold;
      expect_matches_reference(filter, request);
    }
  }
}

TEST(ArrayFilterTest, MatchesReferenceOnSeededRandomArrays) {
  ArrayFilterFunction filter;
  for (std::uint64_t seed = 1; seed <= 1024; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t size = rng.bounded(9000);
    Request request;
    if (seed % 2 == 0) {
      request.payload = narrow_payload(size, rng);
    } else {
      request.payload.resize(size);
      for (std::int32_t& value : request.payload) {
        value = static_cast<std::int32_t>(rng.bounded(1'000'000));
      }
    }
    // Half the thresholds are an element of the array, half are drawn
    // from the same band as the elements.
    const std::uint64_t band = seed % 2 == 0 ? 41 : 1'000'000;
    request.threshold =
        size > 0 && seed % 4 < 2
            ? request.payload[rng.bounded(size)]
            : static_cast<std::int32_t>(rng.bounded(band)) - 20;
    expect_matches_reference(filter, request);
  }
}

// --------------------------------------------------------------- thumbnail

TEST(ThumbnailTest, DownscaleDimensions) {
  const auto source = Image::synthetic(64, 32, 1);
  const auto thumb = downscale(source, 8);
  EXPECT_EQ(thumb.width, 8u);
  EXPECT_EQ(thumb.height, 4u);
  EXPECT_EQ(thumb.rgb.size(), 8u * 4 * 3);
}

TEST(ThumbnailTest, DownscaleAveragesUniformRegion) {
  Image source;
  source.width = 4;
  source.height = 4;
  source.rgb.assign(4 * 4 * 3, 100);
  const auto thumb = downscale(source, 4);
  ASSERT_EQ(thumb.rgb.size(), 3u);
  EXPECT_EQ(thumb.rgb[0], 100);
  EXPECT_EQ(thumb.rgb[1], 100);
  EXPECT_EQ(thumb.rgb[2], 100);
}

TEST(ThumbnailTest, DownscaleInvalidFactorReturnsEmpty) {
  const auto source = Image::synthetic(8, 8, 1);
  EXPECT_TRUE(downscale(source, 0).rgb.empty());
  EXPECT_TRUE(downscale(source, 16).rgb.empty());
}

TEST(ThumbnailTest, InvokeProducesThumbnail) {
  ThumbnailFunction thumbnail(64, 8);
  Request request;
  request.threshold = 1;
  const auto response = thumbnail.invoke(request);
  EXPECT_TRUE(response.allowed);
  EXPECT_NE(response.checksum, 0u);
  EXPECT_EQ(thumbnail.last_thumbnail().width, 8u);
}

TEST(ThumbnailTest, DistinctSourcesGiveDistinctChecksums) {
  ThumbnailFunction thumbnail(64, 8);
  Request a;
  a.threshold = 0;
  Request b;
  b.threshold = 1;
  EXPECT_NE(thumbnail.invoke(a).checksum, thumbnail.invoke(b).checksum);
}

TEST(ThumbnailTest, ServiceTimesAreHeavyTailedPositive) {
  ThumbnailFunction thumbnail;
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(thumbnail.sample_service_time(rng), 0);
  }
  EXPECT_EQ(thumbnail.category(), Category::kLongRunning);
  EXPECT_FALSE(is_ull(thumbnail.category()));
}

// -------------------------------------------------------------- cpu burner

TEST(CpuBurnerTest, CountsPrimesCorrectly) {
  EXPECT_EQ(CpuBurnerFunction::count_primes_below(10), 4u);   // 2,3,5,7
  EXPECT_EQ(CpuBurnerFunction::count_primes_below(100), 25u);
  EXPECT_EQ(CpuBurnerFunction::count_primes_below(2), 0u);
}

TEST(CpuBurnerTest, InvokeUsesThresholdOverride) {
  CpuBurnerFunction burner(1000);
  Request request;
  request.threshold = 10;
  EXPECT_EQ(burner.invoke(request).checksum, 4u);
  request.threshold = 0;  // falls back to constructor limit
  EXPECT_EQ(burner.invoke(request).checksum, 168u);  // primes below 1000
}

TEST(CpuBurnerTest, CategoryIsBackground) {
  CpuBurnerFunction burner;
  EXPECT_EQ(burner.category(), Category::kBackground);
}

TEST(CategoryTest, ToStringAll) {
  EXPECT_EQ(to_string(Category::kCategory1), "category1");
  EXPECT_EQ(to_string(Category::kCategory2), "category2");
  EXPECT_EQ(to_string(Category::kCategory3), "category3");
  EXPECT_EQ(to_string(Category::kLongRunning), "long-running");
  EXPECT_EQ(to_string(Category::kBackground), "background");
}

}  // namespace
}  // namespace horse::workloads
