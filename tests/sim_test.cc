#include <gtest/gtest.h>

#include "fragment/fragmenter.h"
#include "sim/cluster.h"
#include "test_util.h"

namespace paxml {
namespace {

std::shared_ptr<FragmentedDocument> MakeDoc() {
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc.ok());
  return std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
}

TEST(ClusterTest, RoundRobinPlacement) {
  Cluster c(MakeDoc(), 2);
  EXPECT_EQ(c.site_of(0), 0);
  EXPECT_EQ(c.site_of(1), 1);
  EXPECT_EQ(c.site_of(2), 0);
  EXPECT_EQ(c.site_of(3), 1);
  EXPECT_EQ(c.site_of(4), 0);
  EXPECT_EQ(c.fragments_at(0).size(), 3u);
  EXPECT_EQ(c.fragments_at(1).size(), 2u);
  EXPECT_EQ(c.query_site(), 0);
}

TEST(ClusterTest, RootAndSpreadKeepsRootAtSiteZero) {
  Cluster c(MakeDoc(), 3);
  c.PlaceRootAndSpread();
  EXPECT_EQ(c.site_of(0), 0);
  for (FragmentId f = 1; f <= 4; ++f) EXPECT_NE(c.site_of(f), 0) << f;
}

TEST(ClusterTest, ExplicitPlacementAndErrors) {
  Cluster c(MakeDoc(), 2);
  EXPECT_TRUE(c.Place(3, 1).ok());
  EXPECT_EQ(c.site_of(3), 1);
  // Re-placing moves the fragment (no duplicates in per-site lists).
  EXPECT_TRUE(c.Place(3, 0).ok());
  size_t count = 0;
  for (FragmentId f : c.fragments_at(0)) {
    if (f == 3) ++count;
  }
  EXPECT_EQ(count, 1u);
  for (FragmentId f : c.fragments_at(1)) EXPECT_NE(f, 3);

  EXPECT_FALSE(c.Place(99, 0).ok());
  EXPECT_FALSE(c.Place(0, 7).ok());
  EXPECT_FALSE(c.Place(-1, 0).ok());
}

TEST(NetworkCostModelTest, TransferSeconds) {
  NetworkCostModel net;
  net.latency_seconds = 0.001;
  net.bandwidth_bytes_per_second = 1000;
  // 3 messages, 500 bytes: 3ms latency + 0.5s transfer.
  EXPECT_DOUBLE_EQ(net.TransferSeconds(3, 500), 0.003 + 0.5);
  EXPECT_DOUBLE_EQ(net.TransferSeconds(0, 0), 0.0);
}

TEST(NetworkCostModelTest, ValidityContract) {
  EXPECT_TRUE(NetworkCostModel{}.Valid());

  NetworkCostModel ideal;
  ideal.latency_seconds = 0;  // an ideal network is a valid model...
  EXPECT_TRUE(ideal.Valid());

  NetworkCostModel zero_bw;
  zero_bw.bandwidth_bytes_per_second = 0;  // ...a zero-bandwidth one is not
  EXPECT_FALSE(zero_bw.Valid());

  NetworkCostModel negative_latency;
  negative_latency.latency_seconds = -0.1;
  EXPECT_FALSE(negative_latency.Valid());
}

// A zero bandwidth used to flow through TransferSeconds as a silent
// division by zero, turning every derived elapsed-time metric into inf.
TEST(NetworkCostModelDeathTest, ZeroBandwidthAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  NetworkCostModel broken;
  broken.bandwidth_bytes_per_second = 0;
  EXPECT_DEATH(broken.TransferSeconds(1, 100), "Valid");
}

TEST(RunStatsTest, VisitAggregates) {
  RunStats s;
  s.per_site.resize(3);
  s.per_site[0].visits = 2;
  s.per_site[2].visits = 1;
  EXPECT_EQ(s.max_visits(), 2);
  EXPECT_EQ(s.total_visits(), 3u);
}

TEST(RunStatsTest, ToStringMentionsSitesAndEdges) {
  RunStats s;
  s.per_site.resize(2);
  s.per_site[0].visits = 1;
  s.per_site[1].visits = 1;
  s.edges[{0, 1}] = EdgeStats{3, 1024};
  std::string out = s.ToString();
  EXPECT_NE(out.find("site 0"), std::string::npos);
  EXPECT_NE(out.find("site 1"), std::string::npos);
  EXPECT_NE(out.find("max-visits=1"), std::string::npos);
  EXPECT_NE(out.find("edge 0->1"), std::string::npos);
}

// The ledger compares whole and its diff names every differing field;
// telemetry never takes part.
TEST(RunStatsTest, LedgerDiffNamesEachDifferingField) {
  RunStats a;
  a.per_site.resize(2);
  a.edges[{0, 1}] = EdgeStats{1, 1, 64};
  RunStats b = a;
  b.parallel_seconds = 1;
  b.pool_tasks = 3;
  b.memo_fragment_hits = 2;
  EXPECT_TRUE(a.ledger() == b.ledger());
  EXPECT_EQ(a.Diff(b), "");

  b.wire_bytes = 5;
  b.per_site[1].visits = 1;
  b.edges[{0, 1}].bytes = 65;
  b.edges[{1, 0}] = EdgeStats{};
  EXPECT_FALSE(a.ledger() == b.ledger());
  EXPECT_EQ(a.Diff(b),
            "wire_bytes: 0 != 5\n"
            "per_site[1].visits: 0 != 1\n"
            "edges[0->1].bytes: 64 != 65\n"
            "edges[1->0]: only in other\n");
}

}  // namespace
}  // namespace paxml
