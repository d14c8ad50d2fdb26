// Tests of the benchmark's own logic: the percentile rule, the query mix,
// /proc parsing, and the answer checking that feeds fail_ratio.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "fragment/fragmenter.h"
#include "metrics.h"
#include "workload.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace e2ebench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesFor(99, 10), 1000u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(MinSamplesFor(50, 10), 20u);
  EXPECT_EQ(MinSamplesFor(99.9, 10), 10000u);
}

TEST(Percentile, Median) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(Mix, DeterministicPerSeedAndStream) {
  const std::vector<int> w = {35, 35, 15, 15};
  EXPECT_EQ(MakeMix(w, 7, 0, 500), MakeMix(w, 7, 0, 500));
  EXPECT_NE(MakeMix(w, 7, 0, 500), MakeMix(w, 8, 0, 500));
  EXPECT_NE(MakeMix(w, 7, 0, 500), MakeMix(w, 7, 1, 500));
}

TEST(Mix, ExactClassWeightsPerBlock) {
  const std::vector<int> w = {35, 35, 15, 15};
  const std::vector<int> mix = MakeMix(w, 42, 3, 4000);
  ASSERT_EQ(mix.size(), 4000u);
  for (size_t start = 0; start < mix.size(); start += 20) {
    int counts[4] = {0, 0, 0, 0};
    for (size_t i = start; i < start + 20; ++i) ++counts[mix[i]];
    EXPECT_EQ(counts[0], 7);
    EXPECT_EQ(counts[1], 7);
    EXPECT_EQ(counts[2], 3);
    EXPECT_EQ(counts[3], 3);
  }
  // A prefix that ends mid-block is still a prefix of the same sequence.
  const std::vector<int> shorter = MakeMix(w, 42, 3, 37);
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), mix.begin()));
}

TEST(Proc, StatCpuTicksAfterCommand) {
  // utime = 14th field, stime = 15th; the command holds a space and ')'.
  const std::string stat =
      "4242 (paxml site) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
      "250 75 0 0 20 0 5 0 12345 100000 200 18446744073709551615\n";
  EXPECT_EQ(ParseStatCpuTicks(stat), 325u);
  EXPECT_FALSE(ParseStatCpuTicks("4242 (short) S 1 2").has_value());
  EXPECT_FALSE(ParseStatCpuTicks("no parenthesis at all").has_value());
  EXPECT_FALSE(
      ParseStatCpuTicks("1 (c) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0").has_value());
}

TEST(Proc, StatusHwm) {
  const std::string status =
      "Name:\tpaxml_site\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t   1000 kB\n";
  EXPECT_EQ(ParseStatusHwmKb(status), 12345u);
  EXPECT_FALSE(ParseStatusHwmKb("Name:\tx\nVmRSS:\t1 kB\n").has_value());
}

TEST(Proc, StealFromStatCpuLine) {
  const auto ticks = ParseProcStatTicks(
      "cpu  100 5 20 800 3 0 2 70 9 0\ncpu0 1 2 3 4 5 6 7 8 9 0\n");
  ASSERT_TRUE(ticks.has_value());
  EXPECT_EQ(ticks->steal, 70u);
  EXPECT_EQ(ticks->total, 1000u);  // guest time is not counted twice
  EXPECT_FALSE(ParseProcStatTicks("cpu0 1 2 3 4 5 6 7 8\n").has_value());
  EXPECT_FALSE(ParseProcStatTicks("cpu  1 2 3\n").has_value());
}

TEST(Proc, ReadsThisProcess) {
  ASSERT_TRUE(ProcessCpuSeconds(0).has_value());
  ASSERT_TRUE(ProcessHwmMb(0).has_value());
  EXPECT_GT(*ProcessHwmMb(0), 0.0);
  EXPECT_GT(MachineTicks().total, 0u);
}

/// A small two-site XML cluster with the experiment queries.
struct SmallXml {
  std::shared_ptr<paxml::FragmentedDocument> doc;
  std::unique_ptr<paxml::Cluster> cluster;
  QuerySet queries;

  SmallXml() {
    paxml::XMarkOptions options;
    options.symbols = std::make_shared<paxml::SymbolTable>();
    const paxml::Tree tree =
        paxml::GenerateUniformSitesTree(60000, 3, options);
    doc = std::make_shared<paxml::FragmentedDocument>(
        paxml::FragmentBySubtrees(tree, tree.root()).ValueOrDie());
    cluster = std::make_unique<paxml::Cluster>(doc, 2);
    cluster->PlaceRootAndSpread();
    for (const auto& q : paxml::xmark::ExperimentQueries()) {
      paxml::EngineOptions sync;
      sync.transport = paxml::TransportKind::kSync;
      auto r = paxml::EvaluateDistributed(*cluster, q.text, sync);
      queries.texts.push_back(q.text);
      queries.kinds.push_back(q.has_qualifiers ? "heavy" : "light");
      queries.expected.push_back(r.ValueOrDie().answers);
    }
    queries.streams = {{0, 1, 2, 3}, {3, 2, 1, 0}};
  }
};

TEST(AnswerCheck, OracleAnswersPass) {
  SmallXml x;
  paxml::Engine engine(*x.cluster);
  const LoadResult r =
      RunClosedLoop(engine, x.queries, Family::kXml, 0.2, 8, {}, nullptr);
  EXPECT_GE(r.attempted, 8u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.violations, 0u);
  EXPECT_EQ(r.samples.size(), r.attempted);
  EXPECT_EQ(r.attempted % 2, 0u);  // the two clients go in step
  EXPECT_GT(r.cpu, 0.0);
}

TEST(AnswerCheck, InjectedWrongOracleAnswerCountsAsFailure) {
  SmallXml x;
  ASSERT_FALSE(x.queries.expected[0].empty());
  x.queries.expected[0].pop_back();  // the oracle now disagrees on Q1
  paxml::Engine engine(*x.cluster);
  const LoadResult r =
      RunClosedLoop(engine, x.queries, Family::kXml, 0.2, 8, {}, nullptr);
  ASSERT_GT(r.attempted, 0u);
  EXPECT_GT(r.failed, 0u);
  size_t q1 = 0;
  for (const QuerySample& s : r.samples) {
    EXPECT_EQ(s.failed, s.query == 0);
    q1 += s.query == 0;
  }
  EXPECT_EQ(r.failed, q1);
}

TEST(AnswerCheck, GuaranteeBounds) {
  QuerySample s;
  s.max_visits = 2;
  s.rounds = 1;
  EXPECT_TRUE(WithinGuarantee(Family::kXml, s));
  EXPECT_TRUE(WithinGuarantee(Family::kGraph, s));
  s.max_visits = 3;
  s.rounds = 2;
  EXPECT_FALSE(WithinGuarantee(Family::kXml, s));
  EXPECT_FALSE(WithinGuarantee(Family::kGraph, s));
}

TEST(Ledger, DiffNamesChangedFields) {
  SmallXml x;
  paxml::EngineOptions sync;
  sync.transport = paxml::TransportKind::kSync;
  const paxml::RunStats a =
      paxml::EvaluateDistributed(*x.cluster, x.queries.texts[2], sync)
          .ValueOrDie()
          .stats;
  EXPECT_TRUE(LedgerDiff(a, a).empty());
  paxml::RunStats b = a;
  b.wire_bytes += 1;
  b.per_site[1].visits += 1;
  const auto diff = LedgerDiff(a, b);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_NE(diff[0].find("wire_bytes"), std::string::npos);
  EXPECT_NE(diff[1].find("site.visits"), std::string::npos);
  // Timing is not part of the ledger.
  paxml::RunStats c = a;
  c.parallel_seconds += 1;
  c.pool_tasks += 3;
  EXPECT_TRUE(LedgerDiff(a, c).empty());
}

}  // namespace
}  // namespace e2ebench
