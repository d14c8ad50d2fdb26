// Tests for the graph workload family (DESIGN.md §11): distributed
// reachability by partial evaluation over the same runtime that serves the
// XML algorithms.
//
//  * correctness — randomized digraphs under random partitionings agree
//    with single-site BFS ground truth on every query, in exactly one
//    delivery round however many fragments there are;
//  * determinism — sync, pooled and intra-site-parallel (site_threads = 4)
//    evaluations produce bit-identical RunStats;
//  * deployment — a four-process socket run (three real paxml_site peers
//    plus the client) reproduces SyncTransport's *exact* RunStats: the
//    acceptance bar of the workload-agnostic runtime;
//  * the workload seam — an XML-serving peer rejects a graph run with a
//    clean error, an unknown family's error enumerates the registered
//    ones, and the graph store round-trips through its on-disk format.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/reach.h"
#include "core/workload.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "runtime/socket_transport.h"
#include "test_util.h"

namespace paxml {
namespace {

// ---- Spawning paxml_site peers (as in socket_transport_test.cc) -------------

std::string ExeDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  PAXML_CHECK(n > 0);
  buf[n] = '\0';
  std::string path(buf);
  return path.substr(0, path.rfind('/'));
}

std::string SiteBinary() {
  if (const char* env = std::getenv("PAXML_SITE_BIN")) return env;
  for (const std::string& candidate :
       {ExeDir() + "/tools/paxml_site", ExeDir() + "/../tools/paxml_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  PAXML_CHECK(false);  // build the tool_paxml_site target first
  return "";
}

std::string MakeTempDir() {
  std::string tmpl = "/tmp/paxml_reach_test_XXXXXX";
  PAXML_CHECK(::mkdtemp(tmpl.data()) != nullptr);
  return tmpl;
}

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
};

std::string PlacementString(const Cluster& cluster) {
  std::string out;
  for (size_t f = 0; f < cluster.fragment_count(); ++f) {
    if (!out.empty()) out += ',';
    out += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  return out;
}

SiteProcess SpawnSite(const std::string& data_dir, const Cluster& cluster,
                      SiteId site) {
  int out_pipe[2];
  PAXML_CHECK(::pipe(out_pipe) == 0);

  const std::string binary = SiteBinary();
  const std::string site_arg = std::to_string(site);
  const std::string sites_arg = std::to_string(cluster.site_count());
  const std::string placement = PlacementString(cluster);

  const pid_t pid = ::fork();
  PAXML_CHECK(pid >= 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary.c_str(), binary.c_str(), data_dir.c_str(), "--site",
            site_arg.c_str(), "--sites", sites_arg.c_str(), "--placement",
            placement.c_str(), "--port", "0", static_cast<char*>(nullptr));
    std::perror("execl paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  std::string line;
  char c;
  while (line.find('\n') == std::string::npos) {
    const ssize_t n = ::read(out_pipe[0], &c, 1);
    if (n <= 0) break;
    line.push_back(c);
  }
  ::close(out_pipe[0]);
  SiteProcess proc;
  proc.pid = pid;
  std::sscanf(line.c_str(), "PAXML_SITE LISTENING %d", &proc.port);
  PAXML_CHECK(proc.port > 0);  // the site failed to start
  return proc;
}

void KillSite(SiteProcess& proc) {
  if (proc.pid <= 0) return;
  ::kill(proc.pid, SIGKILL);
  int status = 0;
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

/// One multi-process deployment over an already-saved data directory: one
/// paxml_site per non-query site, plus the endpoint map for the client.
class Deployment {
 public:
  Deployment(const std::string& dir, const Cluster& cluster) {
    for (size_t s = 0; s < cluster.site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster.query_site()) continue;
      sites_[site] = SpawnSite(dir, cluster, site);
      endpoints_[site] = "127.0.0.1:" + std::to_string(sites_[site].port);
    }
  }

  ~Deployment() {
    for (auto& [site, proc] : sites_) KillSite(proc);
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

 private:
  std::map<SiteId, SiteProcess> sites_;
  std::map<SiteId, std::string> endpoints_;
};

// ---- Exact-equality helpers -------------------------------------------------

std::vector<int> Visits(const RunStats& s) {
  std::vector<int> v;
  for (const SiteStats& p : s.per_site) v.push_back(p.visits);
  return v;
}

void ExpectStatsEqual(const RunStats& got, const RunStats& want,
                      const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(Visits(got), Visits(want)) << label;
  EXPECT_EQ(got.total_messages, want.total_messages) << label;
  EXPECT_EQ(got.total_envelopes, want.total_envelopes) << label;
  EXPECT_EQ(got.total_bytes, want.total_bytes) << label;
  EXPECT_EQ(got.answer_bytes, want.answer_bytes) << label;
  EXPECT_EQ(got.data_bytes_shipped, want.data_bytes_shipped) << label;
  EXPECT_EQ(got.wire_bytes, want.wire_bytes) << label;
  EXPECT_EQ(got.edges, want.edges) << label;
  ASSERT_EQ(got.per_site.size(), want.per_site.size()) << label;
  for (size_t s = 0; s < want.per_site.size(); ++s) {
    EXPECT_EQ(got.per_site[s].bytes_sent, want.per_site[s].bytes_sent)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].bytes_received, want.per_site[s].bytes_received)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].messages_sent, want.per_site[s].messages_sent)
        << label << " site " << s;
    EXPECT_EQ(got.per_site[s].messages_received,
              want.per_site[s].messages_received)
        << label << " site " << s;
  }
}

// ---- Worlds -----------------------------------------------------------------

struct GraphWorld {
  Digraph graph;
  std::shared_ptr<const GraphFragmentStore> store;
  std::unique_ptr<Cluster> cluster;
};

GraphWorld MakeWorld(int32_t vertices, double degree, size_t fragments,
                     size_t sites, uint64_t seed) {
  GraphWorld w;
  w.graph = RandomDigraph(vertices, degree, seed);
  auto store = PartitionDigraph(w.graph, fragments, seed + 1);
  PAXML_CHECK(store.ok());
  w.store = std::move(store).ValueOrDie();
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.store, sites, copts);
  w.cluster->PlaceRootAndSpread();
  return w;
}

std::vector<GlobalNodeId> ExpectedAnswer(const GraphWorld& w,
                                         const ReachQuery& q) {
  if (!ReachesBFS(w.graph, q.source, q.target)) return {};
  return {GlobalNodeId{w.store->fragment_of(q.target), q.target}};
}

// ---- Correctness against single-site ground truth ---------------------------

// Random digraphs under random partitionings: every query agrees with BFS
// on the unpartitioned graph, and every evaluation takes exactly one
// delivery round with one visit per participating site — the paper's
// bounds carried to the reachability family.
TEST(ReachCorrectnessTest, RandomizedMatchesSingleSiteBFS) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // Sparse-ish graphs keep both outcomes common; fragments > sites
    // exercises multi-fragment batching at a site.
    const int32_t n = 60 + static_cast<int32_t>(seed) * 17;
    GraphWorld w = MakeWorld(n, 1.6, /*fragments=*/5 + seed % 3,
                             /*sites=*/4, seed);
    Rng rng(seed * 977 + 11);
    for (int i = 0; i < 25; ++i) {
      ReachQuery q;
      q.source = static_cast<NodeId>(rng.NextBounded(n));
      q.target = static_cast<NodeId>(rng.NextBounded(n));
      auto r = EvaluateReachability(*w.cluster, q);
      ASSERT_TRUE(r.ok()) << r.status();
      const std::string label = "seed " + std::to_string(seed) + " " +
                                FormatReachQuery(q);
      EXPECT_EQ(r->answers, ExpectedAnswer(w, q)) << label;
      EXPECT_EQ(r->stats.rounds, 1) << label;
      for (int v : Visits(r->stats)) EXPECT_LE(v, 1) << label;
    }
  }
}

// The trivial and degenerate cases.
TEST(ReachCorrectnessTest, EdgeCases) {
  GraphWorld w = MakeWorld(20, 1.5, 4, 4, 42);
  // Self-reachability holds even with no self-loop.
  ReachQuery self{3, 3};
  auto r = EvaluateReachability(*w.cluster, self);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->answers, ExpectedAnswer(w, self));
  ASSERT_EQ(r->answers.size(), 1u);

  // Out-of-range endpoints are rejected up front.
  auto bad = EvaluateReachability(*w.cluster, ReachQuery{0, 99});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReachCorrectnessTest, QueryTextRoundTrips) {
  const ReachQuery q{7, 123};
  auto parsed = ParseReachQuery(FormatReachQuery(q));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->source, q.source);
  EXPECT_EQ(parsed->target, q.target);
  EXPECT_FALSE(ParseReachQuery("reach 1").ok());
  EXPECT_FALSE(ParseReachQuery("reach 1 2 3").ok());
  EXPECT_FALSE(ParseReachQuery("//stock/code").ok());
}

// ---- Determinism: sync vs pooled vs intra-site parallel ---------------------

TEST(ReachDeterminismTest, SyncPooledAndThreadedAreBitIdentical) {
  GraphWorld w = MakeWorld(90, 1.8, 7, 4, 3);
  Rng rng(77);
  for (int i = 0; i < 10; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(90));
    q.target = static_cast<NodeId>(rng.NextBounded(90));
    const std::string label = FormatReachQuery(q);

    SyncTransport sync;
    auto s = EvaluateReachability(*w.cluster, q, &sync);

    PooledTransport pooled(4);
    auto p = EvaluateReachability(*w.cluster, q, &pooled);

    TransportOptions threaded_opts;
    threaded_opts.site_threads = 4;
    SyncTransport threaded(threaded_opts);
    auto t = EvaluateReachability(*w.cluster, q, &threaded);

    ASSERT_TRUE(s.ok()) << label << ": " << s.status();
    ASSERT_TRUE(p.ok()) << label << ": " << p.status();
    ASSERT_TRUE(t.ok()) << label << ": " << t.status();
    EXPECT_EQ(p->answers, s->answers) << label;
    EXPECT_EQ(t->answers, s->answers) << label;
    ExpectStatsEqual(p->stats, s->stats, "pooled|" + label);
    ExpectStatsEqual(t->stats, s->stats, "threads=4|" + label);
  }
}

// ---- The acceptance bar: four processes over sockets ------------------------

// A reachability query on a four-machine deployment (three paxml_site
// processes plus the client) reproduces SyncTransport's exact RunStats —
// the same guarantee the XML family makes, now workload-agnostic.
TEST(ReachSocketTest, FourProcessDeploymentReproducesSyncExactly) {
  GraphWorld w = MakeWorld(120, 1.7, 6, 4, 9);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  Deployment deployment(dir, *w.cluster);

  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(120));
    q.target = static_cast<NodeId>(rng.NextBounded(120));
    const std::string label = FormatReachQuery(q);

    auto sync = EvaluateReachability(*w.cluster, q);
    ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
    EXPECT_EQ(sync->answers, ExpectedAnswer(w, q)) << label;

    for (size_t threads : {size_t{1}, size_t{4}}) {
      TransportOptions sopts;
      sopts.remote_endpoints = deployment.endpoints();
      sopts.site_threads = threads;
      SocketTransport socket(sopts);
      auto remote = EvaluateReachability(*w.cluster, q, &socket);
      const std::string tlabel =
          label + "|threads=" + std::to_string(threads);
      ASSERT_TRUE(remote.ok()) << tlabel << ": " << remote.status();
      EXPECT_EQ(remote->answers, sync->answers) << tlabel;
      ExpectStatsEqual(remote->stats, sync->stats, tlabel);
    }
  }
}

// Engine::Submit drives the graph family through the same session API as
// XPath — the query string's syntax is the only difference.
TEST(ReachSocketTest, EngineSubmitRoutesByWorkload) {
  GraphWorld w = MakeWorld(80, 1.8, 4, 4, 21);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  Deployment deployment(dir, *w.cluster);

  EngineConfig config;
  config.depth = 2;
  config.remote_endpoints = deployment.endpoints();
  Engine engine(*w.cluster, config);

  Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    ReachQuery q;
    q.source = static_cast<NodeId>(rng.NextBounded(80));
    q.target = static_cast<NodeId>(rng.NextBounded(80));
    QueryHandle h = engine.Submit(FormatReachQuery(q));
    const QueryReport& report = h.Wait();
    ASSERT_TRUE(report.result.ok()) << report.result.status();
    auto baseline = EvaluateReachability(*w.cluster, q);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(report.result->answers, baseline->answers);
    ExpectStatsEqual(report.stats, baseline->stats, FormatReachQuery(q));
  }

  // An XPath string over graph data fails to parse as a reach query — the
  // data's family owns the query syntax.
  QueryHandle bad = engine.Submit("//stock/code");
  ASSERT_FALSE(bad.Wait().result.ok());
}

// ---- The workload seam ------------------------------------------------------

// A peer serving XML data rejects a graph run with a clean error naming
// both families, run-scoped (the connection survives the refusal).
TEST(ReachWorkloadSeamTest, XmlPeerRejectsGraphRun) {
  // A graph shaped like the clientele document's deployment: 5 fragments
  // on 4 sites, so the shape fingerprint matches and only the workload
  // kind differs.
  GraphWorld w = MakeWorld(50, 1.5, 5, 4, 13);

  Tree t = testing::BuildClienteleTree();
  auto doc_r = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc_r.ok());
  FragmentedDocument doc = std::move(doc_r).ValueOrDie();
  ASSERT_EQ(doc.size(), w.store->fragment_count());
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveDocument(doc, dir).ok());
  Deployment deployment(dir, *w.cluster);  // peers load the XML directory

  TransportOptions sopts;
  sopts.remote_endpoints = deployment.endpoints();
  SocketTransport socket(sopts);
  auto r = EvaluateReachability(*w.cluster, ReachQuery{0, 10}, &socket);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(r.status().message().find("workload mismatch"), std::string::npos)
      << r.status();
}

TEST(ReachWorkloadSeamTest, UnknownFamilyErrorEnumeratesRegisteredOnes) {
  GraphWorld w = MakeWorld(10, 1.0, 2, 2, 1);
  RunSpec spec;
  spec.algorithm = "Mystery";
  spec.family = "tensor";
  auto r = MakeSiteProgram(*w.cluster, spec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("\"graph\""), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("\"xml\""), std::string::npos)
      << r.status();
}

// A graph RunSpec over an XML cluster (and vice versa) is refused before
// any family code runs.
TEST(ReachWorkloadSeamTest, FamilyMustMatchTheClustersData) {
  GraphWorld w = MakeWorld(10, 1.0, 2, 2, 1);
  RunSpec spec;
  spec.algorithm = "PaX2";
  spec.query = "//a";
  spec.family = "xml";
  auto r = MakeSiteProgram(*w.cluster, spec);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("workload mismatch"), std::string::npos)
      << r.status();
}

// ---- Store persistence ------------------------------------------------------

// SaveGraph/LoadGraph round-trip bit-identically: the loaded store's
// canonical inputs (owners and sorted edge list) equal the original's, so
// every derived fragment table does too — what lets a peer loading from
// disk reproduce the client's in-process frames byte for byte.
TEST(GraphStoreTest, SaveLoadRoundTripsExactly) {
  GraphWorld w = MakeWorld(70, 2.0, 5, 4, 31);
  const std::string dir = MakeTempDir();
  ASSERT_TRUE(SaveGraph(*w.store, dir).ok());
  EXPECT_TRUE(IsGraphStoreDir(dir));

  auto loaded_r = LoadGraph(dir);
  ASSERT_TRUE(loaded_r.ok()) << loaded_r.status();
  const GraphFragmentStore& loaded = **loaded_r;
  EXPECT_EQ(loaded.vertex_count(), w.store->vertex_count());
  EXPECT_EQ(loaded.edge_count(), w.store->edge_count());
  EXPECT_EQ(loaded.fragment_count(), w.store->fragment_count());
  EXPECT_EQ(loaded.owners(), w.store->owners());
  EXPECT_EQ(loaded.edges(), w.store->edges());
  for (size_t f = 0; f < loaded.fragment_count(); ++f) {
    const GraphFragment& a = loaded.fragment(static_cast<FragmentId>(f));
    const GraphFragment& b = w.store->fragment(static_cast<FragmentId>(f));
    EXPECT_EQ(a.vertices, b.vertices) << "fragment " << f;
    EXPECT_EQ(a.local_out, b.local_out) << "fragment " << f;
    EXPECT_EQ(a.cut_out, b.cut_out) << "fragment " << f;
    EXPECT_EQ(a.in_boundary, b.in_boundary) << "fragment " << f;
  }
  EXPECT_FALSE(IsGraphStoreDir("/nonexistent/path"));
}

// The shipped data is O(cut edges), independent of |V|: growing the graph
// without growing the cut must not grow the bytes. A ring partitioned
// into contiguous arcs has exactly one cut edge per fragment no matter how
// long the arcs are.
TEST(ReachCorrectnessTest, ShippedDataScalesWithCutNotVertices) {
  auto ring_world = [](int32_t n, size_t fragments) {
    GraphWorld w;
    w.graph.vertex_count = n;
    w.graph.out.resize(n);
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int32_t v = 0; v < n; ++v) {
      w.graph.out[v].push_back((v + 1) % n);
      edges.push_back({v, (v + 1) % n});
    }
    std::vector<FragmentId> owner(n);
    for (int32_t v = 0; v < n; ++v) {
      owner[v] = static_cast<FragmentId>(
          std::min(fragments - 1, static_cast<size_t>(v) / (n / fragments)));
    }
    auto store = BuildGraphStore(n, owner, edges);
    PAXML_CHECK(store.ok());
    w.store = std::move(store).ValueOrDie();
    ClusterOptions copts;
    copts.parallel_execution = false;
    w.cluster = std::make_unique<Cluster>(w.store, fragments, copts);
    w.cluster->PlaceRootAndSpread();
    return w;
  };

  GraphWorld small = ring_world(40, 4);
  GraphWorld large = ring_world(400, 4);
  const ReachQuery sq{1, 21};    // wraps through every small arc
  const ReachQuery lq{1, 201};   // wraps through every large arc
  auto s = EvaluateReachability(*small.cluster, sq);
  auto l = EvaluateReachability(*large.cluster, lq);
  ASSERT_TRUE(s.ok()) << s.status();
  ASSERT_TRUE(l.ok()) << l.status();
  ASSERT_EQ(s->answers.size(), 1u);
  ASSERT_EQ(l->answers.size(), 1u);
  // Ten times the vertices, the same cut: bytes stay flat (a little varint
  // headroom for the wider vertex ids, nowhere near the 10x of shipping
  // vertices).
  EXPECT_LT(l->stats.total_bytes, 2 * s->stats.total_bytes);
  EXPECT_EQ(l->stats.rounds, 1);
}

}  // namespace
}  // namespace paxml
