// End-to-end tests of the multi-process socket engine (DESIGN.md §9).
//
// Each test saves a fragmented document to disk, spawns one real
// `paxml_site` process per remote site on loopback (ephemeral ports, read
// back from the child's stdout), and drives evaluations through the
// ordinary entry points with TransportOptions::remote_endpoints /
// EngineConfig::remote_endpoints set. The acceptance bar is the PR-4
// guarantee made end-to-end: a multi-process run reproduces
// SyncTransport's *exact* RunStats — answers, rounds, visits, byte totals,
// per-edge byte/message/envelope splits — for PaX2, PaX3 and the naive
// baseline, including on the paper's four-machine FT2 placement.
//
// Failure semantics (invariant 5) are pinned too: killing a site process
// mid-session surfaces a clean NetworkError on runs that touch it, with no
// hang, while runs confined to the surviving sites are undisturbed.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "harness.h"
#include "runtime/socket_server.h"
#include "runtime/socket_transport.h"
#include "test_util.h"

namespace paxml {
namespace {

// ---- Locating the paxml_site binary and scratch space -----------------------

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
  // Test binaries live in the build root; tools/ sits next to them.
  for (const std::string& candidate :
       {ExeDir() + "/tools/paxml_site", ExeDir() + "/../tools/paxml_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  PAXML_CHECK(false);  // build the tool_paxml_site target first
  return "";
}

std::string MakeTempDir() {
  std::string tmpl = "/tmp/paxml_socket_test_XXXXXX";
  PAXML_CHECK(::mkdtemp(tmpl.data()) != nullptr);
  return tmpl;
}

// ---- Spawning site processes ------------------------------------------------

struct SiteProcess {
  pid_t pid = -1;
  int port = 0;
};

std::string PlacementString(const Cluster& cluster) {
  std::string out;
  for (size_t f = 0; f < cluster.doc().size(); ++f) {
    if (!out.empty()) out += ',';
    out += std::to_string(cluster.site_of(static_cast<FragmentId>(f)));
  }
  return out;
}

/// fork/execs one paxml_site on an ephemeral loopback port and reads the
/// bound port from its "PAXML_SITE LISTENING <port>" line.
SiteProcess SpawnSite(const std::string& doc_dir, const Cluster& cluster,
                      SiteId site, bool compress = false) {
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
    std::vector<const char*> argv = {
        binary.c_str(),  doc_dir.c_str(), "--site", site_arg.c_str(),
        "--sites",       sites_arg.c_str(), "--placement", placement.c_str(),
        "--port",        "0"};
    if (compress) argv.push_back("--compress");
    argv.push_back(nullptr);
    ::execv(binary.c_str(), const_cast<char* const*>(argv.data()));
    std::perror("execv paxml_site");
    ::_exit(127);
  }
  ::close(out_pipe[1]);

  // Read the child's announcement line.
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

void KillSite(SiteProcess& proc, int sig = SIGKILL) {
  if (proc.pid <= 0) return;
  ::kill(proc.pid, sig);
  int status = 0;
  ::waitpid(proc.pid, &status, 0);
  proc.pid = -1;
}

/// One multi-process deployment: the document saved to disk, one paxml_site
/// per non-query site, and the endpoint map that points a client at them.
class Deployment {
 public:
  Deployment(std::shared_ptr<const FragmentedDocument> doc,
             const Cluster& cluster, bool compress = false)
      : dir_(MakeTempDir()) {
    PAXML_CHECK(SaveDocument(*doc, dir_).ok());
    for (size_t s = 0; s < cluster.site_count(); ++s) {
      const SiteId site = static_cast<SiteId>(s);
      if (site == cluster.query_site()) continue;
      sites_[site] = SpawnSite(dir_, cluster, site, compress);
      endpoints_[site] = "127.0.0.1:" + std::to_string(sites_[site].port);
    }
  }

  ~Deployment() {
    for (auto& [site, proc] : sites_) KillSite(proc);
    // Leave the scratch directory for post-mortems; /tmp is ephemeral.
  }

  const std::map<SiteId, std::string>& endpoints() const { return endpoints_; }

  void KillSiteProcess(SiteId site) { KillSite(sites_.at(site)); }

 private:
  std::string dir_;
  std::map<SiteId, SiteProcess> sites_;
  std::map<SiteId, std::string> endpoints_;
};

// ---- Exact-equality helpers -------------------------------------------------

std::vector<int> Visits(const RunStats& s) {
  std::vector<int> v;
  for (const SiteStats& p : s.per_site) v.push_back(p.visits);
  return v;
}

/// The logical ledger — every count the paper's guarantees are stated in,
/// plus the full per-site and per-edge splits. This is the half frame
/// compression must never disturb, so fallback tests (where wire accounting
/// legitimately differs between runs) assert exactly this. The delta-codec
/// fields are envelope-level and deterministic, so they belong here too.
/// Timing fields are wall-clock and excluded.
void ExpectLogicalStatsEqual(const RunStats& socket, const RunStats& sync,
                             const std::string& label) {
  EXPECT_EQ(socket.rounds, sync.rounds) << label;
  EXPECT_EQ(Visits(socket), Visits(sync)) << label;
  EXPECT_EQ(socket.total_messages, sync.total_messages) << label;
  EXPECT_EQ(socket.total_envelopes, sync.total_envelopes) << label;
  EXPECT_EQ(socket.total_bytes, sync.total_bytes) << label;
  EXPECT_EQ(socket.answer_bytes, sync.answer_bytes) << label;
  EXPECT_EQ(socket.data_bytes_shipped, sync.data_bytes_shipped) << label;
  EXPECT_EQ(socket.delta_logical_bytes, sync.delta_logical_bytes) << label;
  EXPECT_EQ(socket.delta_wire_bytes, sync.delta_wire_bytes) << label;
  EXPECT_EQ(socket.edges, sync.edges) << label;
  ASSERT_EQ(socket.per_site.size(), sync.per_site.size()) << label;
  for (size_t s = 0; s < sync.per_site.size(); ++s) {
    EXPECT_EQ(socket.per_site[s].bytes_sent, sync.per_site[s].bytes_sent)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].bytes_received,
              sync.per_site[s].bytes_received)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].messages_sent,
              sync.per_site[s].messages_sent)
        << label << " site " << s;
    EXPECT_EQ(socket.per_site[s].messages_received,
              sync.per_site[s].messages_received)
        << label << " site " << s;
  }
}

/// The logical ledger plus the wire split. Applies whenever both runs price
/// frames with the same threshold — including compressed deployments,
/// because EncodeFrameForWire is the one shared pricing path.
void ExpectStatsEqual(const RunStats& socket, const RunStats& sync,
                      const std::string& label) {
  ExpectLogicalStatsEqual(socket, sync, label);
  EXPECT_EQ(socket.wire_bytes, sync.wire_bytes) << label;
  EXPECT_EQ(socket.wire_raw_bytes, sync.wire_raw_bytes) << label;
  EXPECT_EQ(socket.wire_frames_compressed, sync.wire_frames_compressed)
      << label;
}

/// CI smoke hook: PAXML_SITE_THREADS=N re-runs every socket test in this
/// file with intra-site parallel delivery at the peers — the stats
/// assertions below then double as determinism checks (DESIGN.md §10).
size_t EnvSiteThreads() {
  if (const char* env = std::getenv("PAXML_SITE_THREADS")) {
    const long v = std::atol(env);
    if (v > 1) return static_cast<size_t>(v);
  }
  return 1;
}

EngineOptions SyncOptions(DistributedAlgorithm algo, bool annotations) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  options.transport = TransportKind::kSync;
  return options;
}

EngineOptions SocketOptions(DistributedAlgorithm algo, bool annotations,
                            const std::map<SiteId, std::string>& endpoints) {
  EngineOptions options;
  options.algorithm = algo;
  options.pax.use_annotations = annotations;
  options.transport_options.remote_endpoints = endpoints;
  options.transport_options.site_threads = EnvSiteThreads();
  return options;
}

// ---- Clientele: every algorithm, with and without annotations ---------------

struct ClienteleWorld {
  std::shared_ptr<FragmentedDocument> doc;
  std::unique_ptr<Cluster> cluster;
};

/// The paper's Fig. 1 document on four machines: S_Q holds the root
/// fragment, Anna's broker and Lisa's client share site 1, the two market
/// fragments sit alone on sites 2 and 3.
ClienteleWorld MakeClienteleWorld() {
  ClienteleWorld w;
  Tree t = testing::BuildClienteleTree();
  auto doc = FragmentByCuts(t, testing::ClienteleCuts(t));
  PAXML_CHECK(doc.ok());
  w.doc = std::make_shared<FragmentedDocument>(std::move(doc).ValueOrDie());
  ClusterOptions copts;
  copts.parallel_execution = false;
  w.cluster = std::make_unique<Cluster>(w.doc, 4, copts);
  PAXML_CHECK(w.cluster->Place(0, 0).ok());
  PAXML_CHECK(w.cluster->Place(1, 1).ok());
  PAXML_CHECK(w.cluster->Place(2, 2).ok());
  PAXML_CHECK(w.cluster->Place(3, 3).ok());
  PAXML_CHECK(w.cluster->Place(4, 1).ok());
  return w;
}

TEST(SocketTransportTest, ClienteleReproducesSyncExactly) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  const std::vector<std::string> queries = {
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name",
      "clientele/client/broker/name",
      "//stock/code",
      "//market[name/text() = \"NASDAQ\"]//buy",
  };
  for (const std::string& query : queries) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      for (bool annotations : {false, true}) {
        const std::string label = std::string(AlgorithmName(algo)) +
                                  (annotations ? "|xa|" : "|") + query;
        auto sync = EvaluateDistributed(*w.cluster, query,
                                        SyncOptions(algo, annotations));
        auto socket = EvaluateDistributed(
            *w.cluster, query,
            SocketOptions(algo, annotations, deployment.endpoints()));
        ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
        ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
        EXPECT_EQ(socket->answers, sync->answers) << label;
        ExpectStatsEqual(socket->stats, sync->stats, label);
      }
    }
  }
}

// Boolean queries delegate to ParBoX; its one-visit protocol must cross
// the wire identically too.
TEST(SocketTransportTest, BooleanQueryViaParBoX) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  const std::string query = ".[//market/name/text() = \"TSE\"]";
  auto sync = EvaluateDistributed(*w.cluster, query,
                                  SyncOptions(DistributedAlgorithm::kPaX2,
                                              false));
  auto socket = EvaluateDistributed(
      *w.cluster, query,
      SocketOptions(DistributedAlgorithm::kPaX2, false,
                    deployment.endpoints()));
  ASSERT_TRUE(sync.ok()) << sync.status();
  ASSERT_TRUE(socket.ok()) << socket.status();
  EXPECT_EQ(socket->answers, sync->answers);
  ExpectStatsEqual(socket->stats, sync->stats, "parbox");
}

// ---- The acceptance bar: FT2 on the paper's four machines -------------------

TEST(SocketTransportTest, FT2PaperPlacementReproducesSyncExactly) {
  // A scaled-down FT2 keeps the test fast; the placement and protocol are
  // the paper's (bench/harness.h).
  bench::Workload w = bench::MakeFT2Paper(0.05);
  Deployment deployment(w.doc, *w.cluster);

  for (const auto& q : xmark::ExperimentQueries()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      const std::string label = std::string(AlgorithmName(algo)) + "|" + q.name;
      auto sync =
          EvaluateDistributed(*w.cluster, q.text, SyncOptions(algo, false));
      auto socket = EvaluateDistributed(
          *w.cluster, q.text,
          SocketOptions(algo, false, deployment.endpoints()));
      ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
      ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
      EXPECT_EQ(socket->answers, sync->answers) << label;
      ExpectStatsEqual(socket->stats, sync->stats, label);
    }
  }
}

// The tentpole acceptance bar: the same four-machine deployment with
// intra-site parallel delivery (site_threads = 4, mirrored to the peers
// via the Hello record) reproduces the serial SyncTransport's *exact*
// RunStats — the capture-and-replay plane end-to-end over real processes.
TEST(SocketTransportTest, FT2ParallelSitesReproduceSyncExactly) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  Deployment deployment(w.doc, *w.cluster);

  for (const auto& q : xmark::ExperimentQueries()) {
    for (auto algo : {DistributedAlgorithm::kPaX2, DistributedAlgorithm::kPaX3,
                      DistributedAlgorithm::kNaiveCentralized}) {
      const std::string label =
          std::string(AlgorithmName(algo)) + "|threads=4|" + q.name;
      auto sync =
          EvaluateDistributed(*w.cluster, q.text, SyncOptions(algo, false));
      EngineOptions parallel =
          SocketOptions(algo, false, deployment.endpoints());
      parallel.transport_options.site_threads = 4;
      auto socket = EvaluateDistributed(*w.cluster, q.text, parallel);
      ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
      ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
      EXPECT_EQ(socket->answers, sync->answers) << label;
      ExpectStatsEqual(socket->stats, sync->stats, label);
    }
  }
}

// ---- Cross-run fan-out on one peer (DESIGN.md §14) --------------------------

// Two independent runs over ONE SocketTransport — one connection per peer —
// with peer_concurrent_rounds = 2: the peers deliver both runs' rounds
// concurrently on their round pools, and each run still reproduces its solo
// SyncTransport RunStats exactly (the per-run barrier never interleaves
// rounds of one run, so nothing observable may change).
TEST(SocketTransportTest, ConcurrentRunsOnOnePeerReproduceSoloStats) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  const std::string query_a =
      "clientele/client[country/text() = \"US\"]/"
      "broker[market/name/text() = \"NASDAQ\"]/name";
  const std::string query_b = "//market[name/text() = \"NASDAQ\"]//buy";
  auto compiled_a = CompileXPath(query_a, w.doc->symbols());
  auto compiled_b = CompileXPath(query_b, w.doc->symbols());
  ASSERT_TRUE(compiled_a.ok()) << compiled_a.status();
  ASSERT_TRUE(compiled_b.ok()) << compiled_b.status();

  EngineOptions options = SyncOptions(DistributedAlgorithm::kPaX2, false);
  auto solo_a = EvaluateDistributed(*w.cluster, *compiled_a, options);
  auto solo_b = EvaluateDistributed(*w.cluster, *compiled_b, options);
  ASSERT_TRUE(solo_a.ok()) << solo_a.status();
  ASSERT_TRUE(solo_b.ok()) << solo_b.status();

  TransportOptions topts;
  topts.remote_endpoints = deployment.endpoints();
  topts.site_threads = EnvSiteThreads();
  topts.peer_concurrent_rounds = 2;
  SocketTransport socket(topts);

  // Several passes so the runs' rounds genuinely overlap on the shared
  // connections rather than racing past each other once.
  for (int pass = 0; pass < 3; ++pass) {
    Result<DistributedResult> got_a = Status::Internal("unset");
    Result<DistributedResult> got_b = Status::Internal("unset");
    std::thread ta([&] {
      got_a = EvaluateDistributed(*w.cluster, *compiled_a, options, &socket);
    });
    std::thread tb([&] {
      got_b = EvaluateDistributed(*w.cluster, *compiled_b, options, &socket);
    });
    ta.join();
    tb.join();
    const std::string label = "pass " + std::to_string(pass);
    ASSERT_TRUE(got_a.ok()) << label << ": " << got_a.status();
    ASSERT_TRUE(got_b.ok()) << label << ": " << got_b.status();
    EXPECT_EQ(got_a->answers, solo_a->answers) << label;
    EXPECT_EQ(got_b->answers, solo_b->answers) << label;
    ExpectStatsEqual(got_a->stats, solo_a->stats, label + "|run A");
    ExpectStatsEqual(got_b->stats, solo_b->stats, label + "|run B");
  }
}

// A client asking for cross-run fan-out against a server capped at one
// round (paxml_site --rounds 1 semantics) degrades to the serial loop —
// same answers, same stats, no protocol confusion.
TEST(SocketTransportTest, ConcurrentRunsDegradeCleanlyWhenServerCapsRounds) {
  ClienteleWorld w = MakeClienteleWorld();

  // In-process server so the cap is settable (the Deployment harness
  // spawns paxml_site with default flags).
  const SiteId served = 2;
  SiteServer server(w.cluster.get(), served,
                    MakeSiteProgramFactory(w.cluster.get()),
                    /*max_site_threads=*/0, /*memo=*/nullptr,
                    /*allow_compress=*/false, /*max_concurrent_rounds=*/1);
  auto port = server.Listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::thread serving([&] {
    const Status st = server.Serve();
    (void)st;  // shutdown races surface as benign accept errors
  });

  // Remaining remote sites are served by real processes.
  Deployment deployment(w.doc, *w.cluster);
  std::map<SiteId, std::string> endpoints = deployment.endpoints();
  endpoints[served] = "127.0.0.1:" + std::to_string(*port);

  const std::string query = "//stock/code";
  auto compiled = CompileXPath(query, w.doc->symbols());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EngineOptions options = SyncOptions(DistributedAlgorithm::kPaX2, false);
  auto solo = EvaluateDistributed(*w.cluster, *compiled, options);
  ASSERT_TRUE(solo.ok()) << solo.status();

  Result<DistributedResult> got_a = Status::Internal("unset");
  Result<DistributedResult> got_b = Status::Internal("unset");
  {
    // Scoped: the transport must close its connections before Shutdown —
    // the serving thread sits in a blocking read on the live connection
    // until the client hangs up.
    TransportOptions topts;
    topts.remote_endpoints = endpoints;
    topts.peer_concurrent_rounds = 4;  // the capped server serializes anyway
    SocketTransport socket(topts);
    std::thread ta([&] {
      got_a = EvaluateDistributed(*w.cluster, *compiled, options, &socket);
    });
    std::thread tb([&] {
      got_b = EvaluateDistributed(*w.cluster, *compiled, options, &socket);
    });
    ta.join();
    tb.join();
  }
  server.Shutdown();
  serving.join();

  ASSERT_TRUE(got_a.ok()) << got_a.status();
  ASSERT_TRUE(got_b.ok()) << got_b.status();
  EXPECT_EQ(got_a->answers, solo->answers);
  EXPECT_EQ(got_b->answers, solo->answers);
  ExpectStatsEqual(got_a->stats, solo->stats, "capped|run A");
  ExpectStatsEqual(got_b->stats, solo->stats, "capped|run B");
}

// ---- Frame compression over real processes (DESIGN.md §13) ------------------

// With --compress servers and a client threshold, eligible frames travel
// as lz4 kFrameZ records in both directions. Because EncodeFrameForWire is
// the single shared pricing path, a SyncTransport run with the *same*
// threshold models the socket run's wire accounting exactly — so the full
// stats-equality bar applies unchanged, now covering the compressed wire
// split, and the logical ledger must match a plain uncompressed run bit
// for bit.
TEST(SocketTransportTest, CompressedFT2ReproducesSyncModelExactly) {
  bench::Workload w = bench::MakeFT2Paper(0.05);
  Deployment deployment(w.doc, *w.cluster, /*compress=*/true);

  constexpr uint64_t kThreshold = 128;
  uint64_t compressed_frames = 0;
  uint64_t raw_bytes = 0;
  uint64_t wire_bytes = 0;
  for (const auto& q : xmark::ExperimentQueries()) {
    for (auto algo : {DistributedAlgorithm::kPaX2,
                      DistributedAlgorithm::kNaiveCentralized}) {
      const std::string label =
          std::string(AlgorithmName(algo)) + "|z|" + q.name;
      EngineOptions sync_options = SyncOptions(algo, false);
      sync_options.transport_options.compress_min_bytes = kThreshold;
      auto sync = EvaluateDistributed(*w.cluster, q.text, sync_options);
      EngineOptions socket_options =
          SocketOptions(algo, false, deployment.endpoints());
      socket_options.transport_options.compress_min_bytes = kThreshold;
      auto socket = EvaluateDistributed(*w.cluster, q.text, socket_options);
      ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
      ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
      EXPECT_EQ(socket->answers, sync->answers) << label;
      ExpectStatsEqual(socket->stats, sync->stats, label);

      // Compression must leave the logical ledger untouched: identical to
      // a run that never heard of the codec.
      auto plain =
          EvaluateDistributed(*w.cluster, q.text, SyncOptions(algo, false));
      ASSERT_TRUE(plain.ok()) << label << ": " << plain.status();
      ExpectLogicalStatsEqual(socket->stats, plain->stats, label + "|plain");

      compressed_frames += socket->stats.wire_frames_compressed;
      raw_bytes += socket->stats.wire_raw_bytes;
      wire_bytes += socket->stats.wire_bytes;
    }
  }
  // The workload must actually exercise the codec, and it must help.
  EXPECT_GT(compressed_frames, 0u);
  EXPECT_LT(wire_bytes, raw_bytes);
}

// A client offering compression to servers run *without* --compress:
// the offer is declined in the HelloAck and every remote frame travels
// raw. Answers and the logical ledger still match the plain sync run (wire
// accounting is not compared — the client still models its threshold on
// local edges, which is exactly the fallback's documented shape).
TEST(SocketTransportTest, DeclinedCompressionOfferRunsRawAndCorrect) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);  // no --compress

  for (const std::string& query :
       {std::string("//stock/code"),
        std::string("clientele/client/broker/name")}) {
    auto sync = EvaluateDistributed(
        *w.cluster, query, SyncOptions(DistributedAlgorithm::kPaX2, false));
    EngineOptions options = SocketOptions(DistributedAlgorithm::kPaX2, false,
                                          deployment.endpoints());
    options.transport_options.compress_min_bytes = 64;
    auto socket = EvaluateDistributed(*w.cluster, query, options);
    ASSERT_TRUE(sync.ok()) << query << ": " << sync.status();
    ASSERT_TRUE(socket.ok()) << query << ": " << socket.status();
    EXPECT_EQ(socket->answers, sync->answers) << query;
    ExpectLogicalStatsEqual(socket->stats, sync->stats, query);
  }
}

// ---- Non-default message-plane knobs ----------------------------------------

// Pins the Hello mirroring of the chunking knobs end-to-end: with a
// non-default answer_chunk_ids *and* data_chunk_bytes the peers must seal
// byte-identical frames, or message/envelope/byte counts diverge from the
// in-process run. (The record-level round trip of every Hello field is
// pinned in frame_test.cc; this is the it-actually-reaches-the-peer half.)
TEST(SocketTransportTest, NonDefaultChunkKnobsReproduceSyncExactly) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  const std::string query = "//stock/code";
  for (auto algo : {DistributedAlgorithm::kPaX2,
                    DistributedAlgorithm::kNaiveCentralized}) {
    const std::string label = std::string(AlgorithmName(algo)) + "|chunks";
    EngineOptions sync_options = SyncOptions(algo, false);
    sync_options.transport_options.answer_chunk_ids = 3;
    sync_options.transport_options.data_chunk_bytes = 7;
    auto sync = EvaluateDistributed(*w.cluster, query, sync_options);
    EngineOptions socket_options =
        SocketOptions(algo, false, deployment.endpoints());
    socket_options.transport_options.answer_chunk_ids = 3;
    socket_options.transport_options.data_chunk_bytes = 7;
    auto socket = EvaluateDistributed(*w.cluster, query, socket_options);
    ASSERT_TRUE(sync.ok()) << label << ": " << sync.status();
    ASSERT_TRUE(socket.ok()) << label << ": " << socket.status();
    EXPECT_EQ(socket->answers, sync->answers) << label;
    ExpectStatsEqual(socket->stats, sync->stats, label);
  }
}

// ---- The session API, unchanged over sockets --------------------------------

TEST(SocketTransportTest, EngineSubmitWorksUnchangedOverSockets) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  EngineConfig config;
  config.depth = 3;
  config.remote_endpoints = deployment.endpoints();
  config.transport_options.site_threads = EnvSiteThreads();
  Engine engine(*w.cluster, config);

  const std::vector<std::string> queries = {
      "//stock/code",
      "clientele/client/broker/name",
      "clientele/client[country/text() = \"US\"]/name",
  };
  std::vector<QueryHandle> handles;
  for (const std::string& q : queries) {
    SubmitOptions submit;
    submit.priority = 1;
    handles.push_back(engine.Submit(q, submit));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryReport& report = handles[i].Wait();
    ASSERT_TRUE(report.result.ok())
        << queries[i] << ": " << report.result.status();
    auto baseline = EvaluateDistributed(
        *w.cluster, queries[i], SyncOptions(DistributedAlgorithm::kPaX2,
                                            false));
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(report.result->answers, baseline->answers) << queries[i];
    ExpectStatsEqual(report.stats, baseline->stats, queries[i]);
    EXPECT_GT(handles[i].Progress().rounds, 0) << queries[i];
  }
}

// ---- Failure semantics ------------------------------------------------------

TEST(SocketTransportTest, DialFailureIsACleanError) {
  ClienteleWorld w = MakeClienteleWorld();
  // Nobody listens here (ephemeral-range port on loopback).
  std::map<SiteId, std::string> endpoints = {{1, "127.0.0.1:1"},
                                             {2, "127.0.0.1:1"},
                                             {3, "127.0.0.1:1"}};
  auto r = EvaluateDistributed(
      *w.cluster, "//stock/code",
      SocketOptions(DistributedAlgorithm::kPaX2, false, endpoints));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNetworkError);
}

TEST(SocketTransportTest, QuerySiteMustBeLocal) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);
  std::map<SiteId, std::string> endpoints = deployment.endpoints();
  endpoints[0] = endpoints.begin()->second;  // claim S_Q is remote
  auto r = EvaluateDistributed(
      *w.cluster, "//stock/code",
      SocketOptions(DistributedAlgorithm::kPaX2, false, endpoints));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---- One wire version -------------------------------------------------------

/// Reads the next whole record off a raw connection, with a receive
/// timeout so a peer that never answers fails the test instead of hanging
/// it.
Result<WireRecord> ReadOneRecord(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  RecordBuffer buf;
  char chunk[4096];
  while (true) {
    PAXML_ASSIGN_OR_RETURN(std::optional<WireRecord> record, buf.Next());
    if (record.has_value()) return std::move(*record);
    PAXML_ASSIGN_OR_RETURN(size_t n, ReadSome(fd, chunk, sizeof(chunk)));
    if (n == 0) return Status::NetworkError("peer closed the connection");
    buf.Append({chunk, n});
  }
}

// paxml_site is the protocol's only implementation, so there is one
// version: a server handed a Hello of any other version answers with a
// kError naming the mismatch and ends the connection with a NetworkError.
TEST(SocketTransportTest, ServerRejectsHelloOfAnotherVersion) {
  ClienteleWorld w = MakeClienteleWorld();
  const SiteId site = 1;
  SiteServer server(w.cluster.get(), site,
                    MakeSiteProgramFactory(w.cluster.get()));
  auto port = server.Listen("127.0.0.1", 0);
  ASSERT_TRUE(port.ok()) << port.status();
  Status served = Status::Internal("unset");
  std::thread serving([&] { served = server.ServeOne(); });

  Result<int> fd = DialEndpoint("127.0.0.1:" + std::to_string(*port));
  Result<WireRecord> reply = Status::Internal("not dialed");
  if (fd.ok()) {
    HelloRecord hello;
    hello.version = kWireProtocolVersion - 1;
    hello.site = site;
    std::string bytes;
    AppendControlRecord(RecordType::kHello, hello, &bytes);
    EXPECT_TRUE(WriteAll(*fd, bytes).ok());
    reply = ReadOneRecord(*fd);
    CloseFd(*fd);
  } else {
    server.Shutdown();  // unblocks the accept
  }
  serving.join();

  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, RecordType::kError) << RecordTypeName(reply->type);
  ByteReader reader(reply->payload);
  auto error = ErrorRecord::Decode(&reader);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->run, kNullRun);
  EXPECT_NE(error->message.find("version mismatch"), std::string::npos)
      << error->message;
  EXPECT_NE(error->message.find(
                "v" + std::to_string(kWireProtocolVersion - 1)),
            std::string::npos)
      << error->message;
  EXPECT_EQ(served.code(), StatusCode::kNetworkError) << served;
}

// The client half: a peer whose HelloAck carries another version fails
// the handshake with a NetworkError — no hang, no abort, and the
// transport still tears down cleanly.
TEST(SocketTransportTest, ClientRejectsAckOfAnotherVersion) {
  Result<int> listen_fd = ListenOn("127.0.0.1", 0);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  Result<int> port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok()) << port.status();
  const SiteId site = 1;

  // A hand-rolled peer: reads the Hello, acks it at the wrong version,
  // then waits for the client to hang up.
  std::thread peer([fd = *listen_fd, site] {
    Result<int> conn = AcceptOn(fd);
    if (!conn.ok()) return;
    if (ReadOneRecord(*conn).ok()) {
      HelloAckRecord ack;
      ack.site = site;
      ack.version = kWireProtocolVersion - 1;
      std::string bytes;
      AppendControlRecord(RecordType::kHelloAck, ack, &bytes);
      (void)WriteAll(*conn, bytes);
      char byte;
      while (true) {
        Result<size_t> n = ReadSome(*conn, &byte, 1);
        if (!n.ok() || *n == 0) break;
      }
    }
    CloseFd(*conn);
  });

  TransportOptions topts;
  topts.remote_endpoints = {{site, "127.0.0.1:" + std::to_string(*port)}};
  {
    SocketTransport socket(topts);
    const Status status = socket.EnsureConnected();
    EXPECT_EQ(status.code(), StatusCode::kNetworkError) << status;
    EXPECT_NE(status.message().find("version mismatch"), std::string::npos)
        << status;
  }
  peer.join();
  CloseFd(*listen_fd);
}

// Killing a site process fails runs that touch it — promptly and cleanly —
// while runs confined to the surviving sites are undisturbed (invariant 5).
TEST(SocketTransportTest, KilledSiteFailsItsRunsAndSparesOthers) {
  ClienteleWorld w = MakeClienteleWorld();
  Deployment deployment(w.doc, *w.cluster);

  // With annotations, this qualifier-free query prunes the market
  // fragments: F2 (site 2) and F3 (site 3) contain no broker/name path.
  const std::string narrow = "clientele/client/broker/name";
  // This one needs the stocks and touches every site.
  const std::string wide = "//stock/code";

  // Pin the premise: the narrow query's traffic never touches site 3.
  auto narrow_sync = EvaluateDistributed(
      *w.cluster, narrow, SyncOptions(DistributedAlgorithm::kPaX2, true));
  ASSERT_TRUE(narrow_sync.ok());
  EXPECT_EQ(narrow_sync->stats.per_site[3].visits, 0);
  for (const auto& [edge, e] : narrow_sync->stats.edges) {
    EXPECT_NE(edge.first, 3);
    EXPECT_NE(edge.second, 3);
  }

  EngineConfig config;
  config.depth = 2;
  config.remote_endpoints = deployment.endpoints();
  config.transport_options.site_threads = EnvSiteThreads();
  Engine engine(*w.cluster, config);

  // Healthy first: both queries work over the deployment.
  {
    QueryHandle h = engine.Submit(wide);
    ASSERT_TRUE(h.Wait().result.ok()) << h.Wait().result.status();
  }

  deployment.KillSiteProcess(3);

  // The run touching the dead site surfaces a clean error, no hang.
  QueryHandle doomed = engine.Submit(wide);
  const QueryReport& doomed_report = doomed.Wait();
  ASSERT_FALSE(doomed_report.result.ok());
  EXPECT_EQ(doomed_report.result.status().code(), StatusCode::kNetworkError);

  // A concurrent-capable engine keeps serving runs on the healthy sites.
  // engine_options.transport is ignored per submission; the shared socket
  // plane is fixed at EngineConfig time.
  SubmitOptions spared_options;
  spared_options.engine_options = SyncOptions(DistributedAlgorithm::kPaX2, true);
  QueryHandle spared = engine.Submit(narrow, spared_options);
  const QueryReport& spared_report = spared.Wait();
  ASSERT_TRUE(spared_report.result.ok()) << spared_report.result.status();
  auto baseline = EvaluateDistributed(
      *w.cluster, narrow, SyncOptions(DistributedAlgorithm::kPaX2, true));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(spared_report.result->answers, baseline->answers);
}

}  // namespace
}  // namespace paxml
