// The three benchmark workloads, driven through the public Engine API.
//
//   ft2_local    FT2 on four in-process sites, pooled transport,
//                site_threads=2, PaX2; 2 clients in step.
//   ft2_socket   the same data and mix; sites B, C, D are paxml_site
//                processes on loopback (--compress), A is in-process;
//                compress_min_bytes=512, peer_concurrent_rounds=2,
//                site_threads=1; 1 client.
//   graph_reach  40k-vertex banded digraph, 8 contiguous fragments over 4
//                in-process sites, pooled, site_threads=1; 1 client.
//
// Every layer is measured from outside: by timing calls into public
// functions and by reading the public QueryReport / RunStats.

#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "data.h"
#include "peers.h"
#include "sim/cluster.h"
#include "trace.h"

namespace e2ebench {

struct WorkloadSpec {
  const char* name;
  Family family;
  size_t clients;
  bool socket;  ///< sites B, C, D run as paxml_site processes
  size_t site_threads;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Where one set-up's time went (seconds).
struct SetupTimes {
  double load = 0;         ///< LoadDocument / LoadGraph in the client
  double peer_start = 0;   ///< spawn -> every peer LISTENING (socket only)
  double engine_open = 0;  ///< Engine constructor (dial + Hello on sockets)
  double total = 0;        ///< saved data on disk -> first correct answer
};

/// One deployed instance of a workload: data loaded from disk, the
/// cluster, the peers and the engine. Destruction drains the engine, then
/// kills and reaps the peers.
class Deployment {
 public:
  /// Loads the data under `dir`, starts the peers (socket workload), opens
  /// the engine and waits for a first answer, which must equal
  /// `first_expected`. `times` receives the step durations.
  static paxml::Result<std::unique_ptr<Deployment>> Open(
      const WorkloadSpec& spec, const std::string& dir,
      const std::string& site_binary, const std::string& first_query,
      const std::vector<paxml::GlobalNodeId>& first_expected, Tracer* tracer,
      SetupTimes* times);

  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  paxml::Engine& engine() { return *engine_; }
  const paxml::Cluster& cluster() const { return *cluster_; }
  std::vector<pid_t> peer_pids() const { return peers_.pids(); }

  /// The transport options the engine was opened with.
  paxml::TransportOptions transport_options() const;

 private:
  explicit Deployment(const WorkloadSpec& spec) : spec_(spec) {}

  const WorkloadSpec& spec_;
  std::unique_ptr<paxml::Cluster> cluster_;
  PeerSet peers_;  // declared before engine_: the engine goes first
  std::unique_ptr<paxml::Engine> engine_;
};

/// What the timed loop keeps of one completed query.
struct QuerySample {
  uint32_t query = 0;     ///< index into QuerySet::texts
  bool failed = false;    ///< error, or an answer other than the oracle's
  double latency = 0;     ///< submit -> answer, seconds
  double done = 0;        ///< answer, seconds after the window opened
  double queue = 0;       ///< QueryReport::queue_seconds
  double parallel = 0;    ///< RunStats::parallel_seconds
  double compute = 0;     ///< RunStats::total_compute_seconds
  double coordinator = 0; ///< RunStats::coordinator_seconds
  int rounds = 0;
  int max_visits = 0;
  uint64_t frames = 0;    ///< total_messages
  uint64_t envelopes = 0;
  uint64_t ledger_bytes = 0;  ///< total_bytes
  uint64_t answer_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_raw_bytes = 0;
  uint64_t frames_compressed = 0;
  uint64_t delta_logical = 0;
  uint64_t delta_wire = 0;
  uint64_t pool_tasks = 0;
  uint64_t pool_busy_peak = 0;
  uint64_t pool_queue_peak = 0;
};

/// One closed-loop window.
struct LoadResult {
  std::vector<QuerySample> samples;  ///< in completion order
  double wall = 0;     ///< first submit -> last answer, seconds
  double cpu = 0;      ///< CPU seconds of the client plus every peer
  double steal = 0;    ///< share of the machine's time the host took away
  size_t attempted = 0;
  size_t failed = 0;
  size_t violations = 0;  ///< samples outside the algorithm's guarantee
};

/// Runs one closed-loop client per QuerySet stream against `engine` until
/// `seconds` have passed and at least `min_samples` queries have completed
/// (bounded at four times `seconds`). The clients go in step: each submits
/// one query, waits for its answer, and submits the next once every client
/// has its answer. Every answer is compared with the oracle. CPU is read
/// from /proc for this process and `peers` across the window.
LoadResult RunClosedLoop(paxml::Engine& engine, const QuerySet& queries,
                         Family family, double seconds, size_t min_samples,
                         const std::vector<pid_t>& peers, Tracer* tracer);

/// True if the sample stayed inside its algorithm's guarantee: at most 2
/// visits per site for PaX2, exactly one round for reachability.
bool WithinGuarantee(Family family, const QuerySample& sample);

/// Fields of the paper's ledger that differ between two runs' RunStats
/// (rounds, visits, messages, envelopes, byte splits, per-edge traffic,
/// wire and delta counters); empty when they are identical.
std::vector<std::string> LedgerDiff(const paxml::RunStats& a,
                                    const paxml::RunStats& b);

/// Evaluates each of the first `limit` distinct queries once through
/// `deployment`'s engine and once on a SyncTransport with the same
/// transport options, and returns one line per query whose answers or
/// ledger differ (empty when all agree).
std::vector<std::string> CheckLedgers(Deployment& deployment,
                                      const QuerySet& queries, Family family,
                                      size_t limit);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_H_
