#include "workload.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <optional>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/reach.h"
#include "fragment/storage.h"
#include "graph/store.h"
#include "metrics.h"

namespace e2ebench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Ft2PlacementArg() {
  std::string out;
  for (paxml::SiteId s : kFt2Placement) {
    if (!out.empty()) out += ',';
    out += std::to_string(s);
  }
  return out;
}

paxml::Result<std::shared_ptr<const paxml::WorkloadData>> LoadData(
    Family family, const std::string& dir) {
  if (family == Family::kGraph) {
    PAXML_ASSIGN_OR_RETURN(
        std::shared_ptr<const paxml::GraphFragmentStore> store,
        paxml::LoadGraph(dir));
    return std::shared_ptr<const paxml::WorkloadData>(std::move(store));
  }
  PAXML_ASSIGN_OR_RETURN(paxml::FragmentedDocument doc,
                         paxml::LoadDocument(dir));
  return std::shared_ptr<const paxml::WorkloadData>(
      std::make_shared<paxml::FragmentedDocument>(std::move(doc)));
}

/// Total CPU seconds of this process and `peers` (a peer that cannot be
/// read counts as zero; its queries fail and show in fail_ratio).
double CpuSeconds(const std::vector<pid_t>& peers) {
  double cpu = ProcessCpuSeconds(0).value_or(0);
  for (pid_t pid : peers) cpu += ProcessCpuSeconds(pid).value_or(0);
  return cpu;
}

QuerySample Sample(uint32_t query, const paxml::QueryReport& report,
                   const std::vector<paxml::GlobalNodeId>& expected) {
  QuerySample s;
  s.query = query;
  s.failed = !report.result.ok() || report.result->answers != expected;
  s.queue = report.queue_seconds;
  const paxml::RunStats& st = report.stats;
  s.parallel = st.parallel_seconds;
  s.compute = st.total_compute_seconds;
  s.coordinator = st.coordinator_seconds;
  s.rounds = st.rounds;
  s.max_visits = st.max_visits();
  s.frames = st.total_messages;
  s.envelopes = st.total_envelopes;
  s.ledger_bytes = st.total_bytes;
  s.answer_bytes = st.answer_bytes;
  s.wire_bytes = st.wire_bytes;
  s.wire_raw_bytes = st.wire_raw_bytes;
  s.frames_compressed = st.wire_frames_compressed;
  s.delta_logical = st.delta_logical_bytes;
  s.delta_wire = st.delta_wire_bytes;
  s.pool_tasks = st.pool_tasks;
  s.pool_busy_peak = st.pool_busy_peak;
  s.pool_queue_peak = st.pool_queue_peak;
  return s;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"ft2_local", Family::kXml, 2, false, 2},
      {"ft2_socket", Family::kXml, 1, true, 1},
      {"graph_reach", Family::kGraph, 1, false, 1},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- Deployment -------------------------------------------------------------

Deployment::~Deployment() = default;

paxml::TransportOptions Deployment::transport_options() const {
  paxml::TransportOptions options;
  options.site_threads = spec_.site_threads;
  if (spec_.socket) {
    options.compress_min_bytes = 512;
    options.peer_concurrent_rounds = 2;
  }
  return options;
}

paxml::Result<std::unique_ptr<Deployment>> Deployment::Open(
    const WorkloadSpec& spec, const std::string& dir,
    const std::string& site_binary, const std::string& first_query,
    const std::vector<paxml::GlobalNodeId>& first_expected, Tracer* tracer,
    SetupTimes* times) {
  Span setup(tracer, "setup");
  const uint64_t trace = setup.id();
  std::unique_ptr<Deployment> d(new Deployment(spec));

  // Peers load their copy of the data while the client loads its own.
  std::optional<Span> peer_start;
  if (spec.socket) {
    peer_start.emplace(tracer, "runtime.peer_start", trace, setup.id());
    PAXML_RETURN_NOT_OK(d->peers_.Spawn(site_binary, dir, kSites,
                                        Ft2PlacementArg(), {1, 2, 3},
                                        {"--compress"}));
  }

  Span load(tracer,
            spec.family == Family::kXml ? "fragment.load" : "graph.load",
            trace, setup.id());
  PAXML_ASSIGN_OR_RETURN(std::shared_ptr<const paxml::WorkloadData> data,
                         LoadData(spec.family, dir));
  paxml::ClusterOptions cluster_options;
  cluster_options.parallel_execution = true;
  d->cluster_ = std::make_unique<paxml::Cluster>(data, kSites, cluster_options);
  if (spec.family == Family::kXml) {
    for (size_t f = 0; f < std::size(kFt2Placement); ++f) {
      PAXML_RETURN_NOT_OK(d->cluster_->Place(static_cast<paxml::FragmentId>(f),
                                             kFt2Placement[f]));
    }
  } else {
    d->cluster_->PlaceRoundRobin();
  }
  times->load = load.End();

  if (peer_start) {
    PAXML_RETURN_NOT_OK(d->peers_.AwaitListening());
    times->peer_start = peer_start->End();
  }

  paxml::EngineConfig config;
  config.transport_options = d->transport_options();
  config.remote_endpoints = d->peers_.endpoints();
  {
    Span open(tracer, "core.engine_open", trace, setup.id());
    d->engine_ = std::make_unique<paxml::Engine>(*d->cluster_, config);
    times->engine_open = open.End();
  }

  {
    Span first(tracer, "setup.first_answer", trace, setup.id());
    // The handle owns the report; keep it alive while the report is read.
    const paxml::QueryHandle handle = d->engine_->Submit(first_query);
    const paxml::QueryReport& report = handle.Wait();
    if (!report.result.ok()) return report.result.status();
    if (report.result->answers != first_expected) {
      return paxml::Status::Internal("first answer differs from the oracle");
    }
  }
  times->total = setup.End();
  return d;
}

// ---- The closed loop --------------------------------------------------------

bool WithinGuarantee(Family family, const QuerySample& sample) {
  return family == Family::kXml ? sample.max_visits <= 2 : sample.rounds == 1;
}

LoadResult RunClosedLoop(paxml::Engine& engine, const QuerySet& queries,
                         Family family, double seconds, size_t min_samples,
                         const std::vector<pid_t>& peers, Tracer* tracer) {
  const size_t clients = queries.streams.size();
  std::vector<std::vector<QuerySample>> per_client(clients);
  bool stop = false;  // written by the barrier's completion step only

  const double cpu_before = CpuSeconds(peers);
  const CpuTicks machine_before = MachineTicks();
  const Clock::time_point start = Clock::now();
  // Clients submit in step: a step starts once every client has its answer
  // from the step before, so each query of a multi-client workload
  // overlaps the others' from its first round.
  auto next_step = [&]() noexcept {
    const double elapsed = SecondsSince(start);
    const size_t done = per_client[0].size() * clients;
    stop = (elapsed >= seconds && done >= min_samples) ||
           elapsed >= 4 * seconds;
  };
  std::barrier step(static_cast<ptrdiff_t>(clients), next_step);
  auto client = [&](size_t c) {
    const std::vector<uint32_t>& stream = queries.streams[c];
    std::vector<QuerySample>& out = per_client[c];
    for (size_t i = 0;; ++i) {
      step.arrive_and_wait();
      if (stop) break;
      const uint32_t q = stream[i % stream.size()];
      Span query(tracer, "client.query");
      paxml::QueryHandle handle;
      {
        Span submit(tracer, "engine.submit", query.id(), query.id());
        handle = engine.Submit(queries.texts[q]);
      }
      Span wait(tracer, "query.wait", query.id(), query.id());
      const paxml::QueryReport& report = handle.Wait();
      wait.End();
      const double latency = query.End();
      QuerySample s = Sample(q, report, queries.expected[q]);
      s.latency = latency;
      s.done = SecondsSince(start);
      out.push_back(s);
    }
  };
  {
    std::vector<std::jthread> threads;  // joined when the block ends
    for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  }

  LoadResult result;
  result.wall = SecondsSince(start);
  result.cpu = CpuSeconds(peers) - cpu_before;
  const CpuTicks machine = MachineTicks();
  if (machine.total > machine_before.total) {
    result.steal = static_cast<double>(machine.steal - machine_before.steal) /
                   static_cast<double>(machine.total - machine_before.total);
  }
  for (auto& samples : per_client) {
    for (const QuerySample& s : samples) {
      ++result.attempted;
      if (s.failed) {
        ++result.failed;
      } else if (!WithinGuarantee(family, s)) {
        ++result.violations;
      }
    }
    result.samples.insert(result.samples.end(), samples.begin(), samples.end());
  }
  std::sort(result.samples.begin(), result.samples.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.done < b.done;
            });
  return result;
}

// ---- Ledger identity --------------------------------------------------------

std::vector<std::string> LedgerDiff(const paxml::RunStats& a,
                                    const paxml::RunStats& b) {
  std::vector<std::string> diff;
  auto field = [&](const char* name, uint64_t x, uint64_t y) {
    if (x != y) {
      diff.push_back(paxml::StringFormat("%s %llu != %llu", name,
                                         static_cast<unsigned long long>(x),
                                         static_cast<unsigned long long>(y)));
    }
  };
  field("rounds", static_cast<uint64_t>(a.rounds),
        static_cast<uint64_t>(b.rounds));
  field("total_messages", a.total_messages, b.total_messages);
  field("total_envelopes", a.total_envelopes, b.total_envelopes);
  field("total_bytes", a.total_bytes, b.total_bytes);
  field("answer_bytes", a.answer_bytes, b.answer_bytes);
  field("data_bytes_shipped", a.data_bytes_shipped, b.data_bytes_shipped);
  field("wire_bytes", a.wire_bytes, b.wire_bytes);
  field("wire_raw_bytes", a.wire_raw_bytes, b.wire_raw_bytes);
  field("wire_frames_compressed", a.wire_frames_compressed,
        b.wire_frames_compressed);
  field("delta_logical_bytes", a.delta_logical_bytes, b.delta_logical_bytes);
  field("delta_wire_bytes", a.delta_wire_bytes, b.delta_wire_bytes);
  field("sites", a.per_site.size(), b.per_site.size());
  for (size_t i = 0; i < std::min(a.per_site.size(), b.per_site.size()); ++i) {
    const paxml::SiteStats& x = a.per_site[i];
    const paxml::SiteStats& y = b.per_site[i];
    field("site.visits", static_cast<uint64_t>(x.visits),
          static_cast<uint64_t>(y.visits));
    field("site.bytes_sent", x.bytes_sent, y.bytes_sent);
    field("site.bytes_received", x.bytes_received, y.bytes_received);
    field("site.messages_sent", x.messages_sent, y.messages_sent);
    field("site.messages_received", x.messages_received, y.messages_received);
  }
  if (a.edges != b.edges) diff.push_back("per-edge traffic differs");
  return diff;
}

std::vector<std::string> CheckLedgers(Deployment& deployment,
                                      const QuerySet& queries, Family family,
                                      size_t limit) {
  std::vector<std::string> problems;
  const paxml::Cluster& cluster = deployment.cluster();
  for (size_t i = 0; i < std::min(limit, queries.texts.size()); ++i) {
    const std::string& text = queries.texts[i];
    const paxml::QueryHandle handle = deployment.engine().Submit(text);
    const paxml::QueryReport& report = handle.Wait();

    paxml::Result<paxml::DistributedResult> reference =
        paxml::Status::Internal("not evaluated");
    if (family == Family::kXml) {
      paxml::EngineOptions options;
      options.transport = paxml::TransportKind::kSync;
      options.transport_options = deployment.transport_options();
      reference = paxml::EvaluateDistributed(cluster, text, options);
    } else {
      auto query = paxml::ParseReachQuery(text);
      if (!query.ok()) {
        problems.push_back(text + ": " + query.status().ToString());
        continue;
      }
      auto sync = paxml::MakeTransportFor(cluster, paxml::TransportKind::kSync,
                                          deployment.transport_options());
      reference = paxml::EvaluateReachability(cluster, *query, sync.get());
    }
    if (!report.result.ok() || !reference.ok()) {
      problems.push_back(text + ": evaluation failed");
      continue;
    }
    if (report.result->answers != queries.expected[i] ||
        reference->answers != queries.expected[i]) {
      problems.push_back(text + ": answers differ from the oracle");
    }
    for (const std::string& d : LedgerDiff(report.stats, reference->stats)) {
      problems.push_back(text + ": " + d);
    }
  }
  return problems;
}

}  // namespace e2ebench
