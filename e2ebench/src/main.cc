// e2ebench: one workload, one seed, one run — see e2ebench/README.md.
//
//   e2ebench --workload ft2_local|ft2_socket|graph_reach --seed N
//            --seconds S --trace 0|1 --data-dir DIR
//            [--trace-file PATH] [--commit ID]
//
// Prints a provenance header, a human-readable table and, as the last line
// of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (an untraced and a traced window of half the time each).
// Exits 1 when any answer differs from the oracle, a ledger differs from
// the SyncTransport reference, a run leaves its algorithm's guarantee, or a
// window ends with fewer than 10 samples beyond its p99; 2 on bad
// arguments.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "layers.h"
#include "metrics.h"
#include "peers.h"
#include "trace.h"
#include "workload.h"

namespace e2ebench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string data_dir;
  std::string trace_file;
  std::string commit = "unknown";
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 31;
constexpr double kWarmupSeconds = 1.0;
/// The p99 a window prints needs at least this many samples beyond it.
constexpr size_t kMinBeyondP99 = 10;
/// Distinct queries whose ledger is checked against a SyncTransport run.
constexpr size_t kLedgerChecks = 16;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--trace-file") {
      args->trace_file = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->data_dir.empty();
}

void OnSignal(int sig) {
  KillRegisteredPeers();
  ::_exit(128 + sig);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResultLine(bool correct, size_t attempted, size_t failed,
                     const std::vector<Metric>& metrics) {
  std::string json = paxml::StringFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += paxml::StringFormat(
        "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
        metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double SortedPercentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

/// Peak resident set of this process plus every peer, MiB.
double PeakRssMb(const std::vector<pid_t>& peers) {
  double mb = ProcessHwmMb(0).value_or(0);
  for (pid_t pid : peers) mb += ProcessHwmMb(pid).value_or(0);
  return mb;
}

std::vector<double> LatenciesMs(const LoadResult& r) {
  std::vector<double> latency;
  for (const QuerySample& s : r.samples) latency.push_back(s.latency * 1e3);
  return latency;
}

std::vector<Metric> EndToEnd(const LoadResult& r, double setup_s,
                             double peak_rss_mb) {
  const std::vector<double> latency = LatenciesMs(r);
  double wire = 0;
  for (const QuerySample& s : r.samples) {
    wire += static_cast<double>(s.wire_bytes);
  }
  const double n = static_cast<double>(r.samples.size());
  return {
      {"qps", static_cast<double>(r.attempted - r.failed) / r.wall,
       "queries/s"},
      {"lat_p50_ms", SortedPercentile(latency, 50), "ms"},
      {"lat_p95_ms", SortedPercentile(latency, 95), "ms"},
      {"cpu_ms_per_query", r.cpu * 1e3 / n, "ms"},
      {"wire_bytes_per_query", wire / n, "bytes"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec,
                             const std::vector<SetupTimes>& setups,
                             const LoadResult& untraced, const LoadResult& r,
                             double compile_us,
                             const std::map<std::string, double>& sync_ms,
                             const CodecTimes& codecs) {
  const bool xml = spec.family == Family::kXml;
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  auto sync = [&](const char* kind) {
    auto it = sync_ms.find(kind);
    return it == sync_ms.end() ? 0.0 : it->second;
  };

  std::vector<double> queue;
  std::vector<double> eval;
  double parallel = 0, compute = 0, coordinator = 0, outside = 0;
  double wall_eval = 0, modeled = 0;
  double rounds = 0, frames = 0, envelopes = 0, compressed = 0;
  double wire = 0, wire_raw = 0, delta_logical = 0, delta_wire = 0;
  double ledger = 0, answer = 0, pool_tasks = 0;
  uint64_t busy_peak = 0, queue_peak = 0;
  int max_visits = 0;
  for (const QuerySample& s : r.samples) {
    const double e = s.latency - s.queue;
    queue.push_back(s.queue * 1e3);
    eval.push_back(e * 1e3);
    parallel += s.parallel;
    compute += s.compute;
    coordinator += s.coordinator;
    outside += e - (s.parallel + s.coordinator);
    wall_eval += e;
    modeled += s.parallel + s.coordinator;
    rounds += s.rounds;
    frames += static_cast<double>(s.frames);
    envelopes += static_cast<double>(s.envelopes);
    compressed += static_cast<double>(s.frames_compressed);
    wire += static_cast<double>(s.wire_bytes);
    wire_raw += static_cast<double>(s.wire_raw_bytes);
    delta_logical += static_cast<double>(s.delta_logical);
    delta_wire += static_cast<double>(s.delta_wire);
    ledger += static_cast<double>(s.ledger_bytes);
    answer += static_cast<double>(s.answer_bytes);
    pool_tasks += static_cast<double>(s.pool_tasks);
    busy_peak = std::max(busy_peak, s.pool_busy_peak);
    queue_peak = std::max(queue_peak, s.pool_queue_peak);
    max_visits = std::max(max_visits, s.max_visits);
  }
  const double n = static_cast<double>(r.samples.size());
  const double untraced_qps =
      static_cast<double>(untraced.attempted) / untraced.wall;
  const double traced_qps = static_cast<double>(r.attempted) / r.wall;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  return {
      {"fragment.load_s", xml ? setup_median(&SetupTimes::load) : 0, "s"},
      {"graph.load_s", xml ? 0 : setup_median(&SetupTimes::load), "s"},
      {"runtime.peer_start_s", setup_median(&SetupTimes::peer_start), "s"},
      {"core.engine_open_s", setup_median(&SetupTimes::engine_open), "s"},
      {"xpath.compile_us", compile_us, "us"},
      {"runtime.queue_ms_p50", SortedPercentile(queue, 50), "ms"},
      {"runtime.eval_ms_p50", SortedPercentile(eval, 50), "ms"},
      {"runtime.eval_ms_p99", SortedPercentile(eval, 99), "ms"},
      {"core.sync_eval_ms.light", sync("light"), "ms"},
      {"core.sync_eval_ms.heavy", sync("heavy"), "ms"},
      {"core.sync_eval_ms.reach", sync("reach"), "ms"},
      {"sim.parallel_ms_per_query", parallel * 1e3 / n, "ms"},
      {"runtime.site_compute_ms_per_query", compute * 1e3 / n, "ms"},
      {"core.coordinator_ms_per_query", coordinator * 1e3 / n, "ms"},
      {"runtime.outside_ms_per_query", outside * 1e3 / n, "ms"},
      {"runtime.wall_over_modeled", ratio(wall_eval, modeled), "ratio"},
      {"runtime.pool_tasks_per_query", pool_tasks / n, "count"},
      {"runtime.pool_busy_peak", static_cast<double>(busy_peak), "count"},
      {"runtime.pool_queue_peak", static_cast<double>(queue_peak), "count"},
      {"runtime.rounds_per_query", rounds / n, "count"},
      {"runtime.frames_per_query", frames / n, "count"},
      {"runtime.envelopes_per_frame", ratio(envelopes, frames), "count"},
      {"common.lz4_ratio", ratio(wire, wire_raw), "ratio"},
      {"runtime.frames_compressed_per_query", compressed / n, "count"},
      {"core.delta_ratio", ratio(delta_wire, delta_logical), "ratio"},
      {"common.lz4_compress_us_per_kb", codecs.lz4_compress_us_per_kb, "us"},
      {"common.lz4_decompress_us_per_kb", codecs.lz4_decompress_us_per_kb,
       "us"},
      {"runtime.frame_encode_us", codecs.frame_encode_us, "us"},
      {"runtime.frame_decode_us", codecs.frame_decode_us, "us"},
      {"core.ledger_bytes_per_query", ledger / n, "bytes"},
      {"core.answer_bytes_per_query", answer / n, "bytes"},
      {"core.max_visits", static_cast<double>(max_visits), "count"},
      {"core.guarantee_violations",
       static_cast<double>(untraced.violations + r.violations), "count"},
      {"bench.tracing_overhead_pct",
       (untraced_qps - traced_qps) / untraced_qps * 100.0, "%"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (std::strcmp(E2EBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2ebench: refusing a %s build; build Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 2;
  }
  const bool xml = spec->family == Family::kXml;
  std::printf(
      "# e2ebench workload=%s seed=%llu seconds=%g trace=%d data=%s "
      "clients=%zu nproc=%ld compiler=\"%s\" build=%s commit=%s\n",
      spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace,
      xml ? "FT2(scale=0.25,~1.3MB,10 fragments,4 sites)"
          : "banded-digraph(40000 vertices,window 16,8 fragments,4 sites)",
      spec->clients, ::sysconf(_SC_NPROCESSORS_ONLN), E2EBENCH_COMPILER,
      E2EBENCH_BUILD_TYPE, args.commit.c_str());
  std::fflush(stdout);

  auto prepared = PrepareData(spec->family, args.seed, spec->clients,
                              args.data_dir);
  if (!prepared.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const QuerySet& queries = *prepared;

  Tracer tracer;
  Tracer* const spans = args.trace == 1 ? &tracer : nullptr;

  // Set-up, several times from the saved data: half before the timed
  // windows (the last of these deployments serves them) and half after, so
  // setup_s does not hang on the host's state in one second of the run.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  auto set_up = [&](int repeats) {
    for (int r = 0; r < repeats; ++r) {
      deployment.reset();
      SetupTimes times;
      auto opened = Deployment::Open(*spec, args.data_dir, E2EBENCH_SITE_BIN,
                                     queries.texts[0], queries.expected[0],
                                     spans, &times);
      if (!opened.ok()) {
        std::fprintf(stderr, "e2ebench: set-up failed: %s\n",
                     opened.status().ToString().c_str());
        return false;
      }
      deployment = std::move(opened).ValueOrDie();
      setups.push_back(times);
    }
    return true;
  };
  if (!set_up(kSetupRepeats / 2 + 1)) return 1;

  bool correct = true;
  for (const std::string& problem :
       CheckLedgers(*deployment, queries, spec->family, kLedgerChecks)) {
    std::fprintf(stderr, "e2ebench: ledger check: %s\n", problem.c_str());
    correct = false;
  }

  paxml::Engine& engine = deployment->engine();
  const std::vector<pid_t> peers = deployment->peer_pids();
  RunClosedLoop(engine, queries, spec->family, kWarmupSeconds, 0, peers,
                nullptr);
  // The traced pass splits --seconds between its untraced and traced
  // windows, so both kinds of run take about as long.
  const double window = args.trace == 0 ? args.seconds : args.seconds / 2;
  const size_t min_samples = MinSamplesFor(99, kMinBeyondP99);
  const LoadResult untraced = RunClosedLoop(
      engine, queries, spec->family, window, min_samples, peers, nullptr);
  const double peak_rss_mb = PeakRssMb(peers);

  const LoadResult* reported = &untraced;
  LoadResult traced;
  double compile_us = 0;
  std::map<std::string, double> sync_ms;
  CodecTimes codecs;
  if (args.trace == 1) {
    traced = RunClosedLoop(engine, queries, spec->family, window,
                           min_samples, peers, spans);
    reported = &traced;
    const paxml::Cluster& cluster = deployment->cluster();
    if (xml) compile_us = MeasureCompileUs(cluster, queries, spans);
    sync_ms = MeasureSyncEvalMs(cluster, queries, spec->family, spans);
    if (xml) codecs = MeasureCodecs(queries, spans);
  }
  if (!set_up(kSetupRepeats / 2)) return 1;
  deployment.reset();

  std::vector<double> setup_totals;
  for (const SetupTimes& t : setups) setup_totals.push_back(t.total);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(untraced, Median(setup_totals), peak_rss_mb);
  } else {
    metrics = PerLayer(*spec, setups, untraced, traced, compile_us, sync_ms,
                       codecs);
    if (!args.trace_file.empty()) {
      paxml::Status st = tracer.WriteChromeTrace(args.trace_file);
      if (!st.ok()) {
        std::fprintf(stderr, "e2ebench: %s\n", st.ToString().c_str());
      }
    }
  }

  const size_t attempted = untraced.attempted + traced.attempted;
  const size_t failed = untraced.failed + traced.failed;
  const size_t violations = untraced.violations + traced.violations;
  if (failed > 0 || violations > 0) correct = false;

  const size_t n = reported->samples.size();
  std::printf("closed loop: %zu clients, %zu queries in %.3f s\n",
              spec->clients, n, reported->wall);
  for (const LoadResult* window : {&untraced, reported}) {
    if (SamplesBeyond(window->samples.size(), 99) < kMinBeyondP99) {
      std::fprintf(stderr,
                   "e2ebench: %zu queries leave fewer than %zu beyond p99\n",
                   window->samples.size(), kMinBeyondP99);
      return 1;
    }
  }
  std::printf(
      "set-up: median of %zu repeats (load -> first correct answer), %d "
      "before the timed window and %d after it\n",
      setups.size(), kSetupRepeats / 2 + 1, kSetupRepeats / 2);
  const double cpu_ms =
      untraced.cpu * 1e3 / static_cast<double>(untraced.attempted);
  const double qps = static_cast<double>(untraced.attempted) / untraced.wall;
  std::printf(
      "load: %.2f cores (qps x cpu_ms_per_query) of %ld; the host took "
      "%.1f%% of the processors' time (steal)\n",
      qps * cpu_ms / 1e3, ::sysconf(_SC_NPROCESSORS_ONLN),
      untraced.steal * 100.0);
  // The p99 is printed, not gated: a host's stalls set it (README.md).
  std::printf("lat_p99_ms %.6g ms, %zu of %zu samples beyond it\n",
              SortedPercentile(LatenciesMs(*reported), 99),
              SamplesBeyond(n, 99), n);
  std::printf("fail_ratio %.6g (%zu of %zu failed), guarantee violations %zu\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              failed, attempted, violations);
  PrintTable(args.trace == 0 ? "end-to-end:" : "per-layer (traced window):",
             metrics);
  PrintResultLine(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGQUIT}) {
    ::signal(sig, e2ebench::OnSignal);
  }
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--trace-file PATH] "
                 "[--commit ID]\n");
    return 2;
  }
  return e2ebench::Run(args);
}
