// SiteDriver: the site-side half of one evaluation's round loop.
//
// Extracted from the Coordinator so that both drivers of a run share one
// dispatch surface: the Coordinator delivers local sites' mail (and its own
// up-replies) through it, and a paxml_site peer (runtime/socket_server.h)
// delivers its hosted site's mail through an identical driver built from
// the client's RunSpec — the round barrier then works as a control-record
// exchange instead of a function call (DESIGN.md §9). Either way, a
// delivery decodes the envelopes in order into the algorithm's
// MessageHandlers via one SiteRuntime per site.
//
// Intra-site parallelism (DESIGN.md §10): when the driver is built with a
// WorkerPool and site_threads > 1, DeliverParallel() partitions a site's
// round mail into per-fragment *lanes* — an envelope whose parts all
// address one fragment with site-side kinds keys its fragment's lane;
// anything else (query ship, up-messages, data ship, mixed-fragment
// envelopes) is a barrier delivered serially in place — and evaluates the
// lanes concurrently. Determinism is preserved by capture-and-replay:
// each lane's handlers send through a private capture plane, and after the
// lanes join, the captured envelopes are replayed into the real transport
// in the original serial mail order, so staging order, adaptive-flush
// points, frame sequences and every per-edge byte/message/envelope count
// are bit-identical to the serial delivery (tested property). This is safe
// because every algorithm's site-side state is confined to per-fragment
// slots (the MessageHandlers threading contract, runtime/site_runtime.h).
//
// Fragment-stage memoization (DESIGN.md §12): a driver built with a
// MemoSession serves repeated lane deliveries from the memo instead of
// evaluating them. The memoized walk is serial (a hit replays recorded
// replies into the real plane in mail order, so there is nothing to
// overlap); barriers always evaluate normally. On the first divergence of
// a fragment — no memo entry, or the request stream differs — the driver
// rebuilds that fragment's handler state by re-delivering the memo-served
// request prefix through a discard capture plane, then evaluates and
// records from there. The same per-fragment-state contract that makes lane
// parallelism sound makes this replay sound; replayed replies go through
// Transport::Send like computed ones, so RunStats' accounted counters stay
// bit-identical and only the memo_* savings fields differ.

#ifndef PAXML_RUNTIME_SITE_DRIVER_H_
#define PAXML_RUNTIME_SITE_DRIVER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "runtime/site_runtime.h"
#include "runtime/transport.h"
#include "serving/fragment_memo.h"

namespace paxml {

class Cluster;
class WorkerPool;

class SiteDriver {
 public:
  /// Builds one SiteRuntime per site of `cluster`, all dispatching into
  /// `handlers` and sending through `transport` under `run`. A non-null
  /// `pool` with `site_threads` > 1 enables the parallel delivery path
  /// (DeliverParallel); the pool must not be the one the transport's own
  /// delivery rounds execute on (see Cluster::site_worker_pool). A non-null
  /// `memo` enables the fragment-stage memo path, which supersedes lane
  /// fan-out (memoized deliveries are serial; see the header comment).
  SiteDriver(const Cluster* cluster, Transport* transport, RunId run,
             MessageHandlers* handlers,
             std::shared_ptr<WorkerPool> pool = nullptr,
             size_t site_threads = 1,
             std::shared_ptr<MemoSession> memo = nullptr);

  SiteDriver(const SiteDriver&) = delete;
  SiteDriver& operator=(const SiteDriver&) = delete;

  /// Decodes and dispatches `mail` at `site`, in order; stops at the first
  /// handler error. Always serial — the coordinator's up-mail dispatch
  /// depends on it (coordinator-side handler state is single-threaded).
  Status Deliver(SiteId site, std::vector<Envelope> mail);

  /// Deliver(), but per-fragment lanes of `mail` run concurrently on the
  /// driver's pool when parallel delivery is enabled (else identical to
  /// Deliver). Only for *site-side* round mail — both round loops (the
  /// Coordinator's and the peer's) deliver through this. On a handler
  /// error, sends captured up to and including the failing envelope (in
  /// serial order) are replayed, the rest discarded, and the first failing
  /// envelope's status (by serial position) is returned — later lanes may
  /// have run further than the serial order would have, which only ever
  /// happens on runs that are about to be torn down.
  Status DeliverParallel(SiteId site, std::vector<Envelope> mail);

  /// DeliverParallel() plus a measurement of the delivery's *parallel
  /// cost* — the unit both the local round loop and a remote peer's
  /// RoundDone report in. Serial work (barriers, replay, the serial
  /// fallback) is measured as thread-CPU time; each parallel segment adds
  /// the maximum over its lane tasks' thread-CPU time, the intra-site
  /// analogue of the cluster's max-over-sites metric (sim/cluster.h), so
  /// the reported cost reflects the fan-out even when the host has fewer
  /// cores than lanes.
  Status DeliverTimed(SiteId site, std::vector<Envelope> mail,
                      double* seconds);

  /// True when DeliverParallel may actually fan out (pool + threads > 1).
  /// The memo path supersedes fan-out.
  bool parallel_enabled() const {
    return memo_ == nullptr && pool_ != nullptr && site_threads_ > 1;
  }

  /// Advisory telemetry accumulated since the last take: the memo path's
  /// savings (zero without a memo session), and pool saturation (zero when
  /// nothing fanned out) — exact task submissions by this driver plus the
  /// shared pool's peak gauges, sampled after each batch. The round loops
  /// drain it into RunTelemetry: locally after the round, remotely via the
  /// RoundDone record.
  SiteTelemetry TakeTelemetry();

 private:
  Status DeliverParallelImpl(SiteId site, std::vector<Envelope> mail,
                             double* seconds);
  Status DeliverSegmentParallel(SiteId site, std::vector<Envelope>* segment,
                                double* seconds);
  Status DeliverMemoized(SiteId site, std::vector<Envelope> mail,
                         double* seconds);
  void AccountBatch(size_t tasks_submitted);

  std::vector<SiteRuntime> sites_;
  const Cluster* cluster_;
  Transport* transport_;
  RunId run_;
  MessageHandlers* handlers_;
  std::shared_ptr<WorkerPool> pool_;
  size_t site_threads_ = 1;
  std::shared_ptr<MemoSession> memo_;
  /// Pool accounting, the pool_* fields only (under pool_telemetry_mu_:
  /// site deliveries run concurrently on the pooled transport's workers).
  std::mutex pool_telemetry_mu_;
  SiteTelemetry pool_telemetry_;
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_SITE_DRIVER_H_
