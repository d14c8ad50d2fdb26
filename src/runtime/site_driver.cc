#include "runtime/site_driver.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <utility>

#include "common/logging.h"
#include "runtime/worker_pool.h"
#include "sim/cluster.h"

namespace paxml {

namespace {

/// The capture plane of one parallel lane: handlers send through it exactly
/// as through the real transport, but every envelope is recorded instead of
/// staged, to be replayed into the real plane in serial mail order after
/// the lanes join. Batching is off so an EnvelopeStream takes its buffered
/// path and Close() emits one whole envelope — PR 4's guarantee that the
/// chunks concatenate to the exact monolithic encoding is what makes the
/// replayed envelope byte-identical to the serially staged one. Unshared:
/// one capture per lane task, so no locking beyond the base class's.
class CaptureTransport : public Transport {
 public:
  explicit CaptureTransport(TransportOptions real)
      : Transport(Captured(std::move(real))) {}

  void Send(Envelope env) override { sent_.push_back(std::move(env)); }

  Status RunRound(RunId, const std::vector<SiteId>&, const DeliverFn&,
                  std::vector<double>*) override {
    return Status::Internal("the capture plane has no delivery rounds");
  }
  const char* name() const override { return "capture"; }

  /// The envelopes sent since the last take, in send order.
  std::vector<Envelope> TakeSent() {
    std::vector<Envelope> out = std::move(sent_);
    sent_.clear();
    return out;
  }

 private:
  static TransportOptions Captured(TransportOptions options) {
    // Chunk-size knobs are mirrored (handlers read them when streaming);
    // batching off routes EnvelopeStream through buffered Sends, and the
    // replay target owns framing, flushing and the remote plane.
    options.batching = false;
    options.remote_endpoints.clear();
    options.site_threads = 1;
    return options;
  }

  std::vector<Envelope> sent_;
};

/// The lane an envelope belongs to: fragment f when every part is a
/// site-side kind consistently addressed to f, else kNullFragment — a
/// *barrier* delivered serially in place. Up-messages, query/data ships and
/// mixed-fragment envelopes are conservatively barriers: their handlers
/// touch cross-fragment state (unifier, answer assembly) or carry no
/// fragment routing. The frame codec wires part.fragment for every kind,
/// so lanes survive the socket hop unchanged.
FragmentId EnvelopeLane(const Envelope& env) {
  FragmentId lane = kNullFragment;
  for (const WirePart& part : env.parts) {
    switch (part.kind) {
      case MessageKind::kQualRequest:
      case MessageKind::kSelRequest:
      case MessageKind::kAnswerRequest:
      case MessageKind::kDataRequest:
      case MessageKind::kQualDown:
      case MessageKind::kSelDown:
      case MessageKind::kReachRequest:
        break;
      default:
        return kNullFragment;
    }
    if (part.fragment == kNullFragment) return kNullFragment;
    if (lane == kNullFragment) {
      lane = part.fragment;
    } else if (lane != part.fragment) {
      return kNullFragment;
    }
  }
  return lane;
}

/// CPU time consumed by the calling thread. Lane tasks measure themselves
/// with this so that an oversubscribed host (fewer cores than lanes) still
/// reports each lane's own work, not the time it spent descheduled —
/// max-over-lanes then models the fan-out the way max-over-sites models
/// the multi-machine cluster (sim/cluster.h).
double ThreadCpuSeconds() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of `fn` on the calling thread, added to *seconds when it is
/// non-null. CPU (not wall) everywhere keeps the serial and parallel
/// measurements comparable: on a host where concurrent site deliveries
/// interleave on few cores, wall time would charge a site for time it
/// spent descheduled.
Status Timed(double* seconds, const std::function<Status()>& fn) {
  if (seconds == nullptr) return fn();
  const double start = ThreadCpuSeconds();
  Status status = fn();
  *seconds += ThreadCpuSeconds() - start;
  return status;
}

}  // namespace

SiteDriver::SiteDriver(const Cluster* cluster, Transport* transport, RunId run,
                       MessageHandlers* handlers,
                       std::shared_ptr<WorkerPool> pool, size_t site_threads,
                       std::shared_ptr<MemoSession> memo)
    : cluster_(cluster),
      transport_(transport),
      run_(run),
      handlers_(handlers),
      pool_(std::move(pool)),
      site_threads_(site_threads),
      memo_(std::move(memo)) {
  sites_.reserve(cluster->site_count());
  for (size_t s = 0; s < cluster->site_count(); ++s) {
    sites_.emplace_back(static_cast<SiteId>(s), cluster, transport, run,
                        handlers);
  }
}

Status SiteDriver::Deliver(SiteId site, std::vector<Envelope> mail) {
  PAXML_CHECK_LT(static_cast<size_t>(site), sites_.size());
  return sites_[static_cast<size_t>(site)].Deliver(std::move(mail));
}

Status SiteDriver::DeliverParallel(SiteId site, std::vector<Envelope> mail) {
  return DeliverParallelImpl(site, std::move(mail), nullptr);
}

Status SiteDriver::DeliverParallelImpl(SiteId site, std::vector<Envelope> mail,
                                       double* seconds) {
  PAXML_CHECK_LT(static_cast<size_t>(site), sites_.size());
  if (memo_ != nullptr) return DeliverMemoized(site, std::move(mail), seconds);
  if (!parallel_enabled() || mail.size() < 2) {
    return Timed(seconds, [&] {
      return sites_[static_cast<size_t>(site)].Deliver(std::move(mail));
    });
  }
  // Walk the mail in order: maximal runs of lane-keyed envelopes fan out
  // as parallel segments; barriers split them and run serially in place.
  size_t i = 0;
  while (i < mail.size()) {
    if (EnvelopeLane(mail[i]) == kNullFragment) {
      std::vector<Envelope> one;
      one.push_back(std::move(mail[i]));
      PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
        return sites_[static_cast<size_t>(site)].Deliver(std::move(one));
      }));
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < mail.size() && EnvelopeLane(mail[j]) != kNullFragment) ++j;
    std::vector<Envelope> segment(std::make_move_iterator(mail.begin() + i),
                                  std::make_move_iterator(mail.begin() + j));
    PAXML_RETURN_NOT_OK(DeliverSegmentParallel(site, &segment, seconds));
    i = j;
  }
  return Status::OK();
}

Status SiteDriver::DeliverSegmentParallel(SiteId site,
                                          std::vector<Envelope>* segment,
                                          double* seconds) {
  const size_t n = segment->size();
  // Group the segment's envelope indices by lane, lanes in order of first
  // appearance (deterministic, so the lane -> task assignment is too).
  std::map<FragmentId, size_t> lane_of;
  std::vector<std::vector<size_t>> lanes;
  for (size_t k = 0; k < n; ++k) {
    auto [it, inserted] = lane_of.emplace(EnvelopeLane((*segment)[k]),
                                          lanes.size());
    if (inserted) lanes.emplace_back();
    lanes[it->second].push_back(k);
  }

  if (lanes.size() < 2) {  // one fragment: nothing to overlap
    return Timed(seconds, [&] {
      return sites_[static_cast<size_t>(site)].Deliver(std::move(*segment));
    });
  }
  // Cap the fan-out at site_threads by merging lanes round-robin; sorting
  // each task's indices restores original order, so same-lane envelopes
  // still mutate their fragment's state in serial order.
  const size_t task_count = std::min(site_threads_, lanes.size());
  std::vector<std::vector<size_t>> assignment(task_count);
  for (size_t l = 0; l < lanes.size(); ++l) {
    auto& dst = assignment[l % task_count];
    dst.insert(dst.end(), lanes[l].begin(), lanes[l].end());
  }
  for (auto& indices : assignment) std::sort(indices.begin(), indices.end());

  // Each slot is written by exactly one task (indices partition [0, n)).
  std::vector<Status> statuses(n);
  std::vector<std::vector<Envelope>> sends(n);
  std::vector<double> task_seconds(task_count, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(task_count);
  for (size_t t = 0; t < task_count; ++t) {
    tasks.push_back([this, site, segment, &statuses, &sends, &task_seconds, t,
                     indices = std::move(assignment[t])] {
      const double cpu_start = ThreadCpuSeconds();
      CaptureTransport capture(transport_->options());
      SiteRuntime runtime(site, cluster_, &capture, run_, handlers_);
      for (size_t k : indices) {
        std::vector<Envelope> one;
        one.push_back(std::move((*segment)[k]));
        statuses[k] = runtime.Deliver(std::move(one));
        sends[k] = capture.TakeSent();
        if (!statuses[k].ok()) break;  // a failed lane stops, like serial
      }
      task_seconds[t] = ThreadCpuSeconds() - cpu_start;
    });
  }
  pool_->RunAll(std::move(tasks));
  AccountBatch(task_count);
  if (seconds != nullptr) {
    // The segment costs what its slowest lane costs — measured as that
    // task's own CPU time, so the metric holds on oversubscribed hosts.
    *seconds += *std::max_element(task_seconds.begin(), task_seconds.end());
  }

  // Replay into the real plane in serial mail order: staging order, seal
  // points and frame sequences come out bit-identical to the serial
  // delivery. On error, replay stops after the first failing envelope's
  // partial sends — exactly what the serial order would have sent.
  size_t stop = n;
  for (size_t k = 0; k < n; ++k) {
    if (!statuses[k].ok()) {
      stop = k;
      break;
    }
  }
  Status replayed = Timed(seconds, [&] {
    for (size_t k = 0; k < n && k <= stop; ++k) {
      for (Envelope& env : sends[k]) transport_->Send(std::move(env));
    }
    return Status::OK();
  });
  (void)replayed;
  return stop == n ? Status::OK() : statuses[stop];
}

void SiteDriver::AccountBatch(size_t tasks_submitted) {
  // The peaks are pool-global gauges (the pool may be shared with other
  // runs); tasks are exact for this driver. Sampling after each batch
  // keeps the gauges current without touching the pool's hot path.
  const uint64_t busy = pool_->busy_peak();
  const uint64_t queue = pool_->queue_peak();
  std::lock_guard<std::mutex> lock(pool_stats_mu_);
  pool_stats_.tasks += tasks_submitted;
  if (busy > pool_stats_.busy_peak) pool_stats_.busy_peak = busy;
  if (queue > pool_stats_.queue_peak) pool_stats_.queue_peak = queue;
}

PoolStats SiteDriver::TakePoolStats() {
  std::lock_guard<std::mutex> lock(pool_stats_mu_);
  PoolStats out = pool_stats_;
  pool_stats_ = PoolStats{};
  return out;
}

Status SiteDriver::DeliverMemoized(SiteId site, std::vector<Envelope> mail,
                                   double* seconds) {
  for (Envelope& env : mail) {
    const FragmentId lane = EnvelopeLane(env);
    if (lane == kNullFragment) {
      // Barriers (query ship, up-mail, mixed-fragment envelopes) always
      // evaluate: their handlers touch cross-fragment state the memo does
      // not model.
      std::vector<Envelope> one;
      one.push_back(std::move(env));
      PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
        return sites_[static_cast<size_t>(site)].Deliver(std::move(one));
      }));
      continue;
    }
    std::vector<Envelope> replies;
    std::vector<Envelope> recover;
    if (memo_->Lookup(lane, env, &replies, &recover)) {
      // Hit: the recorded replies go through the real plane exactly where
      // the handler's sends would have — staging order, seal points and all
      // accounted counters come out bit-identical to an evaluated delivery.
      PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
        for (Envelope& r : replies) {
          r.run = run_;
          transport_->Send(std::move(r));
        }
        return Status::OK();
      }));
      continue;
    }
    if (!recover.empty()) {
      // First divergence of this fragment after memo-served steps: its
      // handler state was never built this run. Re-deliver the served
      // request prefix through a discard plane to rebuild it — the replies
      // were already replayed at the hits, so these sends must not reach
      // the wire a second time.
      CaptureTransport discard(transport_->options());
      SiteRuntime rebuild(site, cluster_, &discard, run_, handlers_);
      for (Envelope& r : recover) {
        r.run = run_;
        std::vector<Envelope> one;
        one.push_back(std::move(r));
        PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
          return rebuild.Deliver(std::move(one));
        }));
        (void)discard.TakeSent();
      }
    }
    // Evaluate through a capture plane so the reply set can be recorded,
    // measuring the handler's own CPU as the entry's cost.
    CaptureTransport capture(transport_->options());
    SiteRuntime runtime(site, cluster_, &capture, run_, handlers_);
    const Envelope request = env;  // the memo keeps the request's identity
    const double cpu_start = ThreadCpuSeconds();
    std::vector<Envelope> one;
    one.push_back(std::move(env));
    const Status status = runtime.Deliver(std::move(one));
    const double eval_seconds = ThreadCpuSeconds() - cpu_start;
    if (seconds != nullptr) *seconds += eval_seconds;
    std::vector<Envelope> sends = capture.TakeSent();
    // Replay even on error: the serial order would have sent the failing
    // envelope's partial output too.
    PAXML_RETURN_NOT_OK(Timed(seconds, [&] {
      for (const Envelope& s : sends) transport_->Send(Envelope(s));
      return Status::OK();
    }));
    PAXML_RETURN_NOT_OK(status);
    memo_->Record(lane, request, std::move(sends), eval_seconds);
  }
  return Status::OK();
}

Status SiteDriver::DeliverTimed(SiteId site, std::vector<Envelope> mail,
                                double* seconds) {
  *seconds = 0;
  return DeliverParallelImpl(site, std::move(mail), seconds);
}

}  // namespace paxml
