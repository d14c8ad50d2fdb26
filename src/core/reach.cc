#include "core/reach.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "boolexpr/codec.h"
#include "common/string_util.h"
#include "core/messages.h"
#include "runtime/coordinator.h"

namespace paxml {
namespace {

/// One partially evaluated entry vertex, as decoded at the coordinator.
struct ReachRow {
  NodeId vertex = kNullNode;  ///< global id; the row's boolean variable
  bool direct = false;        ///< target reached without leaving the fragment
  std::vector<NodeId> deps;   ///< sorted global heads of crossed cut edges
};

/// Reachability as runtime handlers. Site side (kReachRequest) is
/// stateless — it reads the const store and query only, so per-fragment
/// lanes (site_threads > 1) need no per-fragment state slots at all.
/// Coordinator side (kReachUp) accumulates rows single-threaded on the
/// driver thread.
class ReachProgram : public MessageHandlers {
 public:
  ReachProgram(const GraphFragmentStore* store, const ReachQuery& query)
      : store_(store),
        query_(query),
        reported_(store->fragment_count(), false) {}

  Status OnPart(SiteContext& ctx, const Envelope& env,
                const WirePart& part) override {
    switch (part.kind) {
      case MessageKind::kQueryShip:
        return Status::OK();  // cost-model event; the query is constructed in
      case MessageKind::kReachRequest:
        return OnReachRequest(ctx, part.fragment);
      case MessageKind::kReachUp:
        return OnReachUp(env.from, part);
      default:
        return Status::InvalidArgument(
            StringFormat("%s message delivered to a graph-workload run",
                         MessageKindName(part.kind)));
    }
  }

  bool AllReported() const {
    return std::all_of(reported_.begin(), reported_.end(),
                       [](bool b) { return b; });
  }

  /// Least fixpoint of the collected boolean system; runs at the
  /// coordinator after the delivery round.
  Result<bool> Solve() const;

 private:
  Status OnReachRequest(SiteContext& ctx, FragmentId f);
  Status OnReachUp(SiteId from, const WirePart& part);

  const GraphFragmentStore* store_;
  const ReachQuery query_;

  // Coordinator-side accumulation (driver thread only).
  std::vector<bool> reported_;  ///< fragment -> row payload arrived
  std::vector<ReachRow> rows_;
};

Status ReachProgram::OnReachRequest(SiteContext& ctx, FragmentId f) {
  const GraphFragment& frag = store_->fragment(f);

  // Entry vertices: the in-boundary, plus the source when it lives here
  // (nothing enters the source "from outside" but the query does).
  std::vector<int32_t> entries = frag.in_boundary;
  if (query_.source >= 0 && query_.source < store_->vertex_count() &&
      store_->fragment_of(query_.source) == f) {
    entries.push_back(frag.LocalIndex(query_.source));
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  }

  const int32_t local_target =
      (query_.target >= 0 && query_.target < store_->vertex_count() &&
       store_->fragment_of(query_.target) == f)
          ? frag.LocalIndex(query_.target)
          : -1;

  // One local traversal per entry; rows encode in entry order (ascending
  // global id), deps sorted — canonical bytes, so remote peers reproduce
  // the in-process wire exactly. Ids are delta+varint coded (vertices
  // across rows, deps within a row); `logical` tracks what the absolute
  // coding would cost, which is what the paper-model counters keep
  // pricing (the frame ships the delta bytes).
  ByteWriter writer;
  writer.PutVarint(entries.size());
  uint64_t logical = VarintSize(entries.size());
  DeltaIdEncoder vertex_delta;
  std::vector<int32_t> visited_scratch;
  std::vector<bool> visited(frag.vertices.size(), false);
  for (int32_t entry : entries) {
    visited_scratch.clear();
    std::deque<int32_t> queue;
    visited[static_cast<size_t>(entry)] = true;
    visited_scratch.push_back(entry);
    queue.push_back(entry);
    while (!queue.empty()) {
      const int32_t u = queue.front();
      queue.pop_front();
      for (int32_t v : frag.local_out[static_cast<size_t>(u)]) {
        if (visited[static_cast<size_t>(v)]) continue;
        visited[static_cast<size_t>(v)] = true;
        visited_scratch.push_back(v);
        queue.push_back(v);
      }
    }
    const bool direct =
        local_target >= 0 && visited[static_cast<size_t>(local_target)];
    std::vector<NodeId> deps;
    for (int32_t u : visited_scratch) {
      const auto& heads = frag.cut_out[static_cast<size_t>(u)];
      deps.insert(deps.end(), heads.begin(), heads.end());
    }
    std::sort(deps.begin(), deps.end());
    deps.erase(std::unique(deps.begin(), deps.end()), deps.end());

    const uint64_t vertex =
        static_cast<uint64_t>(frag.vertices[static_cast<size_t>(entry)]);
    vertex_delta.Append(vertex, &writer);
    logical += VarintSize(vertex);
    writer.PutU8(direct ? 1 : 0);
    writer.PutVarint(deps.size());
    logical += 1 + VarintSize(deps.size());
    DeltaIdEncoder dep_delta;  // deps restart per row (each list is sorted)
    for (NodeId d : deps) {
      dep_delta.Append(static_cast<uint64_t>(d), &writer);
      logical += VarintSize(static_cast<uint64_t>(d));
    }

    for (int32_t u : visited_scratch) visited[static_cast<size_t>(u)] = false;
  }

  Envelope env;
  env.to = ctx.query_site();
  env.parts.push_back(
      {MessageKind::kReachUp, f, std::move(writer).Take(), true, logical});
  ctx.Send(std::move(env));
  return Status::OK();
}

Status ReachProgram::OnReachUp(SiteId, const WirePart& part) {
  const FragmentId f = part.fragment;
  if (f < 0 || static_cast<size_t>(f) >= store_->fragment_count()) {
    return Status::ParseError("reach-up: fragment out of range");
  }
  if (reported_[static_cast<size_t>(f)]) {
    return Status::ParseError("reach-up: duplicate fragment report");
  }
  reported_[static_cast<size_t>(f)] = true;

  ByteReader reader(part.bytes);
  PAXML_ASSIGN_OR_RETURN(uint64_t row_count, reader.GetVarint());
  // Wire counts are bounded by what the remaining bytes could hold (>= 3
  // bytes per row) before any reserve, as frame.cc does.
  if (row_count > reader.remaining() / 3) {
    return Status::ParseError("reach-up: row count past buffer end");
  }
  DeltaIdDecoder vertex_delta;
  for (uint64_t i = 0; i < row_count; ++i) {
    ReachRow row;
    PAXML_ASSIGN_OR_RETURN(uint64_t vertex, vertex_delta.Next(&reader));
    if (vertex >= static_cast<uint64_t>(store_->vertex_count())) {
      return Status::ParseError("reach-up: vertex out of range");
    }
    row.vertex = static_cast<NodeId>(vertex);
    if (store_->fragment_of(row.vertex) != f) {
      return Status::ParseError("reach-up: row vertex owned elsewhere");
    }
    PAXML_ASSIGN_OR_RETURN(uint8_t direct, reader.GetU8());
    if (direct > 1) return Status::ParseError("reach-up: bad direct flag");
    row.direct = direct != 0;
    PAXML_ASSIGN_OR_RETURN(uint64_t dep_count, reader.GetVarint());
    if (dep_count > reader.remaining()) {
      return Status::ParseError("reach-up: dep count past buffer end");
    }
    row.deps.reserve(dep_count);
    DeltaIdDecoder dep_delta;
    for (uint64_t d = 0; d < dep_count; ++d) {
      PAXML_ASSIGN_OR_RETURN(uint64_t dep, dep_delta.Next(&reader));
      if (dep >= static_cast<uint64_t>(store_->vertex_count())) {
        return Status::ParseError("reach-up: dep out of range");
      }
      row.deps.push_back(static_cast<NodeId>(dep));
    }
    rows_.push_back(std::move(row));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("reach-up: trailing bytes");
  }
  return Status::OK();
}

Result<bool> ReachProgram::Solve() const {
  if (query_.source == query_.target) return true;

  std::unordered_map<NodeId, size_t> var_of;
  var_of.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!var_of.emplace(rows_[i].vertex, i).second) {
      return Status::Internal("reach: duplicate entry variable");
    }
  }
  // Reverse dependencies: solving the least fixpoint means propagating
  // true from the direct rows backwards along X_v = ... ∨ X_w edges.
  std::vector<std::vector<size_t>> rev(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (NodeId dep : rows_[i].deps) {
      auto it = var_of.find(dep);
      if (it == var_of.end()) {
        // Every dep is the head of a cut edge, hence in-boundary of its
        // owner, hence a row of that fragment's report.
        return Status::Internal("reach: dependency on an unreported entry");
      }
      rev[it->second].push_back(i);
    }
  }
  std::vector<bool> value(rows_.size(), false);
  std::deque<size_t> worklist;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].direct) {
      value[i] = true;
      worklist.push_back(i);
    }
  }
  while (!worklist.empty()) {
    const size_t i = worklist.front();
    worklist.pop_front();
    for (size_t j : rev[i]) {
      if (value[j]) continue;
      value[j] = true;
      worklist.push_back(j);
    }
  }
  auto source_var = var_of.find(query_.source);
  if (source_var == var_of.end()) {
    return Status::Internal("reach: source row missing");
  }
  return static_cast<bool>(value[source_var->second]);
}

}  // namespace

std::string FormatReachQuery(const ReachQuery& query) {
  return StringFormat("reach %d %d", query.source, query.target);
}

Result<ReachQuery> ParseReachQuery(const std::string& text) {
  ReachQuery query;
  char trailing;
  if (std::sscanf(text.c_str(), "reach %d %d %c", &query.source, &query.target,
                  &trailing) != 2) {
    return Status::ParseError("reach query: expected \"reach <source> <target>\", got \"" +
                              text + "\"");
  }
  return query;
}

Result<const GraphFragmentStore*> GraphOf(const Cluster& cluster) {
  if (cluster.data().family() != kGraphWorkloadFamily) {
    return Status::InvalidArgument(
        "reach: cluster holds \"" + std::string(cluster.data().family()) +
        "\" data, not a graph");
  }
  return static_cast<const GraphFragmentStore*>(&cluster.data());
}

RunSpec MakeReachRunSpec(const ReachQuery& query) {
  RunSpec spec;
  spec.algorithm = "Reach";
  spec.query = FormatReachQuery(query);
  spec.family = std::string(kGraphWorkloadFamily);
  return spec;
}

std::unique_ptr<MessageHandlers> MakeReachSiteHandlers(
    const GraphFragmentStore* store, const ReachQuery& query) {
  return std::make_unique<ReachProgram>(store, query);
}

namespace {

/// Owns the handlers a peer serves for one graph run (the store is the
/// cluster's, borrowed).
class ReachSiteProgram : public SiteProgram {
 public:
  explicit ReachSiteProgram(std::unique_ptr<MessageHandlers> handlers)
      : handlers_(std::move(handlers)) {}
  MessageHandlers* handlers() override { return handlers_.get(); }

 private:
  std::unique_ptr<MessageHandlers> handlers_;
};

Status ValidateQuery(const GraphFragmentStore& store, const ReachQuery& query) {
  if (query.source < 0 || query.source >= store.vertex_count() ||
      query.target < 0 || query.target >= store.vertex_count()) {
    return Status::InvalidArgument(
        StringFormat("reach query: vertex out of range (graph has %d vertices)",
                     store.vertex_count()));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SiteProgram>> MakeReachSiteProgram(
    const Cluster& cluster, const RunSpec& spec) {
  PAXML_ASSIGN_OR_RETURN(const GraphFragmentStore* store, GraphOf(cluster));
  if (spec.algorithm != "Reach") {
    return Status::InvalidArgument("run spec: unknown algorithm \"" +
                                   spec.algorithm + "\"");
  }
  PAXML_ASSIGN_OR_RETURN(ReachQuery query, ParseReachQuery(spec.query));
  PAXML_RETURN_NOT_OK(ValidateQuery(*store, query));
  return std::unique_ptr<SiteProgram>(
      std::make_unique<ReachSiteProgram>(MakeReachSiteHandlers(store, query)));
}

Result<DistributedResult> EvaluateReachability(const Cluster& cluster,
                                               const ReachQuery& query,
                                               Transport* transport,
                                               RunControl* control) {
  PAXML_ASSIGN_OR_RETURN(const GraphFragmentStore* store, GraphOf(cluster));
  PAXML_RETURN_NOT_OK(ValidateQuery(*store, query));
  std::unique_ptr<Transport> owned_transport;
  transport = EnsureTransport(transport, cluster, &owned_transport);
  ReachProgram program(store, query);
  const RunSpec spec = MakeReachRunSpec(query);
  Coordinator coord(&cluster, transport, &program, control, &spec);

  std::vector<SiteId> sites = coord.AllSites();
  for (SiteId s : sites) {
    coord.Post(MakeQueryShipEnvelope(s, FormatReachQuery(query).size()));
  }
  for (size_t f = 0; f < store->fragment_count(); ++f) {
    const FragmentId fragment = static_cast<FragmentId>(f);
    coord.Post(MakeRequestEnvelope(MessageKind::kReachRequest,
                                   cluster.site_of(fragment), fragment));
  }

  // One visit per site: every fragment partially evaluates and reports its
  // boolean rows. Rounds stay 1 however many fragments there are.
  PAXML_RETURN_NOT_OK(coord.RunRound("reach-partial-eval", sites));
  if (!program.AllReported()) {
    return Status::Internal("reach: not every fragment reported");
  }

  Result<bool> reachable = false;
  coord.RunLocal([&] { reachable = program.Solve(); });
  PAXML_RETURN_NOT_OK(reachable.status());

  DistributedResult result;
  if (*reachable) {
    result.answers.push_back(
        GlobalNodeId{store->fragment_of(query.target), query.target});
  }
  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
