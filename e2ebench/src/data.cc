#include "data.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"
#include "eval/centralized.h"
#include "fragment/fragmenter.h"
#include "fragment/storage.h"
#include "graph/digraph.h"
#include "graph/store.h"
#include "metrics.h"
#include "xmark/generator.h"
#include "xmark/queries.h"

namespace e2ebench {

namespace {

using paxml::FragmentId;
using paxml::GlobalNodeId;
using paxml::NodeId;

constexpr uint64_t kXmlDataSeed = 42;
constexpr uint64_t kGraphDataSeed = 2007;
constexpr double kFt2Scale = 0.25;
constexpr int32_t kGraphVertices = 40000;
constexpr int32_t kGraphWindow = 16;

/// Queries per client stream; a client that runs out starts over.
constexpr size_t kXmlStreamLength = 8000;
constexpr size_t kGraphStreamLength = 4096;

NodeId ChildLabeled(const paxml::Tree& t, NodeId parent,
                    std::string_view label) {
  for (NodeId c : t.children(parent)) {
    if (t.IsElement(c) && t.LabelName(c) == label) return c;
  }
  PAXML_CHECK(false);
  return paxml::kNullNode;
}

/// FT2 (the paper's Experiments 2-3): four XMark sites cut into ten
/// fragments of relative sizes {5,5,5,5, 12,12,12,12, 28, 8}, one unit
/// being 48 KiB * kFt2Scale.
paxml::Tree MakeFt2Tree(std::vector<NodeId>* cuts) {
  const double u = 48.0 * 1024.0 * kFt2Scale;
  auto units = [&](double n) { return static_cast<size_t>(n * u); };

  paxml::SiteBudget site_b;
  site_b.regions_namerica = units(4);
  site_b.regions_other = units(8);
  site_b.categories = units(0.5);
  site_b.people = units(3);
  site_b.open_auctions = units(12);
  site_b.closed_auctions = units(1.5);

  paxml::SiteBudget site_c;
  site_c.regions_namerica = units(28);
  site_c.regions_other = units(2);
  site_c.categories = units(8);
  site_c.people = units(3);
  site_c.open_auctions = units(12);
  site_c.closed_auctions = units(12);

  paxml::XMarkOptions options;
  options.seed = kXmlDataSeed;
  options.symbols = std::make_shared<paxml::SymbolTable>();
  paxml::Tree tree = paxml::GenerateSitesTree(
      {paxml::SiteBudget::Uniform(units(5)), site_b, site_c,
       paxml::SiteBudget::Uniform(units(5))},
      options);

  std::vector<NodeId> sites;
  for (NodeId s : tree.children(tree.root())) sites.push_back(s);
  PAXML_CHECK_EQ(sites.size(), 4u);
  *cuts = {
      sites[1],
      ChildLabeled(tree, sites[1], "regions"),
      ChildLabeled(tree, sites[1], "open_auctions"),
      sites[2],
      ChildLabeled(tree, ChildLabeled(tree, sites[2], "regions"), "namerica"),
      ChildLabeled(tree, sites[2], "categories"),
      ChildLabeled(tree, sites[2], "open_auctions"),
      ChildLabeled(tree, sites[2], "closed_auctions"),
      sites[3],
  };
  return tree;
}

paxml::Result<QuerySet> PrepareXml(uint64_t seed, size_t clients,
                                   const std::string& dir) {
  std::vector<NodeId> cuts;
  const paxml::Tree tree = MakeFt2Tree(&cuts);
  PAXML_ASSIGN_OR_RETURN(paxml::FragmentedDocument doc,
                         paxml::FragmentByCuts(tree, cuts));
  PAXML_CHECK_EQ(doc.size(), std::size(kFt2Placement));
  PAXML_RETURN_NOT_OK(paxml::SaveDocument(doc, dir));

  // Source node -> (fragment, local node), skipping virtual placeholders
  // (they alias the root of the fragment they stand for).
  std::unordered_map<NodeId, GlobalNodeId> where;
  for (const paxml::Fragment& f : doc.fragments()) {
    for (size_t n = 0; n < f.source_ids.size(); ++n) {
      const NodeId local = static_cast<NodeId>(n);
      if (!f.tree.IsVirtual(local)) where[f.source_ids[n]] = {f.id, local};
    }
  }

  QuerySet set;
  for (const auto& q : paxml::xmark::ExperimentQueries()) {
    set.texts.push_back(q.text);
    set.kinds.push_back(q.has_qualifiers ? "heavy" : "light");
    PAXML_ASSIGN_OR_RETURN(paxml::CentralizedResult oracle,
                           paxml::EvaluateCentralized(tree, q.text));
    std::vector<GlobalNodeId> answers;
    for (NodeId n : oracle.answers) answers.push_back(where.at(n));
    std::sort(answers.begin(), answers.end());
    set.expected.push_back(std::move(answers));
  }
  PAXML_CHECK_EQ(set.texts.size(), kXmlMixWeights.size());
  for (size_t c = 0; c < clients; ++c) {
    std::vector<uint32_t> stream;
    for (int k : MakeMix(kXmlMixWeights, seed, c, kXmlStreamLength)) {
      stream.push_back(static_cast<uint32_t>(k));
    }
    set.streams.push_back(std::move(stream));
  }
  return set;
}

/// The bench_reachability shape: ~2 forward out-edges per vertex within a
/// fixed id window, plus occasional back edges (cycles).
paxml::Digraph BandedDigraph() {
  paxml::Rng rng(kGraphDataSeed);
  paxml::Digraph g;
  g.vertex_count = kGraphVertices;
  g.out.resize(kGraphVertices);
  for (int32_t v = 0; v < kGraphVertices; ++v) {
    for (int e = 0; e < 2; ++e) {
      const int32_t head =
          v + 1 + static_cast<int32_t>(rng.NextBounded(kGraphWindow));
      if (head < kGraphVertices) g.out[v].push_back(head);
    }
    if (v > 0 && rng.NextBool(0.1)) {
      g.out[v].push_back(
          v - 1 -
          static_cast<int32_t>(rng.NextBounded(std::min(v, kGraphWindow))));
    }
  }
  for (auto& heads : g.out) {
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }
  return g;
}

paxml::Result<QuerySet> PrepareGraph(uint64_t seed, size_t clients,
                                     const std::string& dir) {
  const paxml::Digraph graph = BandedDigraph();
  const int32_t n = graph.vertex_count;
  const int32_t span = (n + static_cast<int32_t>(kGraphFragments) - 1) /
                       static_cast<int32_t>(kGraphFragments);
  std::vector<FragmentId> owner(static_cast<size_t>(n));
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int32_t v = 0; v < n; ++v) {
    owner[static_cast<size_t>(v)] = static_cast<FragmentId>(v / span);
    for (NodeId head : graph.out[static_cast<size_t>(v)]) {
      edges.push_back({v, head});
    }
  }
  PAXML_ASSIGN_OR_RETURN(
      std::shared_ptr<const paxml::GraphFragmentStore> store,
      paxml::BuildGraphStore(n, owner, std::move(edges)));
  PAXML_CHECK_EQ(store->fragment_count(), kGraphFragments);
  PAXML_RETURN_NOT_OK(paxml::SaveGraph(*store, dir));

  QuerySet set;
  auto add = [&](NodeId s, NodeId t) {
    set.texts.push_back("reach " + std::to_string(s) + " " + std::to_string(t));
    set.kinds.push_back("reach");
    std::vector<GlobalNodeId> answers;
    if (paxml::ReachesBFS(graph, s, t)) {
      answers.push_back({owner[static_cast<size_t>(t)], t});
    }
    set.expected.push_back(std::move(answers));
    return static_cast<uint32_t>(set.texts.size() - 1);
  };
  add(0, n - 1);  // the set-up probe
  for (size_t c = 0; c < clients; ++c) {
    paxml::Rng rng(seed ^ (0xd1b54a32d192ed03ULL * (c + 1)));
    std::vector<uint32_t> stream;
    for (size_t i = 0; i < kGraphStreamLength; ++i) {
      const NodeId s = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId t = static_cast<NodeId>(rng.NextBounded(n));
      stream.push_back(add(s, t));
    }
    set.streams.push_back(std::move(stream));
  }
  return set;
}

// ---- The query file a preparing child hands to its parent -------------------
//
//   <text count>
//   <kind> <answer count> (<fragment> <node>)* <text to end of line>
//   <client count>
//   <length> <index>*

void WriteQuerySet(const QuerySet& set, std::ostream& out) {
  out << set.texts.size() << '\n';
  for (size_t i = 0; i < set.texts.size(); ++i) {
    out << set.kinds[i] << ' ' << set.expected[i].size();
    for (const GlobalNodeId& g : set.expected[i]) {
      out << ' ' << g.fragment << ' ' << g.node;
    }
    out << ' ' << set.texts[i] << '\n';
  }
  out << set.streams.size() << '\n';
  for (const auto& stream : set.streams) {
    out << stream.size();
    for (uint32_t i : stream) out << ' ' << i;
    out << '\n';
  }
}

paxml::Result<QuerySet> ReadQuerySet(std::istream& in) {
  const auto bad = paxml::Status::ParseError("malformed query file");
  QuerySet set;
  size_t count = 0;
  if (!(in >> count)) return bad;
  for (size_t i = 0; i < count; ++i) {
    std::string kind;
    size_t answers = 0;
    if (!(in >> kind >> answers)) return bad;
    std::vector<GlobalNodeId> expected(answers);
    for (GlobalNodeId& g : expected) {
      if (!(in >> g.fragment >> g.node)) return bad;
    }
    std::string text;
    in.get();  // the separating space
    if (!std::getline(in, text)) return bad;
    set.kinds.push_back(std::move(kind));
    set.expected.push_back(std::move(expected));
    set.texts.push_back(std::move(text));
  }
  size_t clients = 0;
  if (!(in >> clients)) return bad;
  for (size_t c = 0; c < clients; ++c) {
    size_t length = 0;
    if (!(in >> length) || length == 0) return bad;
    std::vector<uint32_t> stream(length);
    for (uint32_t& i : stream) {
      if (!(in >> i) || i >= count) return bad;
    }
    set.streams.push_back(std::move(stream));
  }
  return set;
}

}  // namespace

paxml::Result<QuerySet> PrepareData(Family family, uint64_t seed,
                                    size_t clients, const std::string& dir) {
  const std::string query_file = dir + "/queries.e2ebench";
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return paxml::Status::Internal("fork failed");
  if (pid == 0) {
    auto set = family == Family::kXml ? PrepareXml(seed, clients, dir)
                                      : PrepareGraph(seed, clients, dir);
    if (!set.ok()) {
      std::fprintf(stderr, "e2ebench: data preparation failed: %s\n",
                   set.status().ToString().c_str());
      ::_exit(1);
    }
    std::ofstream out(query_file);
    WriteQuerySet(*set, out);
    out.close();
    ::_exit(out ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return paxml::Status::Internal("data preparation failed");
  }
  std::ifstream in(query_file);
  if (!in) return paxml::Status::Internal("cannot read " + query_file);
  return ReadQuerySet(in);
}

}  // namespace e2ebench
