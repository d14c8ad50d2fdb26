// The benchmark's data and query streams, with their oracle answers.
//
// Data is fixed (it does not depend on the run's seed): the paper's FT2
// XMark document at 0.25 relative units (~1.3 MB, ten fragments) and a
// 40k-vertex locality-banded digraph cut into 8 contiguous fragments.
// The seed drives only the query streams: per client, a 35:35:15:15
// Q1:Q2:Q3:Q4 mix for XML, uniformly random `reach s t` pairs for the
// graph.
//
// The FT2 and banded-digraph shapes are those of bench/harness.cc and
// bench/bench_reachability.cc, written out here rather than linked so that
// an edit to the repository's own benches never changes this benchmark's
// inputs between the two commits it compares.

#ifndef E2EBENCH_DATA_H_
#define E2EBENCH_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "fragment/fragment.h"
#include "sim/stats.h"

namespace e2ebench {

enum class Family { kXml, kGraph };

/// FT2's fragment -> site placement on the paper's four machines
/// (A = {F0}, B = {F1,F2,F3}, C = {F4..F8}, D = {F9}).
inline constexpr paxml::SiteId kFt2Placement[10] = {0, 1, 1, 1, 2,
                                                    2, 2, 2, 2, 3};
inline constexpr size_t kGraphFragments = 8;
inline constexpr size_t kSites = 4;

/// Q1:Q2:Q3:Q4 weights of the XML mix: the light class (Q1, Q2) holds the
/// median and the heavy class (Q3, Q4) the 99th percentile.
inline const std::vector<int> kXmlMixWeights = {35, 35, 15, 15};

struct QuerySet {
  /// Distinct queries. texts[0] is the set-up's first query and does not
  /// depend on the seed (Q1; for the graph a fixed pair outside the
  /// streams), so set-up time does not either.
  std::vector<std::string> texts;
  std::vector<std::string> kinds;  ///< per text: "light", "heavy" or "reach"
  /// Oracle answers per text, sorted as DistributedResult::answers.
  std::vector<std::vector<paxml::GlobalNodeId>> expected;
  /// Per client: indices into `texts`, the order it submits them.
  std::vector<std::vector<uint32_t>> streams;
};

/// Writes the family's data under `dir` (which must exist) and returns the
/// query streams for `clients` clients with their oracle answers: the
/// centralized evaluator over the unfragmented tree for XPath, BFS over
/// the whole graph for reachability. Generation runs in a child process so
/// the generator's memory never counts toward the client's peak RSS.
paxml::Result<QuerySet> PrepareData(Family family, uint64_t seed,
                                    size_t clients, const std::string& dir);

}  // namespace e2ebench

#endif  // E2EBENCH_DATA_H_
