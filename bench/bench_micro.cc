// Micro-benchmarks (google-benchmark) for the building blocks: XML parsing
// and serialization, query compilation, the two evaluation passes, formula
// algebra, the wire codec, and one PaX2 query over FT2. Useful for
// regression-tracking the constant factors behind the figure benchmarks.

#include <benchmark/benchmark.h>

#include "boolexpr/codec.h"
#include "boolexpr/formula.h"
#include "core/pax2.h"
#include "eval/centralized.h"
#include "eval/qualifier_pass.h"
#include "eval/selection_pass.h"
#include "harness.h"
#include "runtime/transport.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/query_plan.h"

namespace paxml {
namespace {

Tree SampleTree(size_t bytes) {
  XMarkOptions options;
  options.seed = 99;
  options.symbols = std::make_shared<SymbolTable>();
  return GenerateUniformSitesTree(bytes, 2, options);
}

void BM_XmlSerialize(benchmark::State& state) {
  Tree t = SampleTree(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeXml(t));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(SerializedSize(t)));
}
BENCHMARK(BM_XmlSerialize)->Arg(64 << 10)->Arg(512 << 10);

void BM_XmlParse(benchmark::State& state) {
  Tree t = SampleTree(static_cast<size_t>(state.range(0)));
  std::string xml = SerializeXml(t);
  for (auto _ : state) {
    auto r = ParseXml(xml);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse)->Arg(64 << 10)->Arg(512 << 10);

void BM_CompileQuery(benchmark::State& state) {
  auto symbols = std::make_shared<SymbolTable>();
  for (auto _ : state) {
    auto r = CompileXPath(xmark::kQ3, symbols);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_CompileQuery);

void BM_CentralizedEval(benchmark::State& state) {
  Tree t = SampleTree(static_cast<size_t>(state.range(0)));
  auto q = CompileXPath(xmark::kQ3, t.symbols());
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCentralized(t, *q).answers.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_CentralizedEval)->Arg(64 << 10)->Arg(512 << 10);

void BM_QualifierPassBool(benchmark::State& state) {
  Tree t = SampleTree(256 << 10);
  auto q = CompileXPath(xmark::kQ3, t.symbols());
  BoolDomain domain;
  for (auto _ : state) {
    auto vectors = RunQualifierPass(t, *q, &domain);
    benchmark::DoNotOptimize(vectors.qv.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_QualifierPassBool);

void BM_QualifierPassFormula(benchmark::State& state) {
  Tree t = SampleTree(256 << 10);
  auto q = CompileXPath(xmark::kQ3, t.symbols());
  for (auto _ : state) {
    FormulaArena arena;
    FormulaDomain domain(&arena);
    auto vectors = RunQualifierPass(t, *q, &domain);
    benchmark::DoNotOptimize(vectors.qv.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_QualifierPassFormula);

// One PaX2 query end to end over FT2 on the paper's four sites, at the
// end-to-end benchmark's data scale: both visits' site compute, the
// coordinator's unification and SyncTransport's deterministic delivery.
// Arg 2 runs Q2 (qualifier-free, '//'), arg 3 runs Q3 (qualifiers).
void BM_Pax2Ft2(benchmark::State& state) {
  static const bench::Workload* const w =
      new bench::Workload(bench::MakeFT2Paper(0.25));
  auto q = CompileXPath(state.range(0) == 2 ? xmark::kQ2 : xmark::kQ3,
                        w->doc->symbols());
  SyncTransport transport;
  for (auto _ : state) {
    auto r = EvaluatePaX2(*w->cluster, *q, PaxOptions{}, &transport);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_Pax2Ft2)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_FormulaOps(benchmark::State& state) {
  for (auto _ : state) {
    FormulaArena arena;
    Formula acc = arena.True();
    for (VarId v = 0; v < 64; ++v) {
      acc = arena.And(acc, arena.Or(arena.Var(v), arena.Not(arena.Var(v ^ 1))));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FormulaOps);

void BM_FormulaCodec(benchmark::State& state) {
  FormulaArena arena;
  std::vector<Formula> vec;
  Formula acc = arena.False();
  for (VarId v = 0; v < 32; ++v) {
    acc = arena.Or(acc, arena.And(arena.Var(v), arena.Var(v + 32)));
    vec.push_back(acc);
  }
  for (auto _ : state) {
    ByteWriter w;
    EncodeFormulaVector(arena, vec, &w);
    FormulaArena dst;
    ByteReader r(w.bytes());
    auto decoded = DecodeFormulaVector(&dst, &r);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_FormulaCodec);

void BM_GenerateXMark(benchmark::State& state) {
  for (auto _ : state) {
    Tree t = SampleTree(static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(BM_GenerateXMark)->Arg(256 << 10);

}  // namespace
}  // namespace paxml

BENCHMARK_MAIN();
