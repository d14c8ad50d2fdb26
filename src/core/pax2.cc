#include "core/pax2.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "core/answer_stream.h"
#include "core/eval_ft.h"
#include "core/parbox.h"
#include "core/site_eval.h"
#include "core/site_program.h"
#include "core/xml_handlers.h"
#include "fragment/pruning.h"
#include "runtime/coordinator.h"

namespace paxml {
namespace {

/// Result of the combined (single-traversal) pass over one fragment.
struct Pax2FragmentState {
  std::unique_ptr<FormulaArena> arena;
  QualVectors<FormulaDomain> qual_vectors;  // residuals over x variables

  /// Nodes whose final selection entry did not collapse to false, with their
  /// residuals over x (qualifiers) and z (ancestors) variables; qz locals
  /// are already substituted out.
  std::vector<std::pair<NodeId, Formula>> finals;

  std::vector<SelUpMessage::VirtualTop> virtual_tops;

  /// Settled during the pass / kept for the final visit.
  std::vector<NodeId> answers;
  std::vector<std::pair<NodeId, Formula>> candidates;

  /// Resolved values received for the final visit (delivered before the
  /// answer request in the same envelope).
  std::optional<SelDownMessage> sel_down;
  std::optional<QualDownMessage> qual_down;

  uint64_t ops = 0;
};

/// The combined pre/post-order traversal (Procedure evalXPath of Fig. 5).
Pax2FragmentState RunCombinedPass(const Fragment& frag,
                                  const CompiledQuery& query,
                                  const std::vector<uint8_t>* concrete_init) {
  Pax2FragmentState st;
  st.arena = std::make_unique<FormulaArena>();
  FormulaArena* arena = st.arena.get();
  FormulaDomain domain(arena);
  const Tree& tree = frag.tree;
  const auto& sel = query.selection();
  const size_t m = sel.size();
  const size_t last = m - 1;

  const size_t ec = query.entries().size();
  st.qual_vectors.entry_count = ec;
  st.qual_vectors.qv.assign(tree.size() * ec, kFalseFormula);
  st.qual_vectors.qdv.assign(tree.size() * ec, kFalseFormula);

  VirtualQualHook<Formula> virtual_hook = [&](NodeId v, int entry) {
    const FragmentId child = tree.fragment_ref(v);
    return std::make_pair(arena->Var(MakeQVVar(child, entry)),
                          arena->Var(MakeQDVVar(child, entry)));
  };

  // Local qz variables: fresh per (node, qualifier) use; resolved at the
  // node's post-order step once its subtree's qualifier rows exist.
  uint32_t local_counter = 0;
  Binding qz_bindings;
  // Pending qz resolutions, (qual_id, var), used as a stack: a node pushes
  // its entries in its pre-order step (the root also at stack init) and
  // pops them in its post-order step. The DFS nests, so a node's entries
  // are the top of the stack when it resolves them, in creation order.
  std::vector<std::pair<int, VarId>> pending;

  // Traversal-scoped list of document-node qualifier placeholders (the
  // corner case of a self-filter right after a leading '//'). Lives on this
  // pass's stack frame, so concurrent fragment evaluations on reused pool
  // threads cannot observe each other's entries.
  std::vector<std::pair<int, VarId>> doc_quals;

  auto fresh_qual_var = [&](int qual_id) {
    const VarId var = MakeLocalVar(local_counter++);
    pending.emplace_back(qual_id, var);
    return arena->Var(var);
  };

  // ---- Stack initialization -------------------------------------------------
  std::vector<Formula> init;
  if (frag.id == 0) {
    Formula root_qual = kTrueFormula;
    if (sel[0].qual >= 0) {
      // Unknown until the root's post-order step: a local variable, bound
      // against the root element (the paper's convention for leading
      // qualifiers).
      root_qual = fresh_qual_var(sel[0].qual);
    }
    auto qual_at_doc = [&](int qual_id) {
      // Resolved after the traversal via EvalQualAtDoc (bound on the root's
      // pending list so substitution picks it up; axis handling differs from
      // node-anchored qualifiers, so mark with the dedicated list below).
      const VarId var = MakeLocalVar(local_counter++);
      doc_quals.emplace_back(qual_id, var);
      return arena->Var(var);
    };
    init = MakeDocVector(query, &domain, root_qual,
                         query.has_qualifiers()
                             ? std::function<Formula(int)>(qual_at_doc)
                             : std::function<Formula(int)>());
  } else if (concrete_init != nullptr) {
    init = ConstStackInit(*concrete_init);
  } else {
    init = VariableStackInit(query, frag.id, arena);
  }

  // ---- Combined DFS ----------------------------------------------------------
  // `stack` is flat: the selection vector of depth d occupies
  // [d*m, (d+1)*m), so the top is the last m values. `qual_scratch` holds
  // the qualifier step's child aggregates. Both grow once per traversal;
  // the per-node steps allocate nothing.
  struct Item {
    NodeId v;
    bool expanded;
    size_t pending_begin;  // post-order: where v's qz entries start
  };
  std::vector<Item> work = {{tree.root(), false, 0}};
  std::vector<Formula> stack = std::move(init);
  std::vector<Formula> qual_scratch;

  while (!work.empty()) {
    Item item = work.back();
    work.pop_back();
    const NodeId v = item.v;

    if (item.expanded) {
      // Post-order: qualifier rows, then resolve this node's qz variables.
      ComputeQualRowsAtNode(tree, query, &domain, v, virtual_hook,
                            &st.qual_vectors, &qual_scratch, &st.ops);
      for (size_t p = item.pending_begin; p < pending.size(); ++p) {
        const auto [qual_id, var] = pending[p];
        qz_bindings.Bind(var, EvalQualAtNode(tree, query, &domain,
                                             st.qual_vectors, v, qual_id));
      }
      pending.resize(item.pending_begin);
      if (tree.first_child(v) != kNullNode) stack.resize(stack.size() - m);
      continue;
    }

    const size_t base = stack.size();

    if (tree.IsVirtual(v)) {
      const Formula* top = stack.data() + base - m;
      st.virtual_tops.push_back(SelUpMessage::VirtualTop{
          tree.fragment_ref(v), std::vector<Formula>(top, top + m)});
      // Virtual nodes still need their qualifier rows (variables).
      ComputeQualRowsAtNode(tree, query, &domain, v, virtual_hook,
                            &st.qual_vectors, &qual_scratch, &st.ops);
      continue;
    }

    // The root's entries start at 0: its leading-qualifier entry was pushed
    // at stack init, before this step.
    const size_t pending_begin = v == tree.root() ? 0 : pending.size();

    // Pre-order: selection vector with qz placeholders for qualifiers,
    // written in place above the parent's. Growth may move the buffer, so
    // both pointers are taken after the resize.
    stack.resize(base + m, kFalseFormula);
    const Formula* parent_vec = stack.data() + base - m;
    Formula* vec = stack.data() + base;
    for (size_t i = 1; i < m; ++i) {
      const CompiledQuery::SelEntry& e = sel[i];
      switch (e.kind) {
        case SelKind::kLabel:
        case SelKind::kWildcard: {
          const bool term =
              tree.IsElement(v) &&
              (e.kind == SelKind::kWildcard || tree.label(v) == e.label);
          Formula val = term ? parent_vec[i - 1] : kFalseFormula;
          if (term && e.qual >= 0 && !domain.IsFalse(val)) {
            val = domain.And(val, fresh_qual_var(e.qual));
          }
          vec[i] = val;
          break;
        }
        case SelKind::kDescend:
          vec[i] = domain.Or(vec[i - 1], parent_vec[i]);
          break;
        case SelKind::kSelfFilter: {
          Formula val = vec[i - 1];
          if (e.qual >= 0 && !domain.IsFalse(val)) {
            val = domain.And(val, fresh_qual_var(e.qual));
          }
          vec[i] = val;
          break;
        }
        case SelKind::kRoot:
          PAXML_CHECK(false);
          break;
      }
      ++st.ops;
    }

    if (!domain.IsFalse(vec[last])) st.finals.emplace_back(v, vec[last]);

    work.push_back({v, true, pending_begin});
    if (tree.first_child(v) != kNullNode) {
      for (NodeId c : tree.children(v)) work.push_back({c, false, 0});
    } else {
      stack.resize(base);
    }
  }

  // ---- Resolve document-node qualifiers (leading '//ε[q]' corner) ----------
  for (auto [qual_id, var] : doc_quals) {
    qz_bindings.Bind(var, EvalQualAtDoc(query, &domain, st.qual_vectors,
                                        tree.root(), qual_id));
  }

  // ---- Substitute qz locals; classify finals --------------------------------
  for (auto& [node, formula] : st.finals) {
    formula = qz_bindings.Apply(arena, formula);
    auto c = arena->ConstValue(formula);
    if (!c) {
      st.candidates.emplace_back(node, formula);
    } else if (*c) {
      st.answers.push_back(node);
    }
  }
  st.finals.clear();
  for (auto& top : st.virtual_tops) {
    for (Formula& f : top.stack_top) f = qz_bindings.Apply(arena, f);
  }
  return st;
}

/// PaX2's two visits as runtime handlers: kSelRequest runs the combined
/// pass and replies with QualUp + SelUp in one envelope; kAnswerRequest
/// settles candidates against the resolved values delivered just before it
/// and ships the answers.
class Pax2Program : public XmlMessageHandlers {
 public:
  /// Owns its options and prune state (by value) so the same program type
  /// serves both roles: borrowed by EvaluatePaX2's stack frame and owned by
  /// a remote peer's SiteProgram, where nothing outlives the handler set
  /// but the cluster and the query.
  Pax2Program(const Cluster& cluster, const CompiledQuery& query,
              const PaxOptions& options, PruneResult prune,
              bool concrete_init)
      : doc_(cluster.doc()),
        query_(query),
        options_(options),
        prune_(std::move(prune)),
        concrete_init_(concrete_init),
        unifier_(&doc_, &query),
        state_(doc_.size()) {}

  FormulaArena* DecodeArena() override { return unifier_.arena(); }

  // ---- Visit 1 (site): the combined pass -----------------------------------

  Status OnSelRequest(SiteContext& ctx, FragmentId f) override {
    const Fragment& frag = doc_.fragment(f);
    const std::vector<uint8_t>* init =
        (concrete_init_ && f != 0)
            ? &prune_.parent_vector[static_cast<size_t>(f)]
            : nullptr;
    state_[static_cast<size_t>(f)] =
        std::make_unique<Pax2FragmentState>(RunCombinedPass(frag, query_, init));
    return SendCombinedReply(ctx, f);
  }

  Status OnSelDown(SiteContext&, SelDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->sel_down =
        std::move(message);
    return Status::OK();
  }

  Status OnQualDown(SiteContext&, QualDownMessage message) override {
    state_[static_cast<size_t>(message.fragment)]->qual_down =
        std::move(message);
    return Status::OK();
  }

  // ---- Visit 2 (site): resolve candidates, ship answers ---------------------

  Status OnAnswerRequest(SiteContext& ctx, FragmentId f) override {
    Pax2FragmentState& st = *state_[static_cast<size_t>(f)];

    if (!st.candidates.empty()) {
      // Assignment: z variables of this fragment from the resolved stack;
      // x variables of the virtual children from the resolved rows.
      const std::vector<uint8_t>* z =
          st.sel_down ? &st.sel_down->stack_init : nullptr;
      std::unordered_map<FragmentId, const QualDownMessage::ResolvedChild*>
          rows;
      if (st.qual_down) {
        for (const auto& c : st.qual_down->children) rows[c.child] = &c;
      }
      auto assignment = [&](VarId var) -> std::optional<bool> {
        switch (KindOfVar(var)) {
          case VarKind::kSV:
            if (FragmentOfVar(var) != f || z == nullptr) return std::nullopt;
            return (*z)[IndexOfVar(var)] != 0;
          case VarKind::kQV:
          case VarKind::kQDV: {
            auto it = rows.find(FragmentOfVar(var));
            if (it == rows.end()) return std::nullopt;
            const uint32_t e = IndexOfVar(var);
            return KindOfVar(var) == VarKind::kQV ? it->second->qv[e] != 0
                                                  : it->second->qdv[e] != 0;
          }
          case VarKind::kLocal:
            return std::nullopt;  // substituted out before shipping
        }
        return std::nullopt;
      };
      for (const auto& [node, formula] : st.candidates) {
        PAXML_ASSIGN_OR_RETURN(bool value,
                               st.arena->Evaluate(formula, assignment));
        if (value) st.answers.push_back(node);
      }
      std::sort(st.answers.begin(), st.answers.end());
    }

    SendAnswers(ctx, f, st.answers);
    return Status::OK();
  }

  // ---- Coordinator side ------------------------------------------------------

  Status OnQualUp(SiteContext&, QualUpMessage message) override {
    unifier_.AddQualReport(std::move(message));
    return Status::OK();
  }

  Status OnSelUp(SiteContext&, SelUpMessage message) override {
    unifier_.AddSelReport(std::move(message));
    return Status::OK();
  }

  Status OnAnswerUp(SiteContext&, AnswerUpMessage message) override {
    for (NodeId v : message.answers) {
      answers_.push_back(GlobalNodeId{message.fragment, v});
    }
    return Status::OK();
  }

  FragmentTreeUnifier& unifier() { return unifier_; }
  std::vector<GlobalNodeId> TakeAnswers() { return std::move(answers_); }

 private:
  /// The combined pass's one reply envelope (qualifier roots + selection
  /// stack tops + answer counts), built from state_[f].
  Status SendCombinedReply(SiteContext& ctx, FragmentId f) {
    const Fragment& frag = doc_.fragment(f);
    Pax2FragmentState& st = *state_[static_cast<size_t>(f)];

    QualUpMessage qual_reply;
    qual_reply.fragment = f;
    const size_t ec = query_.entries().size();
    const NodeId root = frag.tree.root();
    qual_reply.root_qv.assign(st.qual_vectors.QVRow(root),
                              st.qual_vectors.QVRow(root) + ec);
    qual_reply.root_qdv.assign(st.qual_vectors.QDVRow(root),
                               st.qual_vectors.QDVRow(root) + ec);
    SelUpMessage sel_reply;
    sel_reply.fragment = f;
    sel_reply.virtual_tops = st.virtual_tops;
    sel_reply.answer_count = static_cast<uint32_t>(st.answers.size());
    sel_reply.candidate_count = static_cast<uint32_t>(st.candidates.size());

    Envelope env;
    env.to = ctx.query_site();
    ByteWriter qual_bytes;
    qual_reply.Encode(*st.arena, &qual_bytes);
    env.parts.push_back(
        {MessageKind::kQualUp, f, std::move(qual_bytes).Take(), true});
    ByteWriter sel_bytes;
    sel_reply.Encode(*st.arena, &sel_bytes);
    env.parts.push_back(
        {MessageKind::kSelUp, f, std::move(sel_bytes).Take(), true});
    ctx.Send(std::move(env));

    if (concrete_init_) {
      // Single visit: every reported answer is final (no candidates
      // possible); they ship with this reply.
      SendAnswers(ctx, f, st.answers);
    }
    return Status::OK();
  }

  /// One streamed answer shipment: id list chunks appended to the open
  /// frame, answer payload as phantom bytes. In the concrete-init path
  /// only the phantom XML is accounted (the id list duplicates it); the
  /// final visit accounts both, as the O(|ans|) term of the communication
  /// bound.
  void SendAnswers(SiteContext& ctx, FragmentId f,
                   const std::vector<NodeId>& answers) {
    ShipAnswersStreamed(ctx, doc_.fragment(f).tree, f, answers,
                        options_.ship_mode, /*account_ids=*/!concrete_init_);
  }

  const FragmentedDocument& doc_;
  const CompiledQuery& query_;
  const PaxOptions options_;
  const PruneResult prune_;
  const bool concrete_init_;
  FragmentTreeUnifier unifier_;
  std::vector<std::unique_ptr<Pax2FragmentState>> state_;
  std::vector<GlobalNodeId> answers_;
};

bool ConcreteInit(const CompiledQuery& query, const PaxOptions& options) {
  return options.use_annotations && !query.has_qualifiers();
}

}  // namespace

std::unique_ptr<MessageHandlers> MakePax2SiteHandlers(
    const Cluster& cluster, const CompiledQuery& query,
    const PaxOptions& options) {
  return std::make_unique<Pax2Program>(
      cluster, query, options,
      ComputePaxPrune(cluster.doc(), query, options),
      ConcreteInit(query, options));
}

Result<DistributedResult> EvaluatePaX2(const Cluster& cluster,
                                       const CompiledQuery& query,
                                       const PaxOptions& options,
                                       Transport* transport,
                                       RunControl* control) {
  if (query.IsBooleanQuery()) {
    PAXML_ASSIGN_OR_RETURN(ParBoXResult r,
                           EvaluateParBoX(cluster, query, transport, control));
    DistributedResult out;
    if (r.value) {
      out.answers.push_back(
          GlobalNodeId{0, cluster.doc().fragment(0).tree.root()});
    }
    out.stats = std::move(r.stats);
    return out;
  }

  const FragmentedDocument& doc = cluster.doc();
  const size_t fragment_count = doc.size();
  std::unique_ptr<Transport> owned_transport;
  transport = EnsureTransport(transport, cluster, &owned_transport);

  PruneResult prune = ComputePaxPrune(doc, query, options);

  // The combined pass must run wherever a qualifier can see (see
  // fragment/pruning.h); for qualifier-free queries that degenerates to the
  // selection-relevant set.
  std::vector<FragmentId> stage1_frags;
  std::vector<bool> participating(fragment_count, false);
  for (size_t f = 0; f < fragment_count; ++f) {
    if (prune.required[f]) {
      stage1_frags.push_back(static_cast<FragmentId>(f));
      participating[f] = true;
    }
  }

  const bool concrete_init = ConcreteInit(query, options);

  Pax2Program program(cluster, query, options, std::move(prune),
                      concrete_init);
  const RunSpec spec = MakePaxRunSpec("PaX2", query, options);
  Coordinator coord(&cluster, transport, &program, control, &spec);
  FragmentTreeUnifier& unifier = program.unifier();

  std::vector<SiteId> stage1_sites = coord.SitesOf(stage1_frags);
  for (SiteId s : stage1_sites) {
    coord.Post(MakeQueryShipEnvelope(s, query.source().size()));
  }
  for (FragmentId f : stage1_frags) {
    coord.Post(MakeRequestEnvelope(MessageKind::kSelRequest,
                                   cluster.site_of(f), f));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax2-combined", stage1_sites));

  DistributedResult result;
  if (concrete_init) {
    // Single visit: the answers arrived with the combined-pass replies.
    result.answers = program.TakeAnswers();
    std::sort(result.answers.begin(), result.answers.end());
    result.stats = coord.TakeStats();
    return result;
  }

  // ---- evalFT: qualifiers bottom-up, then selection top-down ----------------
  Status unify_status = Status::OK();
  coord.RunLocal([&] {
    unify_status = unifier.UnifyQualifiers(participating);
    if (unify_status.ok()) unify_status = unifier.UnifySelection(participating);
  });
  PAXML_RETURN_NOT_OK(unify_status);

  // ---- Final visit: resolve candidates, ship answers -------------------------
  std::vector<FragmentId> stage2_frags;
  for (FragmentId f : stage1_frags) {
    if (unifier.HasAnswerWork(f)) stage2_frags.push_back(f);
  }
  std::vector<SiteId> stage2_sites = coord.SitesOf(stage2_frags);

  for (FragmentId f : stage2_frags) {
    // One down envelope per fragment: resolved stack (non-root fragments)
    // plus resolved qualifier rows, then the answer request.
    Envelope env;
    env.to = cluster.site_of(f);
    if (f != 0) {
      SelDownMessage m = unifier.MakeSelDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kSelDown, f, std::move(bytes).Take(), true});
    }
    if (query.has_qualifiers()) {
      QualDownMessage m = unifier.MakeQualDown(f);
      ByteWriter bytes;
      m.Encode(&bytes);
      env.parts.push_back(
          {MessageKind::kQualDown, f, std::move(bytes).Take(), true});
    }
    env.parts.push_back({MessageKind::kAnswerRequest, f, {}, false});
    coord.Post(std::move(env));
  }
  PAXML_RETURN_NOT_OK(coord.RunRound("pax2-answers", stage2_sites));

  result.answers = program.TakeAnswers();
  std::sort(result.answers.begin(), result.answers.end());
  result.stats = coord.TakeStats();
  return result;
}

}  // namespace paxml
