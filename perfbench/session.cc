#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "bench.h"
#include "compact/iterated_revision.h"
#include "core/io.h"
#include "core/kb_artifact.h"
#include "model/canonical.h"
#include "obs/metrics.h"
#include "revision/candidates.h"
#include "revision/formula_based.h"
#include "revision/model_based.h"
#include "solve/model_cache.h"
#include "solve/services.h"

namespace perfbench {
namespace {

using revise::Alphabet;
using revise::Formula;
using revise::Interpretation;
using revise::KnowledgeBase;
using revise::ModelCache;
using revise::ModelSet;
using revise::OperatorId;
using revise::RevisionStrategy;
using revise::StatusOr;
using revise::Theory;
using revise::Vocabulary;

// An enumeration limit no model set reaches: the call bypasses the model
// cache (only unlimited enumerations are memoized), so a replay never
// profits from the entry its parent call just inserted.
constexpr size_t kUncached = std::numeric_limits<size_t>::max();

// Calls fn() directly, or as a parent call of `layer` when tracing.
template <typename F>
decltype(auto) Call(Tracer* tracer, std::string_view layer, F&& fn) {
  if (tracer == nullptr) return fn();
  return tracer->Time(layer, false, fn);
}

// Letter k of the generator is named xk; -1 for any other name.
int LetterOf(const Vocabulary& vocabulary, revise::Var var) {
  const std::string& name = vocabulary.Name(var);
  if (name.size() < 2 || name[0] != 'x') return -1;
  int letter = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    letter = letter * 10 + (name[i] - '0');
  }
  return letter < 32 ? letter : -1;
}

// Converts to generator masks.  A letter the generator never wrote maps
// to bit 31, which no reference model has, so it shows as a mismatch.
std::vector<Mask> ToMasks(const ModelSet& models,
                          const Vocabulary& vocabulary) {
  std::vector<int> letter;
  for (const revise::Var v : models.alphabet().vars()) {
    const int l = LetterOf(vocabulary, v);
    letter.push_back(l < 0 ? 31 : l);
  }
  std::vector<Mask> out;
  out.reserve(models.size());
  for (const Interpretation& m : models) {
    Mask mask = 0;
    for (size_t i = 0; i < letter.size(); ++i) {
      if (m.Get(i)) mask |= Mask{1} << letter[i];
    }
    out.push_back(mask);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Interpretation FromMask(Mask mask, const Alphabet& alphabet,
                        const Vocabulary& vocabulary) {
  Interpretation m(alphabet.size());
  for (size_t i = 0; i < alphabet.size(); ++i) {
    const int l = LetterOf(vocabulary, alphabet.var(i));
    m.Set(i, l >= 0 && ((mask >> l) & 1) != 0);
  }
  return m;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

uint64_t Mix(uint64_t h, const ModelSet& models) {
  h = Mix(h, models.size());
  for (const Interpretation& m : models) {
    for (const uint64_t w : m.words()) h = Mix(h, w);
  }
  return h;
}

Formula CompactStep(OperatorId id, const Formula& prior, const Formula& p,
                    const Alphabet& alphabet, Vocabulary* vocabulary) {
  switch (id) {
    case OperatorId::kDalal:
      return revise::DalalCompactStep(prior, p, alphabet.vars(), vocabulary);
    case OperatorId::kWeber:
      return revise::WeberCompactStep(prior, p, alphabet.vars(), vocabulary);
    case OperatorId::kWinslett:
      return revise::WinslettCompactStep(prior, p, vocabulary);
    case OperatorId::kBorgida:
      return revise::BorgidaCompactStep(prior, p, vocabulary);
    case OperatorId::kSatoh:
      return revise::SatohCompactStep(prior, p, vocabulary);
    case OperatorId::kForbus:
      return revise::ForbusCompactStep(prior, p, vocabulary);
    default:
      std::abort();  // GFUV, Nebel and WIDTIO have no compact step
  }
}

// The set route of ReviseModelsAuto: the packed kernel sweep over M(T)
// and an enumerated M(P).
ModelSet SetRoute(OperatorId id, const ModelSet& mt, const ModelSet& mp) {
  switch (id) {
    case OperatorId::kWinslett:
      return revise::WinslettModels(mt, mp);
    case OperatorId::kBorgida:
      return revise::BorgidaModels(mt, mp);
    case OperatorId::kForbus:
      return revise::ForbusModels(mt, mp);
    case OperatorId::kSatoh:
      return revise::SatohModels(mt, mp);
    case OperatorId::kDalal:
      return revise::DalalModels(mt, mp);
    default:
      return revise::WeberModels(mt, mp);
  }
}

// Times both routes of one revision step.  The candidate route costs
// |M(T)| * 2^|V(P)| evaluations; above 2^19 of them it runs on the first
// rows of M(T) only, which bounds its full cost from below.
void RegretSample(OperatorId id, const ModelSet& mt, const Formula& p,
                  const Alphabet& alphabet, double auto_ms, Tracer* tracer) {
  const size_t vp = p.Vars().size();
  const size_t rows =
      std::min(mt.size(), size_t{1} << (vp >= 19 ? 0 : 19 - vp));
  const ModelSet slice =
      rows == mt.size()
          ? mt
          : ModelSet(alphabet, std::vector<Interpretation>(
                                   mt.begin(), mt.begin() + rows));
  Clock::time_point start = Clock::now();
  (void)tracer->Time("revision.candidate", false, [&] {
    return revise::ReviseSetByFormula(id, slice, p);
  });
  const double candidate_ms = MsSince(start);
  start = Clock::now();
  const ModelSet mp = tracer->Time("solve.allsat", false, [&] {
    return revise::EnumerateModels(p, alphabet, kUncached);
  });
  (void)tracer->Time("kernel.sweep", false,
                     [&] { return SetRoute(id, mt, mp); });
  const double set_ms = MsSince(start);
  tracer->layer("kernel.sweep").amount +=
      static_cast<double>(mt.size()) * static_cast<double>(mp.size());
  tracer->regret_auto_ms += auto_ms;
  tracer->regret_best_ms += std::min(candidate_ms, set_ms);
}

// Re-does the materialization the parent call core.models just made,
// through the public functions of the layers below KnowledgeBase.  `cold`
// sessions (Table-1) empty the model cache first, as their parent did.
void ReplayRevision(const KnowledgeBase& kb, const Formula& prior,
                    const Theory& prior_theory, Vocabulary* vocabulary,
                    bool cold, Tracer* tracer) {
  const Alphabet alphabet = kb.CurrentAlphabet();
  const OperatorId id = kb.op().id();
  if (cold) ModelCache::Global().Clear();
  if (kb.updates().empty()) {
    (void)tracer->Time("solve.allsat", true, [&] {
      return revise::EnumerateModels(kb.initial().AsFormula(), alphabet,
                                     kUncached);
    });
    return;
  }
  const Formula& p = kb.updates().back();
  if (kb.strategy() != RevisionStrategy::kDelayed) {
    Formula folded;
    if (kb.strategy() == RevisionStrategy::kCompact &&
        id != OperatorId::kWidtio) {
      folded = tracer->Time("compact.fold", true, [&] {
        return CompactStep(id, prior, p, alphabet, vocabulary);
      });
    } else {
      folded = tracer->Time("revision.formula_based", true, [&] {
        return id == OperatorId::kWidtio
                   ? revise::WidtioTheory(prior_theory, p).AsFormula()
                   : kb.op().ReviseFormula(prior_theory, p);
      });
    }
    (void)tracer->Time("solve.allsat", true, [&] {
      return revise::EnumerateModels(folded, alphabet, kUncached);
    });
    return;
  }
  // Delayed: the whole update sequence is revised from T again.
  if (kb.op().is_formula_based()) {
    Theory current = kb.initial();
    for (const Formula& update : kb.updates()) {
      current = tracer->Time("revision.formula_based", true, [&] {
        return id == OperatorId::kWidtio
                   ? revise::WidtioTheory(current, update)
                   : Theory({kb.op().ReviseFormula(current, update)});
      });
    }
    (void)tracer->Time("solve.allsat", true, [&] {
      return revise::EnumerateModels(current.AsFormula(), alphabet);
    });
    return;
  }
  if (cold && id == OperatorId::kDalal) {
    // Table 1's question for Dalal, off the measured path: the compact
    // form of T * P that Theorem 5.1 gives, and its size.
    const Formula compact = tracer->Time("compact.fold", false, [&] {
      return CompactStep(id, kb.initial().AsFormula(), p, alphabet,
                         vocabulary);
    });
    Tracer::Layer& size = tracer->layer("compact.formula_size");
    size.amount += static_cast<double>(compact.VarOccurrences());
    ++size.calls;
  }
  ModelSet current = tracer->Time("solve.allsat", true, [&] {
    return revise::EnumerateModels(kb.initial().AsFormula(), alphabet);
  });
  ModelSet before_last;
  double last_ms = 0;
  for (const Formula& update : kb.updates()) {
    before_last = current;
    const Clock::time_point start = Clock::now();
    current = tracer->Time("revision.auto", true, [&] {
      return revise::ReviseModelsAuto(id, current, update, alphabet);
    });
    last_ms = MsSince(start);
  }
  if (tracer->regret_samples_left > 0) {
    --tracer->regret_samples_left;
    RegretSample(id, before_last, p, alphabet, last_ms, tracer);
  }
}

void ReplayAsk(const KnowledgeBase& kb, const Formula& query,
               Tracer* tracer) {
  if (kb.strategy() == RevisionStrategy::kDelayed) {
    const ModelSet models = kb.Models();
    const Formula dnf = tracer->Time(
        "model.canonical_dnf", true,
        [&] { return revise::CanonicalDnf(models); });
    (void)tracer->Time("sat.entails", true,
                       [&] { return revise::Entails(dnf, query); });
    return;
  }
  (void)tracer->Time("sat.entails", true,
                     [&] { return revise::Entails(kb.folded(), query); });
}

const char* StrategyName(RevisionStrategy s) {
  switch (s) {
    case RevisionStrategy::kDelayed:
      return "delayed";
    case RevisionStrategy::kExplicit:
      return "explicit";
    case RevisionStrategy::kCompact:
      return "compact";
  }
  return "?";
}

}  // namespace

Tracer::Snapshot Tracer::Take() {
  static revise::obs::Counter* const kCounters[kNumCounters] = {
      revise::obs::Registry::Global().GetCounter("sat.solves"),
      revise::obs::Registry::Global().GetCounter("sat.conflicts"),
      revise::obs::Registry::Global().GetCounter("solve.models_enumerated"),
      revise::obs::Registry::Global().GetCounter("solve.model_cache.hits"),
      revise::obs::Registry::Global().GetCounter("solve.model_cache.misses"),
  };
  Snapshot s;
  for (int i = 0; i < kNumCounters; ++i) s.counters[i] = kCounters[i]->Value();
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  s.cpu_ms = static_cast<double>(ts.tv_sec) * 1e3 +
             static_cast<double>(ts.tv_nsec) * 1e-6;
  return s;
}

void Tracer::Finish(std::string_view layer, bool child,
                    Clock::time_point book_start, Clock::time_point start,
                    const Snapshot& before) {
  const Clock::time_point end = Clock::now();
  const Snapshot after = Take();
  auto it = layers_.find(layer);
  if (it == layers_.end()) {
    it = layers_.emplace(std::string(layer), Layer{}).first;
  }
  Layer& l = it->second;
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  ++l.calls;
  l.ms += ms;
  l.cpu_ms += after.cpu_ms - before.cpu_ms;
  for (int i = 0; i < kNumCounters; ++i) {
    l.counters[i] += after.counters[i] - before.counters[i];
  }
  if (child) child_ms_ += ms;
  overhead_ms_ += std::chrono::duration<double, std::milli>(
                      (start - book_start) + (Clock::now() - end))
                      .count();
}

void Checks::Expect(bool condition, const std::string& what) {
  if (condition) return;
  if (failures_++ < 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

SessionRecord RunSession(const SessionSpec& spec, bool record_masks,
                         Measurements* out, Tracer* tracer) {
  SessionRecord rec;
  uint64_t fp = 0xcbf29ce484222325ULL;
  // Every session starts as a fresh process would: nothing cached.
  ModelCache::Global().Clear();
  ++out->attempted;
  const Clock::time_point ready_start = Clock::now();
  Vocabulary vocabulary;
  auto load = [&](const char* suffix, Vocabulary* v) {
    return Call(tracer, "logic.parse", [&] {
      return revise::LoadTheoryFromFile(spec.stem + suffix, v);
    });
  };
  const StatusOr<Theory> theory = load(".theory", &vocabulary);
  const StatusOr<Theory> updates = load(".revise", &vocabulary);
  const StatusOr<Theory> queries = load(".queries", &vocabulary);
  const size_t asks = static_cast<size_t>(spec.asks_per_update);
  if (!theory.ok() || !updates.ok() || !queries.ok() || updates->empty() ||
      queries->size() != updates->size() * asks || asks == 0) {
    ++out->failed;
    return rec;
  }
  StatusOr<KnowledgeBase> created = KnowledgeBase::Create(
      *theory, spec.op, spec.strategy, &vocabulary);
  if (!created.ok()) {
    ++out->failed;
    return rec;
  }
  KnowledgeBase& kb = *created;
  if (tracer != nullptr) ++tracer->sessions;

  ModelSet models;
  // Revises (when `update` is given) and re-materializes; returns the
  // wall time of that call alone.
  auto materialize = [&](const Formula* update) {
    Formula prior;
    Theory prior_theory;
    if (tracer != nullptr) {
      prior = kb.folded();
      prior_theory = kb.folded_theory();
    }
    const Clock::time_point start = Clock::now();
    models = Call(tracer, "core.models", [&] {
      if (update != nullptr) kb.Revise(*update);
      return kb.Models();
    });
    const double ms = MsSince(start);
    if (tracer != nullptr) {
      ReplayRevision(kb, prior, prior_theory, &vocabulary,
                     spec.revise_before_ready, tracer);
    }
    fp = Mix(fp, models);
    if (record_masks && update != nullptr) {
      rec.models.push_back(ToMasks(models, vocabulary));
    }
    return ms;
  };
  auto revise_step = [&](size_t u) {
    ++out->attempted;
    const double ms = materialize(&(*updates)[u]);
    out->revise_ms.push_back(ms);
    return ms;
  };
  double ask_ms = 0;  // of the latest ask
  auto ask = [&](const KnowledgeBase& k, const Formula& q) {
    ++out->attempted;
    const Clock::time_point start = Clock::now();
    const bool answer = Call(tracer, "core.ask", [&] { return k.Ask(q); });
    ask_ms = MsSince(start);
    out->ask_us.push_back(ask_ms * 1e3);
    if (tracer != nullptr) ReplayAsk(k, q, tracer);
    fp = Mix(fp, answer);
    return answer;
  };
  auto probe = [&](const KnowledgeBase& k, const Vocabulary& v, Mask mask) {
    const Alphabet alphabet = k.CurrentAlphabet();
    const Interpretation m = FromMask(mask, alphabet, v);
    // Checked and counted, but not timed into the ask metrics: a model-set
    // lookup costs microseconds against an entailment's tens of them, and
    // mixing the two puts the median on the boundary between them.
    ++out->attempted;
    const bool answer = k.IsModel(m, alphabet);
    fp = Mix(fp, answer);
    return answer;
  };
  // The queries of update u, from query `first` on, then its probes.
  auto answer_block = [&](const KnowledgeBase& k, const Vocabulary& v,
                          const Theory& qs, size_t u, size_t first,
                          std::vector<bool>* answers,
                          std::vector<bool>* probe_answers) {
    for (size_t j = first; j < asks; ++j) {
      answers->push_back(ask(k, qs[u * asks + j]));
    }
    for (const Mask m : (*spec.probes)[u]) {
      probe_answers->push_back(probe(k, v, m));
    }
  };

  // Ready: parsing and creation, the first materialization, the first
  // answer; the benchmark's own bookkeeping between them is left out.
  double ready_ms = MsSince(ready_start);
  size_t u = 0;
  std::vector<bool> answers;
  std::vector<bool> probe_answers;
  if (spec.revise_before_ready) {
    ready_ms += revise_step(u++);
    answers.push_back(ask(kb, (*queries)[0]));
    out->ready_ms.push_back(ready_ms + ask_ms);
    answer_block(kb, vocabulary, *queries, 0, 1, &answers, &probe_answers);
    rec.asks.push_back(answers);
    rec.probes.push_back(probe_answers);
  } else {
    ready_ms += materialize(nullptr);
    rec.ready_answer = ask(kb, (*queries)[0]);
    out->ready_ms.push_back(ready_ms + ask_ms);
  }
  for (; u < updates->size(); ++u) {
    revise_step(u);
    answers.clear();
    probe_answers.clear();
    answer_block(kb, vocabulary, *queries, u, 0, &answers, &probe_answers);
    rec.asks.push_back(answers);
    rec.probes.push_back(probe_answers);
  }
  rec.stored_size = kb.StoredSize();
  if (tracer != nullptr && spec.strategy == RevisionStrategy::kCompact) {
    Tracer::Layer& size = tracer->layer("compact.formula_size");
    size.amount += static_cast<double>(rec.stored_size);
    ++size.calls;
  }

  const std::string rkb = spec.stem + "." + std::string(spec.op->name()) +
                          "." + StrategyName(spec.strategy) + ".rkb";
  ++out->attempted;
  revise::obs::Gauge* const bdd_nodes =
      revise::obs::Registry::Global().GetGauge("bdd.nodes");
  bdd_nodes->Reset();
  Clock::time_point start = Clock::now();
  const revise::Status saved = Call(tracer, "artifact.save", [&] {
    return revise::SaveKnowledgeBaseArtifact(kb, rkb);
  });
  out->save_ms.push_back(MsSince(start));
  if (!saved.ok()) {
    ++out->failed;
    return rec;
  }
  if (tracer != nullptr) {
    Tracer::Layer& nodes = tracer->layer("bdd.nodes");
    nodes.amount += static_cast<double>(bdd_nodes->Value());
    ++nodes.calls;
  }
  std::error_code ec;
  rec.rkb_bytes = std::filesystem::file_size(rkb, ec);

  ModelCache::Global().Clear();
  ++out->attempted;
  Vocabulary loaded_vocabulary;
  start = Clock::now();
  StatusOr<KnowledgeBase> loaded = Call(tracer, "artifact.load", [&] {
    return revise::LoadKnowledgeBaseArtifact(rkb, &loaded_vocabulary);
  });
  out->load_ms.push_back(MsSince(start));
  const StatusOr<Theory> loaded_queries =
      revise::LoadTheoryFromFile(spec.stem + ".queries", &loaded_vocabulary);
  if (!loaded.ok() || !loaded_queries.ok()) {
    ++out->failed;
    return rec;
  }
  const ModelSet loaded_models = loaded->Models();
  fp = Mix(fp, loaded_models);
  if (record_masks) {
    rec.loaded_models = ToMasks(loaded_models, loaded_vocabulary);
  }
  answer_block(*loaded, loaded_vocabulary, *loaded_queries,
               updates->size() - 1, 0, &rec.loaded_asks, &rec.loaded_probes);
  rec.fingerprint = fp;
  rec.complete = true;
  return rec;
}

}  // namespace perfbench
