// revise_perfbench: the end-to-end benchmark of librevise.
//
//   revise_perfbench --workload <table1_small|table1_large|stream_serve>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --workdir <dir> [--quick]
//
// Generates the workload's inputs from the seed into <dir>, drives the
// public API over them in whole rounds for at least <s> seconds, checks
// every answer against the benchmark's own reference semantics, and
// prints one JSON object as the last line of standard output.  With
// --trace 0 it holds the end-to-end metrics; with --trace 1 the per-layer
// metrics of a run that also times each layer's public functions.
// --quick runs one small round, for the benchmark's own tests.  See
// README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "kernel/kernels.h"
#include "reference.h"
#include "revision/operator.h"
#include "solve/model_cache.h"
#include "util/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using revise::OperatorId;
using revise::RevisionStrategy;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir;
  bool quick = false;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      o->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--workdir") {
      o->workdir = value;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && o->seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      o->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && have_trace && !o->workdir.empty() &&
         (o->workload == "table1_small" || o->workload == "table1_large" ||
          o->workload == "stream_serve");
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

// A percentile is reported only with ten samples beyond it.
bool EnoughSamples(const Measurements& m) {
  return m.ready_ms.size() >= 20 && m.save_ms.size() >= 20 &&
         m.load_ms.size() >= 20 && m.revise_ms.size() >= 100 &&
         m.ask_us.size() >= 100;
}

std::string Text(const std::vector<Clause>& clauses) {
  std::string out;
  for (const Clause& c : clauses) out += ClauseText(c) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Workloads: inputs, sessions and checks.

struct Workload {
  // Regenerates the inputs and writes them; false on I/O failure.
  virtual bool Setup(const Options& o) = 0;
  virtual std::vector<SessionSpec> Sessions() const = 0;
  virtual int RegretSamples() const = 0;
  virtual void Check(const std::vector<SessionRecord>& round,
                     Checks* checks) const = 0;
  virtual ~Workload() = default;
};

// Every check shared by a revision result and the answers given on it.
void CheckAnswers(const std::string& where, const std::vector<Mask>& ref,
                  const std::vector<bool>& asks,
                  const std::vector<Clause>& queries, size_t first_query,
                  const std::vector<bool>& probes,
                  const std::vector<Mask>& probe_masks, Checks* checks) {
  checks->Expect(asks.size() + first_query == queries.size() &&
                     probes.size() == probe_masks.size(),
                 where + ": answer count");
  for (size_t j = 0; j < asks.size() && j + first_query < queries.size();
       ++j) {
    checks->Expect(asks[j] == EntailsClause(ref, queries[j + first_query]),
                   where + ": Ask " + ClauseText(queries[j + first_query]));
  }
  for (size_t j = 0; j < probes.size() && j < probe_masks.size(); ++j) {
    checks->Expect(probes[j] == std::binary_search(ref.begin(), ref.end(),
                                                   probe_masks[j]),
                   where + ": IsModel");
  }
}

void CheckResult(const std::string& where, RefOp op,
                 const std::vector<Mask>& got, const std::vector<Mask>& ref,
                 const std::vector<Mask>& prior, const Cnf& p,
                 Checks* checks) {
  checks->Expect(got == ref, where + ": models differ from the reference (" +
                                 std::to_string(got.size()) + " vs " +
                                 std::to_string(ref.size()) + ")");
  bool within_p = true;
  for (const Mask m : got) within_p = within_p && Satisfies(p, m);
  checks->Expect(within_p, where + ": a model violates P");
  checks->Expect(!got.empty(), where + ": empty result for satisfiable P");
  // Revision operators keep T ∧ P when it is consistent.
  std::vector<Mask> both;
  for (const Mask m : prior) {
    if (Satisfies(p, m)) both.push_back(m);
  }
  if (!both.empty() && (op == RefOp::kDalal || op == RefOp::kSatoh ||
                        op == RefOp::kWeber || op == RefOp::kBorgida)) {
    checks->Expect(got == both, where + ": differs from M(T ∧ P)");
  }
}

void CheckRoundTrip(const std::string& where, const SessionRecord& rec,
                    Checks* checks) {
  checks->Expect(rec.loaded_models == rec.models.back(),
                 where + ": .rkb round trip changed the models");
  checks->Expect(rec.loaded_asks == rec.asks.back() &&
                     rec.loaded_probes == rec.probes.back(),
                 where + ": .rkb round trip changed an answer");
}

// All nine operators revise each instance, delayed.
class Table1Workload : public Workload {
 public:
  Table1Workload(std::string name, Table1Shape shape, int count)
      : name_(std::move(name)), shape_(std::move(shape)), count_(count) {}

  bool Setup(const Options& o) override {
    dir_ = o.workdir + "/" + name_;
    std::filesystem::create_directories(dir_);
    instances_ = MakeTable1(shape_, count_, o.seed);
    bool ok = true;
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Table1Instance& inst = instances_[i];
      const std::string stem = Stem(i);
      ok = ok && WriteFile(stem + ".theory", Text(inst.t)) &&
           WriteFile(stem + ".revise", CnfText(inst.p) + "\n") &&
           WriteFile(stem + ".queries", Text(inst.asks));
    }
    probes_.clear();
    for (const Table1Instance& inst : instances_) {
      probes_.push_back({inst.probes});
    }
    return ok;
  }

  std::vector<SessionSpec> Sessions() const override {
    std::vector<SessionSpec> out;
    for (size_t i = 0; i < instances_.size(); ++i) {
      for (const revise::RevisionOperator* op : ops_) {
        SessionSpec s;
        s.stem = Stem(i);
        s.op = op;
        s.strategy = RevisionStrategy::kDelayed;
        s.revise_before_ready = true;
        s.asks_per_update = shape_.asks;
        s.probes = &probes_[i];
        out.push_back(std::move(s));
      }
    }
    return out;
  }

  int RegretSamples() const override { return 4; }

  void Check(const std::vector<SessionRecord>& round,
             Checks* checks) const override {
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Table1Instance& inst = instances_[i];
      std::vector<Cnf> t_formulas;
      for (const Clause& c : inst.t) t_formulas.push_back({c});
      std::vector<std::pair<RefOp, const std::vector<Mask>*>> results;
      for (size_t k = 0; k < ops_.size(); ++k) {
        const SessionRecord& rec = round[i * ops_.size() + k];
        if (!rec.complete) continue;  // counted as failed
        const RefOp op = RefOpByName(ops_[k]->name());
        const std::string where =
            name_ + " instance " + std::to_string(i) + " " +
            std::string(ops_[k]->name());
        const std::vector<Mask> ref =
            ops_[k]->is_formula_based()
                ? ReviseFormulaBased(op, t_formulas, inst.p, inst.n)
                : ReviseModelBased(op, inst.t_models, inst.p, inst.n);
        CheckResult(where, op, rec.models[0], ref, inst.t_models, inst.p,
                    checks);
        CheckAnswers(where, ref, rec.asks[0], inst.asks, 0, rec.probes[0],
                     inst.probes, checks);
        CheckRoundTrip(where, rec, checks);
        results.emplace_back(op, &rec.models[0]);
      }
      // Figure 1 of the paper, as model-set inclusions.
      static constexpr std::pair<RefOp, RefOp> kFigure1[] = {
          {RefOp::kDalal, RefOp::kForbus},   {RefOp::kDalal, RefOp::kSatoh},
          {RefOp::kDalal, RefOp::kBorgida},  {RefOp::kSatoh, RefOp::kWeber},
          {RefOp::kSatoh, RefOp::kWinslett}, {RefOp::kForbus, RefOp::kWinslett},
          {RefOp::kBorgida, RefOp::kWinslett}, {RefOp::kGfuv, RefOp::kWidtio},
      };
      auto find = [&](RefOp op) -> const std::vector<Mask>* {
        for (const auto& [o, r] : results) {
          if (o == op) return r;
        }
        return nullptr;
      };
      for (const auto& [small, large] : kFigure1) {
        const std::vector<Mask>* a = find(small);
        const std::vector<Mask>* b = find(large);
        if (a != nullptr && b != nullptr) {
          checks->Expect(IsSubset(*a, *b),
                         name_ + " instance " + std::to_string(i) +
                             ": Figure 1 containment");
        }
      }
    }
  }

 private:
  std::string Stem(size_t i) const {
    return dir_ + "/t1_" + std::to_string(i);
  }

  std::string name_;
  Table1Shape shape_;
  int count_;
  std::vector<Table1Instance> instances_;
  const std::vector<const revise::RevisionOperator*>& ops_ =
      revise::AllOperators();
  std::string dir_;
  std::vector<std::vector<std::vector<Mask>>> probes_;
};

class StreamWorkload : public Workload {
 public:
  StreamWorkload(StreamShape shape, int count)
      : shape_(std::move(shape)), count_(count) {}

  bool Setup(const Options& o) override {
    dir_ = o.workdir + "/stream_serve";
    std::filesystem::create_directories(dir_);
    bases_ = MakeStream(shape_, count_, o.seed);
    bool ok = true;
    for (size_t b = 0; b < bases_.size(); ++b) {
      std::string queries;
      for (const std::vector<Clause>& qs : bases_[b].asks) queries += Text(qs);
      ok = ok && WriteFile(Stem(b) + ".theory", Text(bases_[b].t)) &&
           WriteFile(Stem(b) + ".revise", Text(bases_[b].updates)) &&
           WriteFile(Stem(b) + ".queries", queries);
    }
    return ok;
  }

  // Each base runs its model-based operator delayed and compact, and
  // WIDTIO explicit.
  std::vector<SessionSpec> Sessions() const override {
    std::vector<SessionSpec> out;
    for (size_t b = 0; b < bases_.size(); ++b) {
      const std::pair<const revise::RevisionOperator*, RevisionStrategy>
          kinds[] = {{Op(b), RevisionStrategy::kDelayed},
                     {Op(b), RevisionStrategy::kCompact},
                     {revise::OperatorById(OperatorId::kWidtio),
                      RevisionStrategy::kExplicit}};
      for (const auto& [op, strategy] : kinds) {
        SessionSpec s;
        s.stem = Stem(b);
        s.op = op;
        s.strategy = strategy;
        s.asks_per_update = shape_.asks;
        s.probes = &bases_[b].probes;
        out.push_back(std::move(s));
      }
    }
    return out;
  }

  int RegretSamples() const override { return 1; }

  void Check(const std::vector<SessionRecord>& round,
             Checks* checks) const override {
    for (size_t b = 0; b < bases_.size(); ++b) {
      const StreamBase& base = bases_[b];
      const RefOp op = RefOpByName(Op(b)->name());
      const SessionRecord& delayed = round[3 * b];
      const SessionRecord& compact = round[3 * b + 1];
      const SessionRecord& widtio = round[3 * b + 2];
      const std::string where = "stream base " + std::to_string(b) + " ";
      std::vector<Mask> current = base.t_models;
      std::vector<Cnf> theory;
      for (const Clause& c : base.t) theory.push_back({c});
      std::vector<Mask> widtio_models = base.t_models;
      for (const SessionRecord* rec : {&delayed, &compact, &widtio}) {
        if (!rec->complete) continue;
        checks->Expect(rec->ready_answer ==
                           EntailsClause(base.t_models, base.asks[0][0]),
                       where + "first answer");
      }
      for (size_t u = 0; u < base.updates.size(); ++u) {
        const Cnf p = {base.updates[u]};
        const std::vector<Mask> prior = current;
        current = ReviseModelBased(op, prior, p, base.n);
        const std::string step = where + "update " + std::to_string(u);
        for (const SessionRecord* rec : {&delayed, &compact}) {
          if (!rec->complete) continue;
          const std::string w =
              step + (rec == &delayed ? " delayed " : " compact ") +
              std::string(Op(b)->name());
          CheckResult(w, op, rec->models[u], current, prior, p, checks);
          CheckAnswers(w, current, rec->asks[u], base.asks[u], 0,
                       rec->probes[u], base.probes[u], checks);
        }
        if (delayed.complete && compact.complete) {
          checks->Expect(delayed.asks[u] == compact.asks[u],
                         step + ": compact and delayed answers differ");
        }
        theory = WidtioTheoryRef(theory, p, base.n);
        Cnf conjunction;
        for (const Cnf& f : theory) {
          conjunction.insert(conjunction.end(), f.begin(), f.end());
        }
        const std::vector<Mask> widtio_prior = widtio_models;
        widtio_models = ModelsOf(conjunction, base.n);
        if (widtio.complete) {
          const std::string w = step + " explicit WIDTIO";
          CheckResult(w, RefOp::kWidtio, widtio.models[u], widtio_models,
                      widtio_prior, p, checks);
          CheckAnswers(w, widtio_models, widtio.asks[u], base.asks[u], 0,
                       widtio.probes[u], base.probes[u], checks);
        }
      }
      for (const SessionRecord* rec : {&delayed, &compact, &widtio}) {
        if (rec->complete) CheckRoundTrip(where + "save/load", *rec, checks);
      }
    }
  }

 private:
  std::string Stem(size_t b) const {
    return dir_ + "/base_" + std::to_string(b);
  }
  const revise::RevisionOperator* Op(size_t b) const {
    const RefOp want = shape_.op_cycle[b % shape_.op_cycle.size()];
    for (const revise::RevisionOperator* op : revise::AllOperators()) {
      if (RefOpByName(op->name()) == want) return op;
    }
    std::abort();
  }

  StreamShape shape_;
  int count_;
  std::vector<StreamBase> bases_;
  std::string dir_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "stream_serve") {
    StreamShape shape;
    shape.n_cycle = {16, 17, 18};
    shape.op_cycle = {RefOp::kDalal, RefOp::kWinslett, RefOp::kForbus,
                      RefOp::kSatoh, RefOp::kWeber,    RefOp::kBorgida};
    shape.target_models = 1500;
    shape.updates = o.quick ? 3 : 8;
    shape.asks = 3;
    shape.probes = 2;
    return std::make_unique<StreamWorkload>(shape, o.quick ? 3 : 12);
  }
  Table1Shape shape;
  shape.p_clauses_per_letter = 2.5;
  if (o.workload == "table1_small") {
    // Below ReviseModelsAuto's |V(P)| <= 16 threshold.
    shape.n_cycle = {10, 10, 11};
    shape.t_clauses_per_letter = 1.5;
    shape.asks = 8;
    shape.probes = 2;
    return std::make_unique<Table1Workload>(o.workload, shape,
                                            o.quick ? 6 : 12);
  }
  // Above the threshold: |V(P)| = 17.
  shape.n_cycle = {18, 18, 17};
  shape.t_clauses_per_letter = 2.0;
  shape.min_p_letters = 17;
  shape.asks = 6;
  shape.probes = 2;
  return std::make_unique<Table1Workload>(o.workload, shape, o.quick ? 6 : 24);
}

// ---------------------------------------------------------------------------
// Output.

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void AddEndToEnd(const Measurements& m, double setup_s, JsonMetrics* j) {
  j->Add("setup_s", setup_s, "s");
  j->Add("ready_p50_ms", Quantile(m.ready_ms, 0.5), "ms");
  j->Add("revisions_per_s",
         static_cast<double>(m.revise_ms.size()) / (Sum(m.revise_ms) / 1e3),
         "1/s");
  j->Add("revise_p50_ms", Quantile(m.revise_ms, 0.5), "ms");
  j->Add("revise_p90_ms", Quantile(m.revise_ms, 0.9), "ms");
  j->Add("asks_per_s",
         static_cast<double>(m.ask_us.size()) / (Sum(m.ask_us) / 1e6), "1/s");
  j->Add("ask_p50_us", Quantile(m.ask_us, 0.5), "us");
  j->Add("ask_p90_us", Quantile(m.ask_us, 0.9), "us");
  j->Add("load_p50_ms", Quantile(m.load_ms, 0.5), "ms");
  j->Add("save_p50_ms", Quantile(m.save_ms, 0.5), "ms");
  j->Add("stored_size", static_cast<double>(m.stored_size), "count");
  j->Add("rkb_bytes", static_cast<double>(m.rkb_bytes), "bytes");
  j->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Tracer& t, double traced_ms, JsonMetrics* j) {
  auto get = [&](const char* name) {
    const auto it = t.layers().find(name);
    return it == t.layers().end() ? Tracer::Layer{} : it->second;
  };
  auto per_call = [](double x, const Tracer::Layer& l) {
    return l.calls == 0 ? 0.0 : x / static_cast<double>(l.calls);
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const Tracer::Layer parse = get("logic.parse");
  const Tracer::Layer allsat = get("solve.allsat");
  const Tracer::Layer models = get("core.models");
  const Tracer::Layer ask = get("core.ask");
  const Tracer::Layer sweep = get("kernel.sweep");
  const double enumerated =
      static_cast<double>(allsat.counters[Tracer::kModelsEnumerated]);
  const double hits = static_cast<double>(models.counters[Tracer::kCacheHits]);
  const double misses =
      static_cast<double>(models.counters[Tracer::kCacheMisses]);
  const double parents = models.ms + ask.ms;

  j->Add("logic.parse_ms", ratio(parse.ms, t.sessions), "ms");
  j->Add("solve.allsat_ms", per_call(allsat.ms, allsat), "ms");
  j->Add("solve.allsat_models", per_call(enumerated, allsat), "count");
  j->Add("solve.allsat_us_per_model", ratio(allsat.ms * 1e3, enumerated),
         "us");
  j->Add("solve.model_cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  const Tracer::Layer autos = get("revision.auto");
  j->Add("revision.auto_ms", per_call(autos.ms, autos), "ms");
  const Tracer::Layer candidate = get("revision.candidate");
  j->Add("revision.candidate_ms", per_call(candidate.ms, candidate), "ms");
  j->Add("revision.route_regret", ratio(t.regret_auto_ms, t.regret_best_ms),
         "ratio");
  const Tracer::Layer formula = get("revision.formula_based");
  j->Add("revision.formula_based_ms", per_call(formula.ms, formula), "ms");
  j->Add("kernel.sweep_ms", per_call(sweep.ms, sweep), "ms");
  j->Add("kernel.pairs_per_s", ratio(sweep.amount, sweep.ms / 1e3), "1/s");
  j->Add("util.parallel_cpu_ratio", ratio(sweep.cpu_ms, sweep.ms), "ratio");
  const Tracer::Layer dnf = get("model.canonical_dnf");
  j->Add("model.canonical_dnf_ms", per_call(dnf.ms, dnf), "ms");
  const Tracer::Layer entails = get("sat.entails");
  j->Add("sat.entails_ms", per_call(entails.ms, entails), "ms");
  j->Add("sat.solves_per_ask",
         per_call(static_cast<double>(ask.counters[Tracer::kSatSolves]), ask),
         "count");
  j->Add("sat.conflicts_per_ask",
         per_call(static_cast<double>(ask.counters[Tracer::kSatConflicts]),
                  ask),
         "count");
  const Tracer::Layer fold = get("compact.fold");
  j->Add("compact.fold_ms", per_call(fold.ms, fold), "ms");
  const Tracer::Layer size = get("compact.formula_size");
  j->Add("compact.formula_size", per_call(size.amount, size), "count");
  const Tracer::Layer save = get("artifact.save");
  j->Add("artifact.save_ms", per_call(save.ms, save), "ms");
  const Tracer::Layer load = get("artifact.load");
  j->Add("artifact.load_ms", per_call(load.ms, load), "ms");
  const Tracer::Layer nodes = get("bdd.nodes");
  j->Add("bdd.nodes", per_call(nodes.amount, nodes), "count");
  j->Add("core.models_ms", per_call(models.ms, models), "ms");
  j->Add("core.ask_ms", per_call(ask.ms, ask), "ms");
  j->Add("unattributed_pct", 100.0 * ratio(parents - t.child_ms(), parents),
         "%");
  j->Add("obs.trace_overhead_pct", 100.0 * ratio(t.overhead_ms(), traced_ms),
         "%");
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: revise_perfbench --workload "
                 "<table1_small|table1_large|stream_serve> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> [--quick]\n");
    return 2;
  }
  // The library pool never exceeds the four workers the figures assume.
  const size_t workers = std::min<size_t>(4, revise::ParallelThreads());
  revise::SetParallelThreadsOverride(workers);

  // Set-up (generation and writing the inputs) runs five times; its
  // median is reported, so one slow file-system write does not decide it.
  std::unique_ptr<Workload> workload = MakeWorkload(o);
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    if (!workload->Setup(o)) {
      std::fprintf(stderr, "perfbench: cannot write inputs under %s\n",
                   o.workdir.c_str());
      return 1;
    }
    setups.push_back(MsSince(start) / 1e3);
  }
  const std::vector<SessionSpec> sessions = workload->Sessions();

  Measurements m;
  Tracer tracer;
  tracer.regret_samples_left = workload->RegretSamples();
  Tracer* const t = o.trace ? &tracer : nullptr;
  Checks checks;
  std::vector<SessionRecord> first_round;
  int rounds = 0;
  const Clock::time_point loop_start = Clock::now();
  for (;;) {
    for (size_t s = 0; s < sessions.size(); ++s) {
      SessionRecord rec = RunSession(sessions[s], rounds == 0, &m, t);
      if (rounds == 0) {
        m.stored_size += rec.stored_size;
        m.rkb_bytes += rec.rkb_bytes;
        first_round.push_back(std::move(rec));
      } else if (rec.complete && first_round[s].complete) {
        checks.Expect(rec.fingerprint == first_round[s].fingerprint,
                      "session " + std::to_string(s) + " round " +
                          std::to_string(rounds) +
                          " answered differently from round 0");
      }
    }
    ++rounds;
    const double elapsed = MsSince(loop_start) / 1e3;
    // Whole rounds only; a hard stop keeps every run within its budget.
    if (o.quick || elapsed >= 120 ||
        (elapsed >= o.seconds && (o.trace || EnoughSamples(m)))) {
      break;
    }
  }
  const double loop_ms = MsSince(loop_start);
  const Clock::time_point check_start = Clock::now();
  workload->Check(first_round, &checks);
  const double check_s = MsSince(check_start) / 1e3;

  std::printf(
      "{\"perfbench\": {\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %d, "
      "\"sessions_per_round\": %zu, \"workers\": %zu, "
      "\"model_cache_capacity\": %zu, \"simd\": \"%s\", \"build_type\": "
      "\"%s\", \"failed_checks\": %llu, \"loop_s\": %.3f, "
      "\"check_s\": %.3f}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), rounds,
      sessions.size(), workers, revise::ModelCache::Global().capacity(),
      revise::kernel::ActiveSimdPath(), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(checks.failures()), loop_ms / 1e3,
      check_s);
  JsonMetrics metrics;
  if (o.trace) {
    AddPerLayer(tracer, loop_ms, &metrics);
  } else {
    AddEndToEnd(m, Quantile(setups, 0.5), &metrics);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.failed), metrics.body().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
