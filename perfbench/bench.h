// Shared pieces of the end-to-end benchmark: the per-run measurements,
// the user session every workload is made of, and the per-layer tracer.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/knowledge_base.h"
#include "instances.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// End-to-end measurements of one run (tracing off).
struct Measurements {
  std::vector<double> ready_ms;   // text on disk -> first answer
  std::vector<double> revise_ms;  // Revise + re-materialization
  std::vector<double> ask_us;     // Ask
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Representation sizes of the first round (every round is the same).
  uint64_t stored_size = 0;
  uint64_t rkb_bytes = 0;
};

// Per-layer accounting for the traced run.  Every call into a layer's
// public function made from the benchmark goes through Time(), which also
// reads the library's obs counters before and after the call.
class Tracer {
 public:
  enum CounterIndex {
    kSatSolves, kSatConflicts, kModelsEnumerated, kCacheHits, kCacheMisses,
    kNumCounters,
  };
  struct Layer {
    uint64_t calls = 0;
    double ms = 0;
    double cpu_ms = 0;
    uint64_t counters[kNumCounters] = {};
    double amount = 0;  // layer-specific quantity (pairs, nodes, size)
  };

  // Times fn() as one call of `layer`.  A `child` call re-does, through
  // a lower layer's public functions, work a parent call (core.*) just
  // did; their sum against the parents gives the unattributed share.
  template <typename F>
  decltype(auto) Time(std::string_view layer, bool child, F&& fn) {
    const Clock::time_point book_start = Clock::now();
    Snapshot before = Take();
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Finish(layer, child, book_start, start, before);
    } else {
      decltype(auto) result = fn();
      Finish(layer, child, book_start, start, before);
      return result;
    }
  }

  Layer& layer(std::string_view name) { return layers_[std::string(name)]; }
  const std::map<std::string, Layer, std::less<>>& layers() const {
    return layers_;
  }
  double child_ms() const { return child_ms_; }
  double overhead_ms() const { return overhead_ms_; }

  // Route regret samples: ReviseModelsAuto time against the faster of
  // the candidate and set routes on the same inputs.
  int regret_samples_left = 0;
  int sessions = 0;
  double regret_auto_ms = 0;
  double regret_best_ms = 0;

 private:
  struct Snapshot {
    uint64_t counters[kNumCounters];
    double cpu_ms;
  };
  static Snapshot Take();
  void Finish(std::string_view layer, bool child, Clock::time_point book_start,
              Clock::time_point start, const Snapshot& before);

  std::map<std::string, Layer, std::less<>> layers_;
  double child_ms_ = 0;
  double overhead_ms_ = 0;
};

// One user session: cold start from the generated text files, a stream of
// revisions each followed by its queries, then save to .rkb, a cold load,
// and the last queries again.  Table-1 sessions have one revision and
// answer their first query only after it (T * P is what is asked).
struct SessionSpec {
  std::string stem;  // <stem>.theory / .revise / .queries / .rkb
  const revise::RevisionOperator* op = nullptr;
  revise::RevisionStrategy strategy = revise::RevisionStrategy::kDelayed;
  bool revise_before_ready = false;
  int asks_per_update = 0;
  // IsModel probes after each update, as masks over x0 .. x{n-1}.
  const std::vector<std::vector<Mask>>* probes = nullptr;
};

// What a session answered, kept for the checks.
struct SessionRecord {
  bool complete = false;
  bool ready_answer = false;  // sessions that answer before revising
  std::vector<std::vector<Mask>> models;  // after each update
  std::vector<std::vector<bool>> asks;    // per update
  std::vector<std::vector<bool>> probes;  // per update
  std::vector<Mask> loaded_models;
  std::vector<bool> loaded_asks;
  std::vector<bool> loaded_probes;
  uint64_t stored_size = 0;
  uint64_t rkb_bytes = 0;
  uint64_t fingerprint = 0;  // of every answer, compared across rounds
};

// Runs one session.  `record_masks` converts every answer to masks for
// the checks (done outside the timed calls); the fingerprint is always
// computed.  `tracer` is null in the end-to-end run.
SessionRecord RunSession(const SessionSpec& spec, bool record_masks,
                         Measurements* out, Tracer* tracer);

// Accumulates failed checks; the first few are printed to stderr.
class Checks {
 public:
  void Expect(bool condition, const std::string& what);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
