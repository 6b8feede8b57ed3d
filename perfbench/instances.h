// Seeded input generation for the end-to-end benchmark.
//
// Everything the library is given comes from here, rendered as text files
// (`.theory`: one clause per line, `.revise`: one update per line,
// `.queries`: one query per line).  The benchmark keeps its own
// bit-mask copy of every clause so that the reference semantics in
// reference.h never reads anything the library produced.

#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: fixed, portable output for a given seed (the standard
// library's distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); the modulo bias is irrelevant at these bounds.
  uint32_t Below(uint32_t bound) {
    return static_cast<uint32_t>(Next() % bound);
  }

 private:
  uint64_t state_;
};

// The nine operators, as the reference semantics (reference.h) names them.
enum class RefOp {
  kGfuv, kNebel, kWidtio, kWinslett, kBorgida, kForbus, kSatoh, kDalal,
  kWeber,
};

// Letters are x0 .. x{n-1}; an assignment is a bit mask, bit i = xi.
using Mask = uint32_t;

// A clause as the masks of its positive and negative letters.
struct Clause {
  Mask pos = 0;
  Mask neg = 0;
  Mask Letters() const { return pos | neg; }
  bool SatisfiedBy(Mask a) const { return ((a & pos) | (~a & neg)) != 0; }
};

using Cnf = std::vector<Clause>;

bool Satisfies(const Cnf& cnf, Mask a);
Mask LettersOf(const Cnf& cnf);
// All models of `cnf` over n letters, ascending.
std::vector<Mask> ModelsOf(const Cnf& cnf, int n);

// Concrete syntax the library's parser accepts.
std::string ClauseText(const Clause& c);
std::string CnfText(const Cnf& cnf);  // one conjunction on one line

// One Table-1 revision T * P, with the probes asked after it.
struct Table1Instance {
  int n = 0;
  Cnf t;                      // random 3-CNF, every letter occurs
  Cnf p;                      // random 3-CNF over exactly |V(P)| letters
  bool consistent = false;    // T ∧ P satisfiable
  std::vector<Clause> asks;   // Ask queries
  std::vector<Mask> probes;   // IsModel probes
  std::vector<Mask> t_models; // M(T), kept from the generator's filter
};

// A long-lived base that receives a stream of small updates.
struct StreamBase {
  int n = 0;
  Cnf t;
  std::vector<Clause> updates;             // each over <= 3 letters
  std::vector<std::vector<Clause>> asks;   // per update
  std::vector<std::vector<Mask>> probes;   // per update
  std::vector<Mask> t_models;
};

struct Table1Shape {
  std::vector<int> n_cycle;  // instance i has n = n_cycle[i % size]
  double t_clauses_per_letter = 0;
  double p_clauses_per_letter = 0;
  int min_p_letters = 0;  // |V(P)| = max(n - 1, min_p_letters)
  int asks = 0;
  int probes = 0;
};

std::vector<Table1Instance> MakeTable1(const Table1Shape& shape,
                                       int instances, uint64_t seed);

struct StreamShape {
  std::vector<int> n_cycle;
  std::vector<RefOp> op_cycle;  // the model-based operator of each base
  double target_models = 0;  // |M(T)| aimed at by the clause count
  int updates = 0;
  int asks = 0;
  int probes = 0;
};

std::vector<StreamBase> MakeStream(const StreamShape& shape, int bases,
                                   uint64_t seed);

// Writes `text` to `path`; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
