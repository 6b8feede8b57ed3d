#include "instances.h"

#include "reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// Expected model count of a random 3-CNF: each clause keeps 7/8.
double ExpectedModels(int letters, int clauses) {
  return std::ldexp(std::pow(7.0 / 8.0, clauses), letters);
}

// The i-th set bit of `letters`.
int NthLetter(Mask letters, uint32_t i) {
  for (int v = 0; v < 32; ++v) {
    if (((letters >> v) & 1) != 0 && i-- == 0) return v;
  }
  return -1;
}

Clause RandomClause(Mask letters, int width, Rng* rng) {
  const uint32_t count = static_cast<uint32_t>(std::popcount(letters));
  Clause c;
  while (std::popcount(c.Letters()) < width) {
    const Mask bit = Mask{1} << NthLetter(letters, rng->Below(count));
    if ((c.Letters() & bit) != 0) continue;
    if ((rng->Next() & 1) != 0) {
      c.pos |= bit;
    } else {
      c.neg |= bit;
    }
  }
  return c;
}

Cnf RandomCnf(Mask letters, int clauses, Rng* rng) {
  Cnf cnf;
  for (int i = 0; i < clauses; ++i) {
    cnf.push_back(RandomClause(letters, 3, rng));
  }
  return cnf;
}

Mask AllLetters(int n) { return n >= 32 ? ~Mask{0} : (Mask{1} << n) - 1; }

// Bit a of the result is set iff assignment a (over n letters) satisfies
// `cnf`, evaluated 64 assignments per word.
std::vector<uint64_t> TruthTable(const Cnf& cnf, int n) {
  // Letter v < 6 alternates within a word; letter v >= 6 is constant over
  // a word and set by bit v - 6 of the word index.
  static constexpr uint64_t kLow[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const size_t words = n <= 6 ? 1 : size_t{1} << (n - 6);
  const uint64_t tail =
      n >= 6 ? ~uint64_t{0} : (uint64_t{1} << (uint64_t{1} << n)) - 1;
  std::vector<uint64_t> table(words);
  for (size_t w = 0; w < words; ++w) {
    uint64_t acc = tail;
    for (const Clause& c : cnf) {
      uint64_t sat = 0;
      for (Mask rest = c.Letters(); rest != 0; rest &= rest - 1) {
        const int v = std::countr_zero(rest);
        const uint64_t pattern =
            v < 6 ? kLow[v] : (((w >> (v - 6)) & 1) != 0 ? ~uint64_t{0} : 0);
        sat |= ((c.pos >> v) & 1) != 0 ? pattern : ~pattern;
      }
      acc &= sat;
      if (acc == 0) break;
    }
    table[w] = acc;
  }
  return table;
}

size_t CountModels(const Cnf& cnf, int n) {
  size_t count = 0;
  for (const uint64_t w : TruthTable(cnf, n)) count += std::popcount(w);
  return count;
}

// Every input is the best of a fixed number of valid random draws: the
// one whose model counts are closest to their targets (`error`).  The
// cost of every operator grows with the model counts, which vary by tens
// of percent between plain random draws; a fixed number of draws, rather
// than rejection until a band is hit, keeps the generator's work, and so
// the set-up time, the same from seed to seed.  `draw` returns false for
// an invalid draw, which does not count.
constexpr int kDraws = 16;

template <typename Draw, typename Error>
Cnf BestDraw(Draw draw, Error error_of) {
  Cnf best;
  double best_error = 0;
  for (int valid = 0; valid < kDraws;) {
    Cnf cnf;
    if (!draw(&cnf)) continue;
    const double error = error_of(cnf);
    if (valid++ == 0 || error < best_error) {
      best = std::move(cnf);
      best_error = error;
    }
  }
  return best;
}

double RelativeError(double value, double target) {
  return std::abs(value / target - 1);
}

size_t CountSatisfying(const Cnf& cnf, const std::vector<Mask>& models) {
  size_t count = 0;
  for (const Mask m : models) count += Satisfies(cnf, m) ? 1 : 0;
  return count;
}

// A 3-CNF over `letters` built clause by clause, each the best of 32
// random clauses at falsifying the models of T that no earlier clause
// falsified; the result is inconsistent with T unless some survive.
Cnf ExcludingCnf(Mask letters, int clauses, std::vector<Mask> remaining,
                 Rng* rng) {
  Cnf p;
  for (int i = 0; i < clauses; ++i) {
    Clause best;
    size_t best_kills = 0;
    for (int k = 0; k < (remaining.empty() ? 1 : 32); ++k) {
      const Clause c = RandomClause(letters, 3, rng);
      size_t kills = 0;
      for (const Mask m : remaining) kills += c.SatisfiedBy(m) ? 0 : 1;
      if (k == 0 || kills > best_kills) {
        best = c;
        best_kills = kills;
      }
    }
    std::erase_if(remaining, [&](Mask m) { return !best.SatisfiedBy(m); });
    p.push_back(best);
  }
  return p;
}

// The letters of P: all n, or all but the one whose omission leaves the
// projection of M(T) onto V(P) closest to 7/8 of |M(T)|.  The candidate
// route evaluates P once per distinct projection, so a random choice
// would let its cost vary by up to 2x with the letter left out.
Mask PLetters(int n, int p_letters, const std::vector<Mask>& t_models) {
  if (p_letters >= n) return AllLetters(n);
  Mask best = 0;
  double best_error = 0;
  for (int x = 0; x < n; ++x) {
    const Mask letters = AllLetters(n) & ~(Mask{1} << x);
    std::vector<Mask> projection;
    for (const Mask m : t_models) projection.push_back(m & letters);
    std::sort(projection.begin(), projection.end());
    const double distinct = static_cast<double>(
        std::unique(projection.begin(), projection.end()) -
        projection.begin());
    const double error = std::abs(
        distinct / static_cast<double>(t_models.size()) - 0.875);
    if (x == 0 || error < best_error) {
      best = letters;
      best_error = error;
    }
  }
  return best;
}

Cnf MakeTheory(int n, int clauses, Rng* rng) {
  const double expected = ExpectedModels(n, clauses);
  return BestDraw(
      [&](Cnf* t) {
        *t = RandomCnf(AllLetters(n), clauses, rng);
        return LettersOf(*t) == AllLetters(n);
      },
      [&](const Cnf& t) {
        return RelativeError(static_cast<double>(CountModels(t, n)),
                             expected);
      });
}

std::vector<Clause> RandomQueries(int n, int count, Rng* rng) {
  std::vector<Clause> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(RandomClause(AllLetters(n), i % 2 == 0 ? 3 : 2, rng));
  }
  return out;
}

// Half the probes are drawn from `likely` (candidate models of the
// revised base), half are arbitrary assignments.
std::vector<Mask> RandomProbes(int n, int count,
                               const std::vector<Mask>& likely, Rng* rng) {
  std::vector<Mask> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(i % 2 == 0
                      ? likely[rng->Below(static_cast<uint32_t>(likely.size()))]
                      : static_cast<Mask>(rng->Next()) & AllLetters(n));
  }
  return out;
}

}  // namespace

bool Satisfies(const Cnf& cnf, Mask a) {
  for (const Clause& c : cnf) {
    if (!c.SatisfiedBy(a)) return false;
  }
  return true;
}

Mask LettersOf(const Cnf& cnf) {
  Mask letters = 0;
  for (const Clause& c : cnf) letters |= c.Letters();
  return letters;
}

std::vector<Mask> ModelsOf(const Cnf& cnf, int n) {
  const std::vector<uint64_t> table = TruthTable(cnf, n);
  std::vector<Mask> models;
  for (size_t w = 0; w < table.size(); ++w) {
    for (uint64_t bits = table[w]; bits != 0; bits &= bits - 1) {
      models.push_back(static_cast<Mask>(w * 64 + std::countr_zero(bits)));
    }
  }
  return models;
}

std::string ClauseText(const Clause& c) {
  std::string out = "(";
  for (int v = 0; v < 32; ++v) {
    const Mask bit = Mask{1} << v;
    if ((c.Letters() & bit) == 0) continue;
    if (out.size() > 1) out += " | ";
    if ((c.neg & bit) != 0) out += "!";
    out += "x" + std::to_string(v);
  }
  return out + ")";
}

std::string CnfText(const Cnf& cnf) {
  std::string out;
  for (const Clause& c : cnf) {
    if (!out.empty()) out += " & ";
    out += ClauseText(c);
  }
  return out;
}

std::vector<Table1Instance> MakeTable1(const Table1Shape& shape,
                                       int instances, uint64_t seed) {
  Rng rng(seed);
  std::vector<Table1Instance> out;
  for (int i = 0; i < instances; ++i) {
    Table1Instance inst;
    inst.n = shape.n_cycle[i % shape.n_cycle.size()];
    inst.consistent = i % 4 != 3;
    const int n = inst.n;
    inst.t = MakeTheory(
        n, static_cast<int>(std::lround(shape.t_clauses_per_letter * n)),
        &rng);
    inst.t_models = ModelsOf(inst.t, n);
    const int p_letters = std::max(n - 1, shape.min_p_letters);
    const int p_clauses =
        static_cast<int>(std::lround(shape.p_clauses_per_letter * n));
    // T ∧ P is consistent for three instances in four.  Inconsistent
    // instances give Winslett, Forbus, Borgida, WIDTIO and Weber large
    // results, and so slow queries; at one in four the median query stays
    // clear of the boundary between fast and slow ones.  A random P of
    // this density almost never contradicts T, so an inconsistent P is
    // built to.  A consistent P also aims at the expected |M(T ∧ P)|,
    // the size of most consistent results and so of most queries' work.
    const Mask letters = PLetters(n, p_letters, inst.t_models);
    const double expected_p = ExpectedModels(n, p_clauses);
    const double expected_both = std::max(
        1.0, std::round(static_cast<double>(inst.t_models.size()) *
                        expected_p / std::ldexp(1.0, n)));
    inst.p = BestDraw(
        [&](Cnf* p) {
          *p = inst.consistent
                   ? RandomCnf(letters, p_clauses, &rng)
                   : ExcludingCnf(letters, p_clauses, inst.t_models, &rng);
          return LettersOf(*p) == letters &&
                 (CountSatisfying(*p, inst.t_models) > 0) ==
                     inst.consistent &&
                 CountModels(*p, n) > 0;
        },
        [&](const Cnf& p) {
          const double error = RelativeError(
              static_cast<double>(CountModels(p, n)), expected_p);
          return inst.consistent
                     ? error + RelativeError(static_cast<double>(
                                                 CountSatisfying(
                                                     p, inst.t_models)),
                                             expected_both)
                     : error;
        });
    inst.asks = RandomQueries(n, shape.asks, &rng);
    inst.probes = RandomProbes(n, shape.probes, inst.t_models, &rng);
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<StreamBase> MakeStream(const StreamShape& shape, int bases,
                                   uint64_t seed) {
  Rng rng(seed ^ 0x5eedba5e5ULL);
  std::vector<StreamBase> out;
  for (int b = 0; b < bases; ++b) {
    StreamBase base;
    base.n = shape.n_cycle[b % shape.n_cycle.size()];
    const int n = base.n;
    const int clauses = static_cast<int>(std::lround(
        std::log(shape.target_models / std::ldexp(1.0, n)) /
        std::log(7.0 / 8.0)));
    base.t = MakeTheory(n, clauses, &rng);
    base.t_models = ModelsOf(base.t, n);
    // Each update keeps close to its expected share 1 - 2^-width of the
    // models of T ∧ P1 ∧ ... (the trajectory the revision operators and
    // WIDTIO follow while the updates stay consistent), so that the model
    // counts along the stream, and with them its costs, repeat across
    // seeds.  The closest of 64 draws is taken.  Winslett and Forbus move
    // models instead of dropping them; for them the 8 closest draws are
    // also judged by how near they keep the operator's own model count.
    const RefOp op = shape.op_cycle[b % shape.op_cycle.size()];
    const bool pointwise = op == RefOp::kWinslett || op == RefOp::kForbus;
    std::vector<Mask> current = base.t_models;
    std::vector<Mask> own = base.t_models;
    static constexpr int kWidths[] = {3, 3, 2};
    for (int u = 0; u < shape.updates; ++u) {
      const int width = kWidths[u % 3];
      const double wanted = 1 - std::ldexp(1.0, -width);
      std::vector<std::pair<double, Clause>> draws;
      for (int attempt = 0; attempt < 64; ++attempt) {
        const Clause c = RandomClause(AllLetters(n), width, &rng);
        size_t kept = 0;
        for (const Mask m : current) kept += c.SatisfiedBy(m) ? 1 : 0;
        draws.emplace_back(std::abs(static_cast<double>(kept) /
                                        static_cast<double>(current.size()) -
                                    wanted),
                           c);
      }
      std::stable_sort(draws.begin(), draws.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      Clause best = draws[0].second;
      if (pointwise) {
        double best_error = 0;
        for (int k = 0; k < 8; ++k) {
          const double ratio =
              static_cast<double>(
                  ReviseModelBased(op, own, {draws[k].second}, n).size()) /
              static_cast<double>(own.size());
          const double error = draws[k].first + std::abs(ratio - 1);
          if (k == 0 || error < best_error) {
            best = draws[k].second;
            best_error = error;
          }
        }
        own = ReviseModelBased(op, own, {best}, n);
      }
      std::erase_if(current, [&](Mask m) { return !best.SatisfiedBy(m); });
      base.updates.push_back(best);
      base.asks.push_back(RandomQueries(n, shape.asks, &rng));
      base.probes.push_back(RandomProbes(n, shape.probes, current, &rng));
    }
    out.push_back(std::move(base));
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
