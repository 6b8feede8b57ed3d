#include "reference.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>

namespace perfbench {
namespace {

// Elements of `sets` minimal (maximal) under inclusion, duplicates removed.
template <typename T>
std::vector<T> Extremal(std::vector<T> sets, bool minimal) {
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::stable_sort(sets.begin(), sets.end(), [&](T a, T b) {
    return minimal ? std::popcount(a) < std::popcount(b)
                   : std::popcount(a) > std::popcount(b);
  });
  std::vector<T> out;
  for (const T s : sets) {
    bool dominated = false;
    for (const T e : out) {
      // A distinct set found earlier is a proper subset (superset).
      if (minimal ? (e & ~s) == 0 : (s & ~e) == 0) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The same for masks over n letters, in one pass over all 2^n masks in
// increasing order (every proper subset of a mask comes before it):
// linear in 2^n instead of quadratic in the number of sets.
std::vector<Mask> MinimalMasks(const std::vector<Mask>& sets, int n) {
  const size_t universe = size_t{1} << n;
  std::vector<uint8_t> present(universe, 0);
  std::vector<uint8_t> covered(universe, 0);  // has a minimal subset
  for (const Mask s : sets) present[s] = 1;
  std::vector<Mask> out;
  for (Mask d = 0; d < universe; ++d) {
    bool below = false;
    for (Mask rest = d; rest != 0 && !below; rest &= rest - 1) {
      below = covered[d & ~(rest & -rest)] != 0;
    }
    if (present[d] != 0 && !below) out.push_back(d);
    covered[d] = below || (present[d] != 0) ? 1 : 0;
  }
  return out;
}

std::vector<Mask> Canonical(std::vector<Mask> models) {
  std::sort(models.begin(), models.end());
  models.erase(std::unique(models.begin(), models.end()), models.end());
  return models;
}

// Bit i set iff formula i of `t` holds in `a`.
uint64_t SatisfiedFormulas(const std::vector<Cnf>& t, Mask a) {
  uint64_t bits = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    if (Satisfies(t[i], a)) bits |= uint64_t{1} << i;
  }
  return bits;
}

}  // namespace

RefOp RefOpByName(std::string_view name) {
  static constexpr std::pair<std::string_view, RefOp> kNames[] = {
      {"GFUV", RefOp::kGfuv},         {"Nebel", RefOp::kNebel},
      {"WIDTIO", RefOp::kWidtio},     {"Winslett", RefOp::kWinslett},
      {"Borgida", RefOp::kBorgida},   {"Forbus", RefOp::kForbus},
      {"Satoh", RefOp::kSatoh},       {"Dalal", RefOp::kDalal},
      {"Weber", RefOp::kWeber},
  };
  for (const auto& [n, op] : kNames) {
    if (n == name) return op;
  }
  std::abort();
}

std::vector<Mask> ReviseModelBased(RefOp op, const std::vector<Mask>& mt,
                                   const Cnf& p, int n) {
  if (mt.empty()) return ModelsOf(p, n);
  const Mask vp = LettersOf(p);
  // The V(P)-parts that satisfy P.
  std::vector<Mask> parts;
  for (Mask s = vp;; s = (s - 1) & vp) {
    if (Satisfies(p, s)) parts.push_back(s);
    if (s == 0) break;
  }
  if (parts.empty()) return {};
  auto diff = [&](Mask i, Mask s) { return (i & vp) ^ s; };
  auto candidate = [&](Mask i, Mask s) { return (i & ~vp) | s; };

  std::vector<Mask> out;
  switch (op) {
    case RefOp::kBorgida: {
      std::vector<Mask> both;
      for (const Mask i : mt) {
        if (Satisfies(p, i)) both.push_back(i);
      }
      if (!both.empty()) return both;
      [[fallthrough]];
    }
    case RefOp::kWinslett:
      for (const Mask i : mt) {
        std::vector<Mask> diffs;
        for (const Mask s : parts) diffs.push_back(diff(i, s));
        const std::vector<Mask> mins = Extremal(std::move(diffs), true);
        for (const Mask d : mins) out.push_back(candidate(i, d ^ (i & vp)));
      }
      break;
    case RefOp::kForbus:
      for (const Mask i : mt) {
        int best = 64;
        for (const Mask s : parts) {
          best = std::min(best, std::popcount(diff(i, s)));
        }
        for (const Mask s : parts) {
          if (std::popcount(diff(i, s)) == best) out.push_back(candidate(i, s));
        }
      }
      break;
    case RefOp::kDalal: {
      int best = 64;
      for (const Mask i : mt) {
        for (const Mask s : parts) {
          best = std::min(best, std::popcount(diff(i, s)));
        }
      }
      for (const Mask i : mt) {
        for (const Mask s : parts) {
          if (std::popcount(diff(i, s)) == best) out.push_back(candidate(i, s));
        }
      }
      break;
    }
    case RefOp::kSatoh:
    case RefOp::kWeber: {
      std::vector<Mask> diffs;
      for (const Mask i : mt) {
        for (const Mask s : parts) diffs.push_back(diff(i, s));
      }
      const std::vector<Mask> delta = MinimalMasks(diffs, n);
      Mask omega = 0;
      for (const Mask d : delta) omega |= d;
      for (const Mask i : mt) {
        for (const Mask s : parts) {
          const Mask d = diff(i, s);
          const bool selected =
              op == RefOp::kSatoh
                  ? std::binary_search(delta.begin(), delta.end(), d)
                  : (d & ~omega) == 0;
          if (selected) out.push_back(candidate(i, s));
        }
      }
      break;
    }
    default:
      std::abort();
  }
  return Canonical(std::move(out));
}

std::vector<Mask> ReviseFormulaBased(RefOp op, const std::vector<Cnf>& t,
                                     const Cnf& p, int n) {
  const std::vector<Mask> mp = ModelsOf(p, n);
  std::vector<uint64_t> sat;
  for (const Mask j : mp) sat.push_back(SatisfiedFormulas(t, j));
  // Maximal P-consistent subsets of T are the maximal sat(J), J |= P.
  const std::vector<uint64_t> worlds = Extremal(sat, false);
  std::vector<Mask> out;
  switch (op) {
    case RefOp::kGfuv:
      for (size_t k = 0; k < mp.size(); ++k) {
        if (std::binary_search(worlds.begin(), worlds.end(), sat[k])) {
          out.push_back(mp[k]);
        }
      }
      break;
    case RefOp::kWidtio:
    case RefOp::kNebel: {
      uint64_t kept = 0;
      if (op == RefOp::kWidtio) {
        kept = ~uint64_t{0};
        for (const uint64_t w : worlds) kept &= w;
      } else {
        // Linear priorities: take formula i whenever it stays consistent
        // with P and the formulas already taken.
        for (size_t i = 0; i < t.size(); ++i) {
          const uint64_t want = kept | uint64_t{1} << i;
          for (const uint64_t w : worlds) {
            if ((want & ~w) == 0) {
              kept = want;
              break;
            }
          }
        }
      }
      for (size_t k = 0; k < mp.size(); ++k) {
        if ((kept & ~sat[k]) == 0) out.push_back(mp[k]);
      }
      break;
    }
    default:
      std::abort();
  }
  return out;
}

std::vector<Cnf> WidtioTheoryRef(const std::vector<Cnf>& t, const Cnf& p,
                                 int n) {
  std::vector<uint64_t> sat;
  for (const Mask j : ModelsOf(p, n)) sat.push_back(SatisfiedFormulas(t, j));
  uint64_t kept = ~uint64_t{0};
  for (const uint64_t w : Extremal(std::move(sat), false)) kept &= w;
  std::vector<Cnf> out;
  for (size_t i = 0; i < t.size(); ++i) {
    if (((kept >> i) & 1) != 0) out.push_back(t[i]);
  }
  out.push_back(p);
  return out;
}

bool EntailsClause(const std::vector<Mask>& models, const Clause& q) {
  for (const Mask m : models) {
    if (!q.SatisfiedBy(m)) return false;
  }
  return true;
}

bool IsSubset(const std::vector<Mask>& sub, const std::vector<Mask>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace perfbench
