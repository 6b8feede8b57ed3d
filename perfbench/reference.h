// The benchmark's own statement of the nine operators' definitions
// (Section 2.2 of the paper) over explicit model sets of bit masks.  It
// shares no code with the library: it sees only the generator's clauses.
//
// The model-based operators are evaluated over "candidates": for each
// I in M(T), the assignments J that agree with I outside V(P).  No other
// J can be selected by any of the six operators: resetting J's letters
// outside V(P) to I's keeps J a model of P and strictly shrinks I Δ J,
// so such a J is never minimal in cardinality or under inclusion (and
// Weber's Ω, a union of minimal differences, lies within V(P)).  When
// V(P) covers every letter this is the plain pairwise definition.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <string_view>
#include <vector>

#include "instances.h"

namespace perfbench {

// Maps a library operator name ("Dalal", "WIDTIO", ...) to its reference.
RefOp RefOpByName(std::string_view name);

// T * P for a model-based operator.  `mt` is M(T) over n letters; the
// result is ascending.
std::vector<Mask> ReviseModelBased(RefOp op, const std::vector<Mask>& mt,
                                   const Cnf& p, int n);

// T * P for the formula-based operators; T is the list of its formulas
// (clauses, in file order; Nebel gives formula 0 the highest priority).
std::vector<Mask> ReviseFormulaBased(RefOp op, const std::vector<Cnf>& t,
                                     const Cnf& p, int n);

// WIDTIO as a theory: the formulas of T kept in every maximal
// P-consistent subset, followed by P.
std::vector<Cnf> WidtioTheoryRef(const std::vector<Cnf>& t, const Cnf& p,
                                 int n);

// Does every model satisfy the clause (vacuously true on no models)?
bool EntailsClause(const std::vector<Mask>& models, const Clause& q);

// Is `sub` a subset of `super` (both ascending)?
bool IsSubset(const std::vector<Mask>& sub, const std::vector<Mask>& super);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
