// Invariant calculation (Section 2.2.1: "one way to calculate an invariant
// of p is to characterize the set of states reachable under execution of
// p ... one may prefer invariants that properly include such a reachable
// set").
//
// dcft offers both directions:
//   reachable_invariant   — the smallest closed set containing some
//                           initial states (forward closure, via
//                           reachable_states);
//   largest_safety_invariant — the *largest* set that is closed in p and
//                           from which no computation can ever violate the
//                           safety specification (greatest fixpoint:
//                           repeatedly remove states that are unsafe or
//                           have a successor outside the candidate set).
//
// Every invariant of p for the safety part of a specification is contained
// in the largest one — a property the test suite checks.
#pragma once

#include <memory>

#include "gc/program.hpp"
#include "spec/safety_spec.hpp"
#include "verify/state_set.hpp"

namespace dcft {

/// The smallest predicate containing `initial` that is closed in p.
Predicate reachable_invariant(const Program& p, const Predicate& initial);

/// The largest predicate S such that S is closed in p, every S-state is
/// allowed by `safety`, and every program transition from S is allowed.
/// May be empty (bottom) when no state can be made safe. Computed on the
/// whole-space TransitionSystem of p: the removal seed is read off the
/// recorded program edges, then propagated back over its predecessor CSR.
Predicate largest_safety_invariant(const Program& p,
                                   const SafetySpec& safety);

}  // namespace dcft
