// Forward reachability over programs and fault classes.
#pragma once

#include "gc/program.hpp"
#include "verify/check_result.hpp"
#include "verify/state_set.hpp"

namespace dcft {

/// The set of states reachable from states satisfying `from` via actions of
/// `p` and, if non-null, of `f`. This is the smallest set containing `from`
/// that is closed in p and preserved by every action of f — for `from` = an
/// invariant S, it is the canonical F-span of p from S (Section 2.3).
///
/// Computed as the node set of a TransitionSystem explored from `from`
/// (the one successor engine; built directly, never cached). `n_threads`
/// bounds the exploration workers (0 = process default); the computed set
/// is identical for every thread count.
StateSet reachable_states(const Program& p, const FaultClass* f,
                          const Predicate& from, unsigned n_threads = 0);

/// Early-exit reachability obligation: fails iff some state satisfying
/// `bad` is reachable from `from` under p (and, if non-null, f). The
/// exploration registers `bad` as a stop predicate, so a violation
/// terminates the BFS at the first (canonically least node id, hence
/// deterministic) bad state with a replayable witness, instead of
/// materializing the full graph. When the process-wide ExplorationCache
/// already holds the complete graph of (p [, f], from) the verdict is a
/// scan of that graph — the same node, message, and witness either way.
CheckResult check_unreachable(const Program& p, const FaultClass* f,
                              const Predicate& from, const Predicate& bad,
                              unsigned n_threads = 0);

}  // namespace dcft
