#include "verify/masking_distance.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/state_set.hpp"

namespace dcft {
namespace {

constexpr NodeId kUnvisited = TransitionSystem::kNoNode;

/// Min-fault BFS tree: how each node was first reached at its minimal
/// fault layer. Distinct from the exploration's own parent_ array, which
/// minimizes *steps*, not fault steps.
struct GameTree {
    std::vector<std::uint32_t> dist;   ///< fault layer of each node
    std::vector<NodeId> parent;        ///< parent[n] == n at the roots
    std::vector<std::uint32_t> action; ///< acting action index at n
    std::vector<std::uint8_t> fault;   ///< the acting action was a fault
    std::uint64_t layers = 0;
    std::uint64_t visited = 0;
};

/// Layered 0-1 BFS over the recorded CSR edges: close layer k under
/// program edges (verifier moves, weight 0), then expand fault edges
/// (refuter moves, weight 1) to seed layer k+1. Serial and in canonical
/// node-id/edge order, so the tree is independent of how the graph was
/// explored.
GameTree solve_layers(const TransitionSystem& ts) {
    const std::size_t n_nodes = ts.num_nodes();
    GameTree tree;
    tree.dist.assign(n_nodes, kUnvisited);
    tree.parent.assign(n_nodes, kUnvisited);
    tree.action.assign(n_nodes, 0);
    tree.fault.assign(n_nodes, 0);

    std::vector<NodeId> seeds = ts.initial_nodes();
    for (const NodeId r : seeds) {
        tree.dist[r] = 0;
        tree.parent[r] = r;
    }
    std::uint32_t layer = 0;
    std::vector<NodeId> queue;
    while (!seeds.empty()) {
        // Verifier half-moves: program closure of the layer.
        queue = std::move(seeds);
        seeds.clear();
        std::size_t head = 0;
        while (head < queue.size()) {
            const NodeId u = queue[head++];
            for (const auto& e : ts.program_edges(u)) {
                if (tree.dist[e.to] != kUnvisited) continue;
                tree.dist[e.to] = layer;
                tree.parent[e.to] = u;
                tree.action[e.to] = e.action;
                tree.fault[e.to] = 0;
                queue.push_back(e.to);
            }
        }
        tree.visited += queue.size();
        // Refuter half-moves: one fault each, seeding the next layer.
        for (const NodeId u : queue) {
            for (const auto& e : ts.fault_edges(u)) {
                if (tree.dist[e.to] != kUnvisited) continue;
                tree.dist[e.to] = layer + 1;
                tree.parent[e.to] = u;
                tree.action[e.to] = e.action;
                tree.fault[e.to] = 1;
                seeds.push_back(e.to);
            }
        }
        ++layer;
    }
    tree.layers = layer;
    return tree;
}

/// The min-fault path to `n` as a replayable trace (root first).
std::vector<WitnessStep> game_trace(const TransitionSystem& ts,
                                    const GameTree& tree, NodeId n) {
    std::vector<NodeId> chain;
    for (NodeId cur = n;;) {
        chain.push_back(cur);
        if (tree.parent[cur] == cur) break;
        cur = tree.parent[cur];
    }
    std::vector<WitnessStep> out;
    out.reserve(chain.size());
    for (std::size_t i = chain.size(); i-- > 0;) {
        const NodeId v = chain[i];
        WitnessStep step;
        step.state = ts.state_of(v);
        step.state_repr = ts.space().format(step.state);
        if (i + 1 < chain.size()) {
            step.fault = tree.fault[v] != 0;
            step.action = step.fault
                              ? ts.fault_action_name(tree.action[v])
                              : ts.program().action(tree.action[v]).name();
        }
        out.push_back(std::move(step));
    }
    return out;
}

}  // namespace

std::uint64_t MaskingDistanceResult::witness_faults() const {
    std::uint64_t faults = 0;
    for (const WitnessStep& step : witness)
        if (step.fault) ++faults;
    return faults;
}

MaskingDistanceResult masking_distance_on(const TransitionSystem& ts,
                                          const SafetySpec& safety) {
    const obs::Span span("verify/masking_distance");
    obs::count("verify/masking_distance_queries");
    DCFT_EXPECTS(ts.complete(),
                 "masking_distance_on requires a complete exploration");
    const StateSpace& space = ts.space();
    const GameTree tree = solve_layers(ts);

    MaskingDistanceResult result;
    result.game_nodes = tree.visited;
    result.game_layers = tree.layers;

    // Best violation: smallest fault count, ties broken by the fixed scan
    // order (node id, then bad state before program edges before fault
    // edges) — deterministic regardless of exploration threads.
    std::uint32_t best = kUnvisited;
    NodeId best_node = TransitionSystem::kNoNode;
    // The violating step itself when the violation is a transition;
    // kNoStep means the violation is the node's own state.
    static constexpr std::uint32_t kNoStep = ~std::uint32_t{0};
    std::uint32_t best_edge_action = kNoStep;
    NodeId best_edge_to = TransitionSystem::kNoNode;
    bool best_edge_fault = false;

    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        DCFT_ASSERT(tree.dist[n] != kUnvisited,
                    "masking_distance: node outside the game");
        const std::uint32_t k = tree.dist[n];
        if (k >= best) continue;
        const StateIndex s = ts.state_of(n);
        if (!safety.state_allowed(space, s)) {
            best = k;
            best_node = n;
            best_edge_action = kNoStep;
            continue;
        }
        bool found = false;
        for (const auto& e : ts.program_edges(n)) {
            if (!safety.transition_allowed(space, s, ts.state_of(e.to))) {
                best = k;
                best_node = n;
                best_edge_action = e.action;
                best_edge_to = e.to;
                best_edge_fault = false;
                found = true;
                break;
            }
        }
        if (found || k + 1 >= best) continue;
        for (const auto& e : ts.fault_edges(n)) {
            if (!safety.transition_allowed(space, s, ts.state_of(e.to))) {
                best = k + 1;
                best_node = n;
                best_edge_action = e.action;
                best_edge_to = e.to;
                best_edge_fault = true;
                break;
            }
        }
    }

    if (best == kUnvisited) {
        result.masking = true;
        result.reason = "masking: safety of " + safety.name() +
                        " holds over the whole fault span (distance = inf)";
        return result;
    }

    result.masking = false;
    result.distance = best;
    result.witness = game_trace(ts, tree, best_node);
    std::string what;
    if (best_edge_action == kNoStep) {
        what = "state " + space.format(ts.state_of(best_node)) +
               " is excluded by " + safety.name();
    } else {
        WitnessStep step;
        step.state = ts.state_of(best_edge_to);
        step.state_repr = space.format(step.state);
        step.fault = best_edge_fault;
        step.action = best_edge_fault
                          ? ts.fault_action_name(best_edge_action)
                          : ts.program().action(best_edge_action).name();
        what = "transition " + space.format(ts.state_of(best_node)) +
               " -> " + step.state_repr + " (action '" + step.action +
               "') is excluded by " + safety.name();
        result.witness.push_back(std::move(step));
    }
    result.reason = "masking distance " + std::to_string(best) + ": " +
                    what + " after " + std::to_string(best) +
                    " fault step" + (best == 1 ? "" : "s");
    DCFT_ASSERT(result.witness_faults() == result.distance,
                "masking_distance: witness fault count != distance");
    return result;
}

MaskingDistanceResult masking_distance(const Program& p, const FaultClass& f,
                                       const ProblemSpec& spec,
                                       const Predicate& invariant) {
    // Materialize the invariant exactly as check_tolerance does, so the
    // p [] F graph key matches and a preceding verify grid makes this a
    // pure cache hit.
    auto inv_states = std::make_shared<StateSet>(
        materialize_parallel(p.space(), invariant));
    const Predicate inv = predicate_of(inv_states, invariant.name());
    const auto ts = ExplorationCache::global().get_or_build(p, &f, inv);
    return masking_distance_on(*ts, spec.safety());
}

}  // namespace dcft
