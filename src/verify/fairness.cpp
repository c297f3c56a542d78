#include "verify/fairness.hpp"

#include <algorithm>
#include <deque>
#include <span>

#include "obs/telemetry.hpp"

namespace dcft {
namespace {

/// Iterative Tarjan SCC over the sub-graph of program edges whose endpoints
/// both satisfy `in_h`. Only a *cyclic* component — more than one node, or
/// one node with a program self-loop — can carry an infinite computation,
/// so only those are recorded: comp[v] is the (dense) id of v's cyclic
/// component, kNoComp for nodes outside H or in an acyclic singleton, and
/// the members of component c are members[begin[c], begin[c + 1]), in one
/// flat array. Acyclic singletons, the bulk of the SCCs of a converging
/// graph, cost no allocation at all.
constexpr std::uint32_t kNoComp = ~std::uint32_t{0};

struct SccResult {
    std::vector<std::uint32_t> comp;
    std::vector<NodeId> members;
    std::vector<std::size_t> begin{0};

    std::uint32_t num_cyclic() const {
        return static_cast<std::uint32_t>(begin.size() - 1);
    }
    std::span<const NodeId> nodes(std::uint32_t c) const {
        return {members.data() + begin[c], members.data() + begin[c + 1]};
    }
};

SccResult tarjan_scc(const TransitionSystem& ts, const std::vector<char>& in_h) {
    const std::size_t n = ts.num_nodes();
    SccResult result;
    result.comp.assign(n, kNoComp);

    std::vector<std::uint32_t> index(n, kNoComp), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<NodeId> stack;
    std::uint32_t next_index = 0;

    struct Frame {
        NodeId node;
        std::size_t edge;
        bool self_loop;
    };
    std::vector<Frame> call;

    for (NodeId root = 0; root < n; ++root) {
        if (!in_h[root] || index[root] != kNoComp) continue;
        call.push_back(Frame{root, 0, false});
        index[root] = low[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!call.empty()) {
            Frame& f = call.back();
            const auto& edges = ts.program_edges(f.node);
            bool descended = false;
            while (f.edge < edges.size()) {
                const NodeId w = edges[f.edge].to;
                ++f.edge;
                if (!in_h[w]) continue;
                if (w == f.node) f.self_loop = true;
                if (index[w] == kNoComp) {
                    call.push_back(Frame{w, 0, false});
                    index[w] = low[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    descended = true;
                    break;
                }
                if (on_stack[w]) low[f.node] = std::min(low[f.node], index[w]);
            }
            if (descended) continue;
            // f.node finished.
            const NodeId v = f.node;
            const bool self_loop = f.self_loop;
            call.pop_back();
            if (!call.empty())
                low[call.back().node] = std::min(low[call.back().node], low[v]);
            if (low[v] != index[v]) continue;
            if (stack.back() == v && !self_loop) {
                // Acyclic singleton: no fair computation can stay in it.
                stack.pop_back();
                on_stack[v] = 0;
                continue;
            }
            const std::uint32_t c = result.num_cyclic();
            for (;;) {
                const NodeId w = stack.back();
                stack.pop_back();
                on_stack[w] = 0;
                result.comp[w] = c;
                result.members.push_back(w);
                if (w == v) break;
            }
            result.begin.push_back(result.members.size());
        }
    }
    return result;
}

}  // namespace

std::vector<char> eval_on_nodes(const TransitionSystem& ts,
                                const Predicate& p) {
    std::vector<char> out(ts.num_nodes());
    // Set-backed predicates answer with a bit probe per node instead of a
    // std::function call.
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == ts.space().num_states()) {
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            out[n] = bits->test(ts.state_of(n)) ? 1 : 0;
        return out;
    }
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        out[n] = p.eval(ts.space(), ts.state_of(n)) ? 1 : 0;
    return out;
}

std::vector<char> fair_avoidance_set(const TransitionSystem& ts,
                                     const std::vector<char>& target) {
    const std::size_t n = ts.num_nodes();
    std::vector<char> in_h(n);
    for (std::size_t i = 0; i < n; ++i) in_h[i] = target[i] ? 0 : 1;

    std::vector<char> avoid(n, 0);
    std::deque<NodeId> frontier;

    // Finite maximal computations: terminal !target nodes.
    for (NodeId v = 0; v < n; ++v) {
        if (in_h[v] && ts.terminal(v)) {
            avoid[v] = 1;
            frontier.push_back(v);
        }
    }

    // Infinite fair computations confined to !target: feasible cyclic SCCs.
    const SccResult scc = tarjan_scc(ts, in_h);
    const std::size_t num_actions = ts.num_program_actions();
    std::vector<char> has_internal(num_actions);
    for (std::uint32_t c = 0; c < scc.num_cyclic(); ++c) {
        const std::span<const NodeId> nodes = scc.nodes(c);
        // Actions with an edge inside the component (only H nodes carry a
        // component id, so comp alone decides membership).
        std::fill(has_internal.begin(), has_internal.end(), 0);
        for (NodeId v : nodes)
            for (const auto& e : ts.program_edges(v))
                if (scc.comp[e.to] == c) has_internal[e.action] = 1;
        bool feasible = true;
        for (std::uint32_t a = 0; a < num_actions && feasible; ++a) {
            if (has_internal[a]) continue;
            bool enabled_everywhere = true;
            for (NodeId v : nodes) {
                if (!ts.enabled(v, a)) {
                    enabled_everywhere = false;
                    break;
                }
            }
            if (enabled_everywhere) feasible = false;
        }
        if (feasible) {
            for (NodeId v : nodes) {
                if (!avoid[v]) {
                    avoid[v] = 1;
                    frontier.push_back(v);
                }
            }
        }
    }

    // Backward closure within !target over program edges: a node that can
    // reach an avoidance node without touching target also avoids. Only
    // touch the (lazily built) predecessor cache when there is anything to
    // close over — in passing checks the avoidance seed is empty and the
    // cache is never materialized.
    if (!frontier.empty()) {
        const auto& preds = ts.predecessors(/*include_faults=*/false);
        while (!frontier.empty()) {
            const NodeId v = frontier.front();
            frontier.pop_front();
            for (NodeId u : preds[v]) {
                if (in_h[u] && !avoid[u]) {
                    avoid[u] = 1;
                    frontier.push_back(u);
                }
            }
        }
    }
    return avoid;
}

CheckResult check_leads_to(const TransitionSystem& ts, const Predicate& p,
                           const Predicate& q, bool include_fault_edges) {
    const obs::Span span("verify/liveness");
    obs::count("verify/obligations/liveness");
    const std::vector<char> target = eval_on_nodes(ts, q);
    std::vector<char> bad = fair_avoidance_set(ts, target);

    if (include_fault_edges) {
        // A violating computation may also use finitely many fault steps
        // inside !q before its program-only suffix; extend backwards over
        // program + fault edges within !q. Skipped entirely (no predecessor
        // cache build) when there is nothing to extend.
        std::deque<NodeId> frontier;
        for (NodeId v = 0; v < ts.num_nodes(); ++v)
            if (bad[v]) frontier.push_back(v);
        if (!frontier.empty()) {
            const auto& preds = ts.predecessors(/*include_faults=*/true);
            while (!frontier.empty()) {
                const NodeId v = frontier.front();
                frontier.pop_front();
                for (NodeId u : preds[v]) {
                    if (!target[u] && !bad[u]) {
                        bad[u] = 1;
                        frontier.push_back(u);
                    }
                }
            }
        }
    }

    for (NodeId v = 0; v < ts.num_nodes(); ++v) {
        if (!target[v] && bad[v] && p.eval(ts.space(), ts.state_of(v))) {
            return CheckResult::failure(
                "leads-to violated: " + p.name() + " ~~> " + q.name() +
                    " fails from state " +
                    ts.space().format(ts.state_of(v)) +
                    (ts.terminal(v) ? " (maximal/terminal state)"
                                    : " (fair computation avoids target)") +
                    "; reached via: " + ts.format_witness(v),
                ts.witness_trace(v));
        }
    }
    return CheckResult::success();
}

CheckResult check_reaches(const TransitionSystem& ts, const Predicate& target,
                          bool include_fault_edges) {
    return check_leads_to(ts, Predicate::top(), target, include_fault_edges);
}

}  // namespace dcft
