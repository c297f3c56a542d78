#include "gc/predicate.hpp"

#include <mutex>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

struct Predicate::Impl {
    Impl(std::string name_, Fn fn_, std::shared_ptr<const BitVec> bits_,
         NodeKind kind_)
        : name(std::move(name_)),
          fn(std::move(fn_)),
          bits(std::move(bits_)),
          kind(kind_) {}

    std::string name;
    Fn fn;
    /// Non-null iff the predicate is set-backed; then for every valid s,
    /// fn(space, s) == bits->test(s).
    std::shared_ptr<const BitVec> bits;
    /// Structural metadata (see Predicate::NodeKind). `fn` remains the
    /// semantic source of truth; structure is a compilation hint only.
    NodeKind kind = NodeKind::kOpaque;
    VarId var = 0;
    VarId var2 = 0;
    Value value = 0;
    std::vector<Predicate> kids;

    /// Truth table of the last whole-space scan (eval_bits), keyed by
    /// StateSpace::uid() — process-unique and never reused, so a memo can
    /// never answer for a different space that happens to share an address
    /// or a shape. Embedded (no allocation until the first scan) and only
    /// ever touched by eval_bits under `memo_mu`; eval() never looks here.
    mutable std::mutex memo_mu;
    mutable std::uint64_t memo_uid = 0;  ///< 0: nothing memoized (uids start at 1)
    mutable BitVec memo_bits;
};

namespace {

/// Evaluation function of a set-backed predicate.
Predicate::Fn bits_fn(std::shared_ptr<const BitVec> bits) {
    return [bits = std::move(bits)](const StateSpace&, StateIndex s) {
        DCFT_EXPECTS(s < bits->size_bits(),
                     "set-backed Predicate: state out of range");
        return bits->test(s);
    };
}

/// Both operands set-backed over the same universe? Then word-level
/// composition applies.
const BitVec* backed_pair(const Predicate& a, const Predicate& b) {
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == bb->size_bits()) return ba.get();
    return nullptr;
}

}  // namespace

Predicate::Predicate()
    : impl_(std::make_shared<Impl>(
          "true", [](const StateSpace&, StateIndex) { return true; }, nullptr,
          NodeKind::kTrue)) {}

Predicate::Predicate(std::string name, Fn fn) {
    DCFT_EXPECTS(fn != nullptr, "Predicate requires an evaluation function");
    impl_ = std::make_shared<Impl>(std::move(name), std::move(fn), nullptr,
                                   NodeKind::kOpaque);
}

Predicate Predicate::from_bits(std::string name,
                               std::shared_ptr<const BitVec> bits) {
    DCFT_EXPECTS(bits != nullptr, "Predicate::from_bits requires bits");
    Predicate out;
    out.impl_ = std::make_shared<Impl>(std::move(name), bits_fn(bits),
                                       std::move(bits), NodeKind::kBacked);
    return out;
}

Predicate Predicate::top() { return Predicate(); }

Predicate Predicate::bottom() {
    Predicate out("false",
                  [](const StateSpace&, StateIndex) { return false; });
    const_cast<Impl*>(out.impl_.get())->kind = NodeKind::kFalse;
    return out;
}

Predicate Predicate::var_eq(const StateSpace& space, std::string_view var,
                            Value value) {
    return var_eq(space, space.find(var), value);
}

Predicate Predicate::var_ne(const StateSpace& space, std::string_view var,
                            Value value) {
    return var_ne(space, space.find(var), value);
}

Predicate Predicate::var_eq(const StateSpace& space, VarId var, Value value) {
    DCFT_EXPECTS(value >= 0 && value < space.variable(var).domain_size,
                 "var_eq: value out of domain");
    Predicate out(space.variable(var).name + "==" + std::to_string(value),
                  [var, value](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, var) == value;
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarEqConst;
    impl->var = var;
    impl->value = value;
    return out;
}

Predicate Predicate::var_ne(const StateSpace& space, VarId var, Value value) {
    DCFT_EXPECTS(value >= 0 && value < space.variable(var).domain_size,
                 "var_ne: value out of domain");
    Predicate out(space.variable(var).name + "!=" + std::to_string(value),
                  [var, value](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, var) != value;
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarNeConst;
    impl->var = var;
    impl->value = value;
    return out;
}

Predicate Predicate::vars_eq(const StateSpace& space, VarId a, VarId b) {
    DCFT_EXPECTS(a < space.num_vars() && b < space.num_vars(),
                 "vars_eq: variable out of range");
    Predicate out(space.variable(a).name + "==" + space.variable(b).name,
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, a) == sp.get(s, b);
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarEqVar;
    impl->var = a;
    impl->var2 = b;
    return out;
}

Predicate Predicate::vars_ne(const StateSpace& space, VarId a, VarId b) {
    DCFT_EXPECTS(a < space.num_vars() && b < space.num_vars(),
                 "vars_ne: variable out of range");
    Predicate out(space.variable(a).name + "!=" + space.variable(b).name,
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, a) != sp.get(s, b);
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarNeVar;
    impl->var = a;
    impl->var2 = b;
    return out;
}

bool Predicate::eval(const StateSpace& space, StateIndex s) const {
    return impl_->fn(space, s);
}

const std::string& Predicate::name() const { return impl_->name; }

const std::shared_ptr<const BitVec>& Predicate::backing_bits() const {
    return impl_->bits;
}

Predicate Predicate::renamed(std::string name) const {
    // A fresh Impl, so the copy starts with an empty memo.
    auto impl = std::make_shared<Impl>(std::move(name), impl_->fn,
                                       impl_->bits, impl_->kind);
    impl->var = impl_->var;
    impl->var2 = impl_->var2;
    impl->value = impl_->value;
    impl->kids = impl_->kids;
    Predicate out = *this;
    out.impl_ = std::move(impl);
    return out;
}

void Predicate::set_node(NodeKind kind, std::vector<Predicate> kids) {
    // Only ever called on a predicate just built inside this translation
    // unit, before it escapes: impl_ has a single owner, so mutating
    // through const_cast is safe.
    Impl* impl = const_cast<Impl*>(impl_.get());
    impl->kind = kind;
    impl->kids = std::move(kids);
}

Predicate::NodeKind Predicate::node_kind() const { return impl_->kind; }
VarId Predicate::node_var() const { return impl_->var; }
VarId Predicate::node_var2() const { return impl_->var2; }
Value Predicate::node_value() const { return impl_->value; }
std::span<const Predicate> Predicate::node_operands() const {
    return impl_->kids;
}

Predicate operator&&(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " && " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(*a.backing_bits());
        *bits &= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return a.eval(sp, s) && b.eval(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kAnd, {a, b});
    return out;
}

Predicate operator||(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " || " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(*a.backing_bits());
        *bits |= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return a.eval(sp, s) || b.eval(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kOr, {a, b});
    return out;
}

Predicate operator!(const Predicate& a) {
    std::string name = "!" + a.name();
    if (a.backing_bits() != nullptr) {
        auto bits = std::make_shared<BitVec>(a.backing_bits()->complemented());
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a](const StateSpace& sp, StateIndex s) {
                      return !a.eval(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kNot, {a});
    return out;
}

Predicate implies(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " => " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(a.backing_bits()->complemented());
        *bits |= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    return Predicate(std::move(name),
                     [a, b](const StateSpace& sp, StateIndex s) {
                         return !a.eval(sp, s) || b.eval(sp, s);
                     });
}

BitVec eval_bits(const StateSpace& space, const Predicate& p,
                 unsigned n_threads) {
    const StateIndex n = space.num_states();
    // Backed fast path: the answer already exists as words.
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == n) {
        obs::count("verify/predicate_eval/backed_hits");
        return *bits;
    }
    // Memo: the first scan over a space keeps its words; later calls (the
    // three grades of a grid, the game, warm daemon requests) copy them.
    // The lock is held across the scan so concurrent first calls run it
    // once; the workers below only call eval(), which never locks.
    const Predicate::Impl& impl = *p.impl_;
    const std::lock_guard<std::mutex> lock(impl.memo_mu);
    if (impl.memo_uid == space.uid()) {
        obs::count("verify/predicate_eval/memo_hits");
        return impl.memo_bits;
    }
    const obs::Span span("verify/predicate_eval");
    obs::count("verify/predicate_eval/bulk_scans");
    obs::count("verify/predicate_eval/states_scanned", n);
    BitVec out(n);
    const unsigned threads = resolve_verifier_threads(n_threads);
    // Chunks are aligned to 64 states so no two workers share a word.
    parallel_chunks(n, threads, BitVec::kWordBits,
                    [&](unsigned, std::uint64_t begin, std::uint64_t end) {
                        for (StateIndex s = begin; s < end; ++s)
                            if (p.eval(space, s)) out.set(s);
                    });
    impl.memo_bits = out;
    impl.memo_uid = space.uid();
    return out;
}

bool implies_everywhere(const StateSpace& space, const Predicate& a,
                        const Predicate& b) {
    const StateIndex n = space.num_states();
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == n && bb->size_bits() == n)
        return ba->is_subset_of(*bb);
    for (StateIndex s = 0; s < n; ++s)
        if (a.eval(space, s) && !b.eval(space, s)) return false;
    return true;
}

bool equivalent(const StateSpace& space, const Predicate& a,
                const Predicate& b) {
    const StateIndex n = space.num_states();
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == n && bb->size_bits() == n)
        return *ba == *bb;
    for (StateIndex s = 0; s < n; ++s)
        if (a.eval(space, s) != b.eval(space, s)) return false;
    return true;
}

StateIndex count_satisfying(const StateSpace& space, const Predicate& p) {
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == space.num_states())
        return bits->popcount();
    StateIndex n = 0;
    for (StateIndex s = 0; s < space.num_states(); ++s)
        if (p.eval(space, s)) ++n;
    return n;
}

}  // namespace dcft
