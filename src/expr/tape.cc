#include "expr/tape.h"

#include <cassert>
#include <deque>
#include <type_traits>

#include "expr/node_map.h"

namespace pbse {

Tape::Tape(const Expr* root) {
  // Iterative post-order: chains can be deeper than the C++ stack allows.
  // Kids are pushed in order and popped last-first, as collect_reads()
  // visits them, and a Read completes as soon as it is first reached, so
  // numbering Reads by completion numbers them in collect_reads() order.
  NodeMap<std::uint32_t> slot_of;
  std::uint32_t next_read = 0;
  std::vector<std::pair<const Expr*, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [e, expanded] = stack.back();
    stack.pop_back();
    if (slot_of.contains(e)) continue;
    if (expanded) {
      const NodeOp op = node_op(*e);
      Step step;
      step.kind = op.kind;
      step.width = op.width;
      step.param = op.param;
      step.const_rhs = op.const_rhs;
      if (e->kind() == ExprKind::kRead) {
        step.kid[0] = next_read++;
      } else if (e->kind() == ExprKind::kConstant) {
        step.kid[0] = static_cast<std::uint32_t>(imms_.size());
        imms_.push_back(op.imm);
      } else {
        for (std::size_t i = 0; i < e->num_kids(); ++i)
          step.kid[i] = *slot_of.find(e->kid(i).get());
      }
      slot_of.insert(e, static_cast<std::uint32_t>(steps_.size()));
      steps_.push_back(step);
      continue;
    }
    stack.emplace_back(e, true);
    for (std::size_t i = 0; i < e->num_kids(); ++i) {
      const Expr* kid = e->kid(i).get();
      if (!slot_of.contains(kid)) stack.emplace_back(kid, false);
    }
  }
  steps_.shrink_to_fit();
  imms_.shrink_to_fit();
}

namespace {

/// Kids a step of `kind` reads from the slots. A Read's kid[0] is its read
/// number and a Constant's indexes imms_; unused kids hold 0.
unsigned slot_kids(ExprKind kind) {
  switch (kind) {
    case ExprKind::kConstant:
    case ExprKind::kRead:
      return 0;
    case ExprKind::kExtract:
    case ExprKind::kZExt:
    case ExprKind::kSExt:
    case ExprKind::kNot:
      return 1;
    case ExprKind::kSelect:
      return 3;
    default:
      return 2;
  }
}

}  // namespace

template <typename T, typename Bind>
[[gnu::always_inline]] inline void Tape::run_step(std::size_t i, Bind bind,
                                                  T* slots) const {
  const Step& s = steps_[i];
  NodeOp op;
  op.kind = s.kind;
  op.width = s.width;
  op.param = s.param;
  op.const_rhs = s.const_rhs;
  if (s.kind == ExprKind::kConstant) op.imm = imms_[s.kid[0]];
  // A Constant's kid[0] indexes imms_, not a slot, but is below size(),
  // so the unused load stays inside the slot array.
  const T x = s.kind == ExprKind::kRead ? bind(s.kid[0]) : slots[s.kid[0]];
  if constexpr (std::is_same_v<T, URange>)
    slots[i] = op_interval(op, x, slots[s.kid[1]]);
  else
    slots[i] = op_value(op, x, slots[s.kid[1]], slots[s.kid[2]]);
}

template <typename T, typename Bind>
T Tape::run(Bind bind, T* slots) const {
  for (std::size_t i = 0; i < steps_.size(); ++i) run_step(i, bind, slots);
  return slots[steps_.size() - 1];
}

template <typename T, typename Bind>
T Tape::run(Bind bind, T* slots, std::span<const std::uint32_t> steps) const {
  for (const std::uint32_t i : steps) run_step(i, bind, slots);
  return slots[steps_.size() - 1];
}

std::uint64_t Tape::value(const std::uint64_t* vars,
                          std::uint64_t* slots) const {
  return run([vars](std::uint32_t r) { return vars[r]; }, slots);
}

std::uint64_t Tape::value(const std::uint64_t* vars,
                          const std::uint32_t* var_of_read,
                          std::uint64_t* slots) const {
  return run([=](std::uint32_t r) { return vars[var_of_read[r]]; }, slots);
}

URange Tape::interval(const URange* vars, URange* slots) const {
  return run([vars](std::uint32_t r) { return vars[r]; }, slots);
}

URange Tape::interval(const URange* vars, const std::uint32_t* var_of_read,
                      URange* slots) const {
  return run([=](std::uint32_t r) { return vars[var_of_read[r]]; }, slots);
}

void Tape::dependents(const std::uint32_t* var_of_read, std::uint32_t var,
                      std::vector<std::uint32_t>& out) const {
  std::vector<bool> depends(steps_.size());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    bool d = s.kind == ExprKind::kRead && var_of_read[s.kid[0]] == var;
    for (unsigned k = 0; !d && k < slot_kids(s.kind); ++k)
      d = depends[s.kid[k]];
    if (!d) continue;
    depends[i] = true;
    out.push_back(static_cast<std::uint32_t>(i));
  }
}

std::uint64_t Tape::value(const std::uint64_t* vars,
                          const std::uint32_t* var_of_read,
                          std::uint64_t* slots,
                          std::span<const std::uint32_t> steps) const {
  return run([=](std::uint32_t r) { return vars[var_of_read[r]]; }, slots,
             steps);
}

URange Tape::interval(const URange* vars, const std::uint32_t* var_of_read,
                      URange* slots,
                      std::span<const std::uint32_t> steps) const {
  return run([=](std::uint32_t r) { return vars[var_of_read[r]]; }, slots,
             steps);
}

// --- The per-thread cache ----------------------------------------------------

namespace {

/// What one entry costs besides its reads and tape: the entry itself and
/// its index slot at the index's worst load.
constexpr std::size_t kEntryBytes =
    sizeof(CompiledExpr) + 4 * sizeof(void*);

struct CompiledCache {
  /// Interned nodes are never freed (expr.h), so a node pointer is a
  /// stable key. The deque never moves its entries.
  NodeMap<CompiledExpr*> index;
  std::deque<CompiledExpr> entries;
  std::size_t bytes = 0;
  unsigned pins = 0;

  void clear() {
    index = NodeMap<CompiledExpr*>();
    std::deque<CompiledExpr>().swap(entries);
    bytes = 0;
  }
  /// Wholesale clear once over the bound, where no reference is held.
  void trim() {
    if (pins == 0 && bytes >= kCompiledCacheBytes) clear();
  }
};

thread_local CompiledCache cache;

}  // namespace

CompiledExpr::CompiledExpr(const ExprRef& root) : root_(root.get()) {
  cost_ = collect_reads(root, reads_);
  reads_.shrink_to_fit();
}

const Tape& CompiledExpr::tape() {
  if (tape_.size() == 0) {
    tape_ = Tape(root_);
    cache.bytes += tape_.bytes();
  }
  return tape_;
}

CompiledExpr& compiled(const ExprRef& e) {
  if (CompiledExpr* const* hit = cache.index.find(e.get())) return **hit;
  cache.trim();
  CompiledExpr& entry = cache.entries.emplace_back(e);
  cache.index.insert(e.get(), &entry);
  cache.bytes += kEntryBytes + entry.reads().size() * sizeof(ReadSite);
  return entry;
}

CompiledPin::CompiledPin() {
  if (cache.pins++ == 0) cache.trim();
}

CompiledPin::~CompiledPin() { --cache.pins; }

void clear_compiled_cache() {
  assert(cache.pins == 0);
  cache.clear();
}

std::size_t compiled_cache_bytes() { return cache.bytes; }

}  // namespace pbse
