#include "solver/interval.h"

#include <algorithm>

#include "expr/node_map.h"
#include "expr/tape.h"

namespace pbse {

std::vector<std::uint8_t> ByteDomain::values() const {
  std::vector<std::uint8_t> out;
  out.reserve(size());
  for (unsigned w = 0; w < 4; ++w) {
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
      out.push_back(
          static_cast<std::uint8_t>(64 * w + std::countr_zero(bits)));
  }
  return out;
}

namespace {

// Recursive matcher for byte assemblies. `shift` is the bit position the
// current subexpression occupies within the whole assembled value.
// Depth-capped: real assemblies are at most a few levels deep, and the
// cap keeps kilonode accumulator chains off the C++ stack.
bool match_assembly_impl(const ExprRef& e, unsigned shift,
                         std::vector<ByteLane>& lanes, unsigned depth = 0) {
  if (depth > 64) return false;
  switch (e->kind()) {
    case ExprKind::kRead:
      lanes.push_back(ByteLane{e->array(), e->read_index(), shift});
      return true;
    case ExprKind::kZExt:
      return match_assembly_impl(e->kid(0), shift, lanes, depth + 1);
    case ExprKind::kConcat:
      return match_assembly_impl(e->kid(1), shift, lanes, depth + 1) &&
             match_assembly_impl(e->kid(0), shift + e->kid(1)->width(), lanes,
                                 depth + 1);
    case ExprKind::kShl: {
      if (!e->kid(1)->is_constant()) return false;
      const unsigned amount =
          static_cast<unsigned>(e->kid(1)->constant_value());
      return match_assembly_impl(e->kid(0), shift + amount, lanes, depth + 1);
    }
    case ExprKind::kOr:
    case ExprKind::kAdd:  // Or and Add coincide when lanes don't overlap
      return match_assembly_impl(e->kid(0), shift, lanes, depth + 1) &&
             match_assembly_impl(e->kid(1), shift, lanes, depth + 1);
    default:
      return false;
  }
}

bool lanes_disjoint(const std::vector<ByteLane>& lanes) {
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    for (std::size_t j = i + 1; j < lanes.size(); ++j) {
      // Overlapping bit ranges would break the per-lane decomposition.
      const unsigned a0 = lanes[i].bit_offset, a1 = a0 + 8;
      const unsigned b0 = lanes[j].bit_offset, b1 = b0 + 8;
      if (a0 < b1 && b0 < a1) return false;
      // The same byte appearing twice is also not a plain assembly.
      if (lanes[i].array.get() == lanes[j].array.get() &&
          lanes[i].index == lanes[j].index)
        return false;
    }
  }
  return true;
}

}  // namespace

bool match_byte_assembly(const ExprRef& e, std::vector<ByteLane>& lanes) {
  lanes.clear();
  if (!match_assembly_impl(e, 0, lanes)) return false;
  return !lanes.empty() && lanes_disjoint(lanes);
}

namespace {

/// Pins every lane of an assembly to the corresponding byte of `value`.
/// Bits of `value` not covered by any lane must be zero (the assembly
/// cannot produce them); otherwise the equality is UNSAT.
bool pin_assembly(const ExprRef& e, std::uint64_t value, DomainMap& domains,
                  bool& unsat) {
  std::vector<ByteLane> lanes;
  if (!match_byte_assembly(e, lanes)) return false;
  std::uint64_t covered = 0;
  for (const auto& lane : lanes)
    covered |= std::uint64_t{0xff} << lane.bit_offset;
  covered = truncate_to_width(covered, e->width());
  if ((value & ~covered) != 0) {
    unsat = true;
    return true;
  }
  for (const auto& lane : lanes) {
    const auto byte = static_cast<std::uint8_t>((value >> lane.bit_offset) & 0xff);
    ByteDomain& d = domains.domain(lane.array, lane.index);
    if (!d.allows(byte)) {
      unsat = true;
      return true;
    }
    d.pin(byte);
  }
  return true;
}

}  // namespace

bool pin_equality(const ExprRef& e, std::uint64_t value, DomainMap& domains,
                  bool& unsat, unsigned depth) {
  if (depth > 512) return false;  // deep peel chains: leave to the search
  value = truncate_to_width(value, e->width());
  switch (e->kind()) {
    case ExprKind::kConstant:
      if (e->constant_value() != value) unsat = true;
      return true;
    case ExprKind::kRead: {
      const auto byte = static_cast<std::uint8_t>(value);
      ByteDomain& d = domains.domain(e->array(), e->read_index());
      if (!d.allows(byte)) {
        unsat = true;
        return true;
      }
      d.pin(byte);
      return true;
    }
    case ExprKind::kZExt: {
      const ExprRef& src = e->kid(0);
      if (src->width() < 64 && value >> src->width() != 0) {
        unsat = true;
        return true;
      }
      return pin_equality(src, value, domains, unsat, depth + 1);
    }
    case ExprKind::kSExt: {
      const ExprRef& src = e->kid(0);
      const std::uint64_t low = truncate_to_width(value, src->width());
      if (truncate_to_width(
              static_cast<std::uint64_t>(sign_extend(low, src->width())),
              e->width()) != value) {
        unsat = true;
        return true;
      }
      return pin_equality(src, low, domains, unsat, depth + 1);
    }
    case ExprKind::kConcat: {
      const ExprRef& hi = e->kid(0);
      const ExprRef& lo = e->kid(1);
      bool hi_unsat = false, lo_unsat = false;
      const bool ok =
          pin_equality(hi, value >> lo->width(), domains, hi_unsat,
                       depth + 1) &&
          pin_equality(lo, truncate_to_width(value, lo->width()), domains,
                       lo_unsat, depth + 1);
      unsat = unsat || hi_unsat || lo_unsat;
      return ok;
    }
    case ExprKind::kAdd: {
      // Canonicalization puts a constant operand on the right.
      if (e->kid(1)->is_constant())
        return pin_equality(e->kid(0), value - e->kid(1)->constant_value(),
                            domains, unsat);
      return pin_assembly(e, value, domains, unsat);
    }
    case ExprKind::kShl:
    case ExprKind::kMul: {
      if (!e->kid(1)->is_constant()) return false;
      std::uint64_t m = e->kid(1)->constant_value();
      unsigned k = 0;
      if (e->kind() == ExprKind::kShl) {
        k = static_cast<unsigned>(m);
      } else {
        if (m == 0 || (m & (m - 1)) != 0) return false;  // not a power of 2
        while ((m >>= 1) != 0) ++k;
      }
      if (k >= e->width()) {
        if (value != 0) unsat = true;
        return true;
      }
      // Only sound when no solution bits are shifted out: require the
      // operand to be a zero-extension narrower than width - k.
      const ExprRef& x = e->kid(0);
      if (x->kind() != ExprKind::kZExt ||
          x->kid(0)->width() + k > e->width())
        return false;
      if (truncate_to_width(value, k) != 0) {
        unsat = true;
        return true;
      }
      return pin_equality(x, value >> k, domains, unsat, depth + 1);
    }
    case ExprKind::kOr:
      return pin_assembly(e, value, domains, unsat);
    default:
      return false;
  }
}

URange read_range(const DomainMap& domains, const Array* array,
                  std::uint32_t index) {
  const ByteDomain* d = domains.find(array, index);
  if (d == nullptr || d->empty()) return {0, 255};
  return {d->min(), d->max()};
}

URange interval_of(const ExprRef& e, const DomainMap& domains) {
  // Iterative post-order with a per-call memo: the memo makes shared DAG
  // nodes linear (rotate patterns would otherwise be exponential), and the
  // explicit stack keeps kilonode-deep chains off the C++ stack.
  NodeMap<URange> memo;
  std::vector<std::pair<const Expr*, bool>> stack;
  stack.emplace_back(e.get(), false);
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (memo.contains(node)) continue;
    if (expanded) {
      URange k[2];
      if (node->kind() == ExprKind::kRead) {
        k[0] = read_range(domains, node->array().get(), node->read_index());
      } else {
        for (std::size_t i = 0; i < node->num_kids() && i < 2; ++i)
          k[i] = *memo.find(node->kid(i).get());
      }
      memo.insert(node, op_interval(node_op(*node), k[0], k[1]));
      continue;
    }
    stack.emplace_back(node, true);
    for (std::size_t i = 0; i < node->num_kids(); ++i) {
      const Expr* kid = node->kid(i).get();
      if (!memo.contains(kid)) stack.emplace_back(kid, false);
    }
  }
  return *memo.find(e.get());
}

void prune_ule_assembly(const ExprRef& assembly, std::uint64_t bound,
                        DomainMap& domains) {
  std::vector<ByteLane> lanes;
  if (!match_byte_assembly(assembly, lanes)) return;
  for (const auto& lane : lanes) {
    const std::uint64_t lane_max = bound >> lane.bit_offset;
    if (lane_max >= 255) continue;
    domains.domain(lane.array, lane.index)
        .remove_above(static_cast<std::uint8_t>(lane_max));
  }
}

namespace {

/// Scratch arrays for running compiled tapes, reused across constraints.
struct TapeScratch {
  std::vector<URange> ranges, range_slots;
  std::vector<std::uint64_t> slots;
};

/// interval_of(c, domains), computed on c's compiled tape: Read i ranges
/// over the domain of c's i-th read.
URange tape_interval(CompiledExpr& cc, const DomainMap& domains,
                     TapeScratch& scratch) {
  const Tape& tape = cc.tape();
  const std::vector<ReadSite>& reads = cc.reads();
  if (scratch.ranges.size() < reads.size()) scratch.ranges.resize(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i)
    scratch.ranges[i] =
        read_range(domains, reads[i].array.get(), reads[i].index);
  if (scratch.range_slots.size() < tape.size())
    scratch.range_slots.resize(tape.size());
  return tape.interval(scratch.ranges.data(), scratch.range_slots.data());
}

}  // namespace

bool propagate_domains(const std::vector<ExprRef>& constraints,
                       DomainMap& domains, std::uint64_t& cost_out) {
  TapeScratch scratch;
  // Two rounds so that pins discovered by later constraints feed back into
  // the interval checks of earlier ones (cheap fixpoint approximation).
  for (int round = 0; round < 2; ++round) {
    for (const auto& c : constraints) {
      CompiledExpr& cc = compiled(c);
      cost_out += cc.cost();
      const URange range = tape_interval(cc, domains, scratch);
      if (range.hi == 0) return false;  // constraint can never hold
      // Upper-bound pruning for assembly <= const / assembly < const.
      if (c->kind() == ExprKind::kUle || c->kind() == ExprKind::kUlt) {
        const ExprRef& lhs = c->kid(0);
        const ExprRef& rhs = c->kid(1);
        if (rhs->is_constant()) {
          std::uint64_t bound = rhs->constant_value();
          if (c->kind() == ExprKind::kUlt) {
            if (bound == 0) return false;
            bound -= 1;
          }
          prune_ule_assembly(lhs, bound, domains);
        }
      }
    }
    if (domains.any_empty()) return false;
  }
  for (const auto& c : constraints) {
    // Propagator 2: Eq(assembly, constant) pins every lane.
    if (c->kind() == ExprKind::kEq) {
      const ExprRef& lhs = c->kid(0);
      const ExprRef& rhs = c->kid(1);
      const ExprRef* assembled = nullptr;
      std::uint64_t value = 0;
      if (rhs->is_constant()) {
        assembled = &lhs;
        value = rhs->constant_value();
      } else if (lhs->is_constant()) {
        assembled = &rhs;
        value = lhs->constant_value();
      }
      if (assembled != nullptr) {
        bool unsat = false;
        cost_out += 4;
        if (pin_equality(*assembled, value, domains, unsat)) {
          if (unsat) return false;
          continue;
        }
      }
    }

    // Propagator 1: single-byte constraints enumerated exactly on the
    // constraint's tape, whose one Read is that byte.
    CompiledExpr& cc = compiled(c);
    if (cc.reads().size() == 1) {
      const ReadSite& site = cc.reads()[0];
      ByteDomain& d = domains.domain(site.array, site.index);
      const Tape& tape = cc.tape();
      if (scratch.slots.size() < tape.size()) scratch.slots.resize(tape.size());
      cost_out += 256;
      for (unsigned v = 0; v < 256; ++v) {
        const auto byte = static_cast<std::uint8_t>(v);
        const std::uint64_t var = byte;
        if (d.allows(byte) && tape.value(&var, scratch.slots.data()) == 0)
          d.remove(byte);
      }
      if (d.empty()) return false;
    }
  }
  return !domains.any_empty();
}

bool propagate_delta(const std::vector<ExprRef>& prefix,
                     const std::vector<ExprRef>& added, DomainMap& domains,
                     std::uint64_t& cost_out) {
  if (!propagate_domains(added, domains, cost_out)) return false;
  // One interval pass over the prefix: the added constraints' pins may
  // contradict an already-propagated constraint even though each byte
  // domain is individually non-empty.
  TapeScratch scratch;
  for (const auto& c : prefix) {
    CompiledExpr& cc = compiled(c);
    cost_out += cc.cost();
    if (tape_interval(cc, domains, scratch).hi == 0) return false;
  }
  return !domains.any_empty();
}

}  // namespace pbse
