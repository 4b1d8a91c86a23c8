// The one definition of what each ExprKind computes: its exact value from
// its kids' values, and its unsigned-interval transfer from its kids'
// ranges. Constant folding, evaluate(), CachingEvaluator, interval_of() and
// the flat Tape all call these two functions, so a node's meaning cannot
// drift between the builders, the concrete evaluators and the solver.
#pragma once

#include <algorithm>
#include <cstdint>

#include "expr/expr.h"

namespace pbse {

/// A node's kind plus the per-kind parameters its kids' values do not
/// carry. Built from an Expr by node_op(), or directly by constant folding.
struct NodeOp {
  ExprKind kind = ExprKind::kConstant;
  std::uint8_t width = 0;  // result width, 1..64
  /// Concat: width of the low kid. Extract: bit offset. Every other kind
  /// with kids: width of kid 0 (the operand width of SExt, the binary
  /// operators and the comparisons).
  std::uint8_t param = 0;
  /// Kid 1 is a Constant node. The interval transfer of Shl, LShr, UDiv
  /// and width-1 Xor only narrows by a constant right operand.
  bool const_rhs = false;
  std::uint64_t imm = 0;  // Constant: its value
};

inline NodeOp node_op(const Expr& e) {
  NodeOp op;
  op.kind = e.kind();
  op.width = static_cast<std::uint8_t>(e.width());
  switch (e.kind()) {
    case ExprKind::kConstant:
      op.imm = e.constant_value();
      break;
    case ExprKind::kRead:
      break;
    case ExprKind::kConcat:
      op.param = static_cast<std::uint8_t>(e.kid(1)->width());
      break;
    case ExprKind::kExtract:
      op.param = static_cast<std::uint8_t>(e.extract_offset());
      break;
    default:
      op.param = static_cast<std::uint8_t>(e.kid(0)->width());
      break;
  }
  op.const_rhs = e.num_kids() > 1 && e.kid(1)->is_constant();
  return op;
}

/// Exact value of a node from its kids' values x, y, z (unused kids are
/// ignored). A Read's value is its byte, passed as x. Total: division and
/// remainder by zero yield 0, shifts by the width or more yield 0 (AShr:
/// the sign fill), and signed overflow wraps. Zero-extended to 64 bits.
/// Always inlined: it is the body of the tape's evaluation loop.
[[gnu::always_inline]] inline std::uint64_t op_value(const NodeOp& op,
                                                     std::uint64_t x,
                                                     std::uint64_t y,
                                                     std::uint64_t z) {
  const unsigned ow = op.param;
  std::uint64_t r = 0;
  switch (op.kind) {
    case ExprKind::kConstant: r = op.imm; break;
    case ExprKind::kRead: r = x; break;
    case ExprKind::kSelect: r = x != 0 ? y : z; break;
    case ExprKind::kConcat: r = (x << op.param) | y; break;
    case ExprKind::kExtract: r = x >> op.param; break;
    case ExprKind::kZExt: r = x; break;
    case ExprKind::kSExt:
      r = static_cast<std::uint64_t>(sign_extend(x, ow));
      break;
    case ExprKind::kNot: r = ~x; break;
    case ExprKind::kAdd: r = x + y; break;
    case ExprKind::kSub: r = x - y; break;
    case ExprKind::kMul: r = x * y; break;
    case ExprKind::kUDiv: r = y == 0 ? 0 : x / y; break;
    case ExprKind::kURem: r = y == 0 ? 0 : x % y; break;
    case ExprKind::kSDiv:
    case ExprKind::kSRem: {
      const std::int64_t sx = sign_extend(x, ow);
      const std::int64_t sy = sign_extend(y, ow);
      const bool div = op.kind == ExprKind::kSDiv;
      if (sy == 0) r = 0;
      // x / -1 is -x and x % -1 is 0; spelled out because the one
      // overflowing quotient, INT64_MIN / -1, is undefined in C++.
      else if (sy == -1) r = div ? 0 - x : 0;
      else r = static_cast<std::uint64_t>(div ? sx / sy : sx % sy);
      break;
    }
    case ExprKind::kAnd: r = x & y; break;
    case ExprKind::kOr: r = x | y; break;
    case ExprKind::kXor: r = x ^ y; break;
    case ExprKind::kShl: r = y >= ow ? 0 : x << y; break;
    case ExprKind::kLShr: r = y >= ow ? 0 : x >> y; break;
    case ExprKind::kAShr: {
      const std::int64_t sx = sign_extend(x, ow);
      r = y >= ow ? static_cast<std::uint64_t>(sx < 0 ? -1 : 0)
                  : static_cast<std::uint64_t>(sx >> y);
      break;
    }
    case ExprKind::kEq: r = x == y; break;
    case ExprKind::kUlt: r = x < y; break;
    case ExprKind::kUle: r = x <= y; break;
    case ExprKind::kSlt: r = sign_extend(x, ow) < sign_extend(y, ow); break;
    case ExprKind::kSle: r = sign_extend(x, ow) <= sign_extend(y, ow); break;
  }
  return truncate_to_width(r, op.width);
}

/// Conservative unsigned range: contains every value the expression can
/// take. Overflowing operations widen to the full range of their width.
struct URange {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};
};

/// Range of a node from its kids' ranges x and y (no transfer reads a
/// third kid). A Read's range is its byte's, passed as x. Kinds without a
/// transfer rule yield the full range of their width. Always inlined, as
/// op_value() is: it is the body of the tape's interval loop.
[[gnu::always_inline]] inline URange op_interval(const NodeOp& op, URange x,
                                                 URange y) {
  const std::uint64_t full = truncate_to_width(~std::uint64_t{0}, op.width);
  const URange top{0, full};
  switch (op.kind) {
    case ExprKind::kConstant:
      return {op.imm, op.imm};
    case ExprKind::kRead:
    case ExprKind::kZExt:
      return x;
    case ExprKind::kConcat:
      return {(x.lo << op.param) | y.lo, (x.hi << op.param) | y.hi};
    case ExprKind::kAdd:
      if (x.hi > full - y.hi) return top;  // may wrap at the width
      return {x.lo + y.lo, x.hi + y.hi};
    case ExprKind::kMul:
      if (y.hi != 0 && x.hi > full / y.hi) return top;
      return {x.lo * y.lo, x.hi * y.hi};
    case ExprKind::kShl: {
      if (!op.const_rhs || y.lo >= op.width) return top;
      const unsigned k = static_cast<unsigned>(y.lo);
      if (x.hi > (full >> k)) return top;
      return {x.lo << k, x.hi << k};
    }
    case ExprKind::kLShr: {
      if (!op.const_rhs) return top;
      if (y.lo >= op.width) return {0, 0};
      const unsigned k = static_cast<unsigned>(y.lo);
      return {x.lo >> k, x.hi >> k};
    }
    case ExprKind::kOr:
      // Disjoint-lane Or is bounded by the sum; generic Or by bitwise max.
      return {std::max(x.lo, y.lo), x.hi > full - y.hi ? full : x.hi + y.hi};
    case ExprKind::kAnd:
      return {0, std::min(x.hi, y.hi)};
    case ExprKind::kUDiv:
      if (!op.const_rhs || y.lo == 0) return top;
      return {x.lo / y.lo, x.hi / y.lo};
    case ExprKind::kEq:
      if (x.hi < y.lo || y.hi < x.lo) return {0, 0};  // disjoint: never equal
      if (x.lo == x.hi && y.lo == y.hi && x.lo == y.lo) return {1, 1};
      return {0, 1};
    case ExprKind::kUlt:
      if (x.hi < y.lo) return {1, 1};
      if (x.lo >= y.hi) return {0, 0};
      return {0, 1};
    case ExprKind::kUle:
      if (x.hi <= y.lo) return {1, 1};
      if (x.lo > y.hi) return {0, 0};
      return {0, 1};
    case ExprKind::kXor:
      // Xor with constant true is logical not (the common width-1 case).
      if (op.width == 1 && op.const_rhs && y.lo == 1) {
        if (x.lo == x.hi) return {1 - x.lo, 1 - x.lo};
        return {0, 1};
      }
      return top;
    default:
      return top;
  }
}

}  // namespace pbse
