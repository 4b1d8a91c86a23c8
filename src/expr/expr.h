// Symbolic bitvector expressions — the analog of KLEE's Expr library.
//
// Expressions are immutable, hash-consed DAG nodes over:
//   * constants of 1..64 bits,
//   * byte reads from named symbolic arrays (the symbolic input file),
//   * the usual arithmetic / bitwise / comparison / cast operators.
//
// Hash-consing makes structural equality a handle comparison, which the
// solver caches rely on. Construction performs constant folding and a set
// of local simplifications, so the engine can build expressions naively.
//
// Each thread interns its nodes into an arena of fixed-size chunks that
// never move and are never freed, and an ExprRef is a plain 8-byte handle
// to a node there: copying one costs nothing, and it stays valid for the
// life of the process, also after the thread that made it has exited. The
// interning table is a flat open-addressing table of 8-byte slots (a
// 32-bit tag of the node's content hash and the node's 32-bit number in
// the arena). A builder hashes the node's parts, probes, and places a node
// only when the table has none with that content; a direct-mapped cache in
// front of it answers most mk_const calls without probing.
//
// The interning table is THREAD-LOCAL: expressions built on different
// threads never alias, so independent campaigns can run on worker threads
// without locks. A single campaign (and all expressions it compares by
// handle) must stay on one thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace pbse {

class Expr;
class Interner;

/// Handle to an interned expression node, or null. Trivially copyable:
/// nodes are never freed (see above), so a handle needs no reference
/// count. Only the interner makes a non-null one.
class ExprRef {
 public:
  constexpr ExprRef() = default;
  constexpr ExprRef(std::nullptr_t) {}

  const Expr* get() const { return node_; }
  const Expr* operator->() const { return node_; }
  const Expr& operator*() const { return *node_; }
  explicit operator bool() const { return node_ != nullptr; }

  friend bool operator==(ExprRef a, ExprRef b) { return a.node_ == b.node_; }
  friend bool operator==(ExprRef a, std::nullptr_t) {
    return a.node_ == nullptr;
  }

 private:
  friend class Interner;
  explicit ExprRef(const Expr* node) : node_(node) {}

  const Expr* node_ = nullptr;
};

/// A named symbolic byte array, e.g. the symbolic input file "file".
/// Arrays are compared by identity; create one per symbolic object.
class Array {
 public:
  Array(std::string name, std::uint32_t size)
      : name_(std::move(name)),
        size_(size),
        name_hash_(std::hash<std::string>{}(name_)) {}

  const std::string& name() const { return name_; }
  std::uint32_t size() const { return size_; }
  /// std::hash of name(), computed once: Read-node hashes and the solver's
  /// content-based site ids use it.
  std::size_t name_hash() const { return name_hash_; }

 private:
  std::string name_;
  std::uint32_t size_;
  std::size_t name_hash_;
};

using ArrayRef = std::shared_ptr<const Array>;

enum class ExprKind : std::uint8_t {
  kConstant,
  kRead,     // byte read from a symbolic array at a concrete index
  kSelect,   // ite(cond, then, else)
  kConcat,   // high ++ low
  kExtract,  // bits [offset, offset+width) of the operand
  kZExt,
  kSExt,
  kNot,      // bitwise not
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  kEq,   // width-1 result
  kUlt,
  kUle,
  kSlt,
  kSle,
};

/// Returns a printable operator name ("Add", "Eq", ...).
const char* expr_kind_name(ExprKind kind);

/// Immutable expression node, 64 bytes, in its thread's arena. Always
/// held via ExprRef; construct through the mk_* builder functions below
/// (which fold and intern).
class Expr {
 public:
  ExprKind kind() const { return kind_; }
  /// Bit width of the value this expression denotes (1..64).
  unsigned width() const { return width_; }

  bool is_constant() const { return kind_ == ExprKind::kConstant; }
  /// Constant value, valid only when is_constant(). Zero-extended to 64 bits.
  std::uint64_t constant_value() const { return value_; }
  /// True if this is the width-1 constant 1 / 0.
  bool is_true() const { return is_constant() && width_ == 1 && value_ == 1; }
  bool is_false() const { return is_constant() && width_ == 1 && value_ == 0; }

  /// Read node accessors (valid only when kind() == kRead).
  const ArrayRef& array() const { return array_; }
  std::uint32_t read_index() const { return static_cast<std::uint32_t>(value_); }

  /// Extract offset (valid only when kind() == kExtract).
  unsigned extract_offset() const { return static_cast<unsigned>(value_); }

  std::size_t num_kids() const { return num_kids_; }
  const ExprRef& kid(std::size_t i) const {
    assert(i < num_kids_);
    return kids_[i];
  }

  /// Structural hash, cached at construction.
  std::size_t hash() const { return hash_; }

  /// Renders the expression as an s-expression, e.g. "(Add w8 (Read file 3) 1)".
  std::string to_string() const;

 private:
  /// Most kids any kind has (Select).
  static constexpr std::size_t kMaxKids = 3;

  friend class Interner;
  // The interner places nodes in its arena and passes the content hash it
  // probed with.
  Expr(ExprKind kind, unsigned width, std::uint64_t value, ArrayRef array,
       std::span<const ExprRef> kids, std::size_t hash);

  std::size_t hash_;
  std::uint64_t value_;  // constant value / read index / extract offset
  ArrayRef array_;
  ExprRef kids_[kMaxKids];
  ExprKind kind_;
  std::uint8_t width_;
  std::uint8_t num_kids_;
};
static_assert(sizeof(Expr) == 64, "an expression node is one cache line");

// --- Width arithmetic helpers -------------------------------------------

/// Masks `v` down to `width` bits.
inline std::uint64_t truncate_to_width(std::uint64_t v, unsigned width) {
  return width >= 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}
/// Interprets the low `width` bits of `v` as signed and sign-extends to 64.
inline std::int64_t sign_extend(std::uint64_t v, unsigned width) {
  assert(width >= 1 && width <= 64);
  if (width == 64) return static_cast<std::int64_t>(v);
  const std::uint64_t sign_bit = std::uint64_t{1} << (width - 1);
  return static_cast<std::int64_t>((truncate_to_width(v, width) ^ sign_bit) -
                                   sign_bit);
}

// --- Builders ------------------------------------------------------------
// All builders constant-fold when possible and apply local rewrites.

ExprRef mk_const(std::uint64_t value, unsigned width);
ExprRef mk_bool(bool v);
/// One byte (width 8) read from `array` at concrete index `index`.
ExprRef mk_read(ArrayRef array, std::uint32_t index);
ExprRef mk_select(ExprRef cond, ExprRef then_e, ExprRef else_e);
/// Concatenation: result width = high.width + low.width (<= 64).
ExprRef mk_concat(ExprRef high, ExprRef low);
ExprRef mk_extract(ExprRef e, unsigned offset, unsigned width);
ExprRef mk_zext(ExprRef e, unsigned width);
ExprRef mk_sext(ExprRef e, unsigned width);
ExprRef mk_not(ExprRef e);

ExprRef mk_add(ExprRef a, ExprRef b);
ExprRef mk_sub(ExprRef a, ExprRef b);
ExprRef mk_mul(ExprRef a, ExprRef b);
/// Unsigned/signed division and remainder. Division by constant zero is the
/// caller's responsibility to guard (the VM forks a div-by-zero check
/// first); folding x/0 yields 0 to keep the evaluator total.
ExprRef mk_udiv(ExprRef a, ExprRef b);
ExprRef mk_sdiv(ExprRef a, ExprRef b);
ExprRef mk_urem(ExprRef a, ExprRef b);
ExprRef mk_srem(ExprRef a, ExprRef b);
ExprRef mk_and(ExprRef a, ExprRef b);
ExprRef mk_or(ExprRef a, ExprRef b);
ExprRef mk_xor(ExprRef a, ExprRef b);
ExprRef mk_shl(ExprRef a, ExprRef b);
ExprRef mk_lshr(ExprRef a, ExprRef b);
ExprRef mk_ashr(ExprRef a, ExprRef b);

// Comparisons produce width-1 expressions.
ExprRef mk_eq(ExprRef a, ExprRef b);
ExprRef mk_ne(ExprRef a, ExprRef b);
ExprRef mk_ult(ExprRef a, ExprRef b);
ExprRef mk_ule(ExprRef a, ExprRef b);
ExprRef mk_ugt(ExprRef a, ExprRef b);
ExprRef mk_uge(ExprRef a, ExprRef b);
ExprRef mk_slt(ExprRef a, ExprRef b);
ExprRef mk_sle(ExprRef a, ExprRef b);
ExprRef mk_sgt(ExprRef a, ExprRef b);
ExprRef mk_sge(ExprRef a, ExprRef b);

/// Logical negation of a width-1 expression.
ExprRef mk_lnot(ExprRef e);
/// Logical and/or of width-1 expressions (no short-circuit semantics here;
/// the frontend lowers && / || to control flow).
ExprRef mk_land(ExprRef a, ExprRef b);
ExprRef mk_lor(ExprRef a, ExprRef b);

/// Interns a node with EXACTLY the given shape — no folding, no rewrites.
/// For deserialization only (src/serialize): a snapshotted node is already
/// in builder normal form, and re-interning its exact (kind, width, value,
/// array, kids) tuple is the only construction guaranteed to reproduce it
/// bit-for-bit regardless of which builder rewrite originally emitted it.
/// Engine code must keep using the mk_* builders.
ExprRef mk_raw(ExprKind kind, unsigned width, std::uint64_t value,
               ArrayRef array, std::vector<ExprRef> kids);

/// Collects the distinct (array, index) byte reads appearing in `e`,
/// appending to `out` (deduplicated within the call) in a fixed
/// depth-first order. Returns the DAG's node count, expr_dag_size(). The
/// solver reads each constraint's list from its compiled form
/// (expr/tape.h), which this walk builds. The walk reuses one visited set
/// per thread and allocates only when a DAG outgrows it.
struct ReadSite {
  ArrayRef array;
  std::uint32_t index;
};
std::size_t collect_reads(const ExprRef& e, std::vector<ReadSite>& out);

/// Number of nodes in the DAG (each shared node counted once). A plain
/// walk with a fresh visited set: the tests' reference for collect_reads().
std::size_t expr_dag_size(const ExprRef& e);

/// Number of distinct nodes interned on this thread (for tests / benches).
std::size_t intern_table_size();

}  // namespace pbse
