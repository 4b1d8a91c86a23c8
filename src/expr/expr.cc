#include "expr/expr.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <initializer_list>
#include <new>
#include <span>
#include <sstream>

#include "expr/node_map.h"
#include "expr/semantics.h"

namespace pbse {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

const char* expr_kind_name(ExprKind kind) {
  switch (kind) {
    case ExprKind::kConstant: return "Const";
    case ExprKind::kRead: return "Read";
    case ExprKind::kSelect: return "Select";
    case ExprKind::kConcat: return "Concat";
    case ExprKind::kExtract: return "Extract";
    case ExprKind::kZExt: return "ZExt";
    case ExprKind::kSExt: return "SExt";
    case ExprKind::kNot: return "Not";
    case ExprKind::kAdd: return "Add";
    case ExprKind::kSub: return "Sub";
    case ExprKind::kMul: return "Mul";
    case ExprKind::kUDiv: return "UDiv";
    case ExprKind::kSDiv: return "SDiv";
    case ExprKind::kURem: return "URem";
    case ExprKind::kSRem: return "SRem";
    case ExprKind::kAnd: return "And";
    case ExprKind::kOr: return "Or";
    case ExprKind::kXor: return "Xor";
    case ExprKind::kShl: return "Shl";
    case ExprKind::kLShr: return "LShr";
    case ExprKind::kAShr: return "AShr";
    case ExprKind::kEq: return "Eq";
    case ExprKind::kUlt: return "Ult";
    case ExprKind::kUle: return "Ule";
    case ExprKind::kSlt: return "Slt";
    case ExprKind::kSle: return "Sle";
  }
  return "?";
}

Expr::Expr(ExprKind kind, unsigned width, std::uint64_t value, ArrayRef array,
           std::span<const ExprRef> kids, std::size_t hash)
    : hash_(hash),
      value_(value),
      array_(std::move(array)),
      kind_(kind),
      width_(static_cast<std::uint8_t>(width)),
      num_kids_(static_cast<std::uint8_t>(kids.size())) {
  assert(kids.size() <= kMaxKids);
  std::copy(kids.begin(), kids.end(), kids_);
}

namespace {

// Content-based hashing (array by name+size, kids by their own hashes):
// pointer addresses must never leak into hashes, because hash order
// feeds canonicalization and search tie-breaking, and determinism across
// runs and processes is a design goal.
std::size_t content_hash(ExprKind kind, unsigned width, std::uint64_t value,
                         const Array* array, std::span<const ExprRef> kids) {
  std::size_t h = hash_combine(static_cast<std::size_t>(kind), width);
  h = hash_combine(h, static_cast<std::size_t>(value));
  if (array != nullptr) {
    h = hash_combine(h, array->name_hash());
    h = hash_combine(h, array->size());
  }
  for (const auto& k : kids) h = hash_combine(h, k->hash());
  return h;
}

}  // namespace

// Thread-local interning table: each campaign thread hash-conses its own
// nodes, so structural equality stays a handle comparison within a thread
// and construction needs no locks. Campaigns must therefore build and run
// on a single thread — the ParallelCampaignRunner's campaign-per-thread
// model.
//
// Nodes live in an arena of chunks of kChunkNodes nodes each. A chunk is
// allocated when the previous one is full and never moves or is freed, and
// the table itself is never destroyed (interner() leaks it), so a handle
// stays valid for the life of the process: results that outlive their
// thread simply keep their handles.
//
// The table is flat: a slot is a 32-bit tag of the content hash and the
// 32-bit number (plus one; zero marks an empty slot) of its node in the
// arena, which a shift and a mask turn into the node's chunk and place. A
// request hashes the node's parts, probes linearly from the home slot and
// places a node only on a miss, so the common case (most requests find an
// existing node) writes nothing. Nothing iterates the table, and the first
// node interned for a content is the one every later request gets, so the
// layout never reaches a result.
class Interner {
 public:
  Interner() : slots_(std::size_t{1} << kMinBits) {}

  ExprRef intern(ExprKind kind, unsigned width, std::uint64_t value,
                 const ArrayRef& array, std::span<const ExprRef> kids) {
    const std::size_t hash =
        content_hash(kind, width, value, array.get(), kids);
    const auto tag = static_cast<std::uint32_t>(hash);
    std::size_t i = home(hash);
    for (;; i = (i + 1) & mask()) {
      const Slot s = slots_[i];
      if (s.ref == 0) break;
      if (s.tag != tag) continue;
      const Expr& node = at(s.ref - 1);
      if (node.hash() == hash && node.kind() == kind &&
          node.width() == width && node.constant_value() == value &&
          node.array() == array && same_kids(node, kids))
        return ExprRef(&node);
    }
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = free_slot(hash);
    }
    // Aligned to the node size, so that each node fills one cache line.
    if ((size_ & kChunkMask) == 0)
      chunks_.push_back(static_cast<Expr*>(::operator new(
          kChunkNodes * sizeof(Expr), std::align_val_t{sizeof(Expr)})));
    Expr* node = new (&chunks_.back()[size_ & kChunkMask])
        Expr(kind, width, value, array, kids, hash);
    slots_[i] = Slot{tag, ++size_};
    return ExprRef(node);
  }

  /// The constant (value, width), through a direct-mapped cache: concrete
  /// execution asks for few distinct constants many times over.
  ExprRef constant(std::uint64_t value, unsigned width) {
    const std::uint64_t key = value ^ (std::uint64_t{width} << 57);
    ExprRef& cached = constants_[(key * kFibonacci) >> (64 - kConstantBits)];
    if (cached == nullptr || cached->constant_value() != value ||
        cached->width() != width)
      cached = intern(ExprKind::kConstant, width, value, nullptr, {});
    return cached;
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t ref = 0;  // node number plus one; 0 = empty
  };
  static constexpr unsigned kMinBits = 10;
  static constexpr unsigned kConstantBits = 12;
  /// 4096 nodes, 256 KiB, per chunk.
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::size_t kChunkNodes = std::size_t{1} << kChunkBits;
  static constexpr std::uint32_t kChunkMask = kChunkNodes - 1;
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;

  /// Node number `n`.
  const Expr& at(std::uint32_t n) const {
    return chunks_[n >> kChunkBits][n & kChunkMask];
  }

  static bool same_kids(const Expr& node, std::span<const ExprRef> kids) {
    if (node.num_kids() != kids.size()) return false;
    for (std::size_t k = 0; k < kids.size(); ++k)
      if (node.kid(k) != kids[k]) return false;
    return true;
  }

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the product's top bits mix every bit of the hash.
  /// The hash's own low bits follow a constant's value, so taking them
  /// packs runs of small constants into runs of slots (DESIGN.md §9).
  std::size_t home(std::size_t hash) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(hash) * kFibonacci) >> (64 - bits_));
  }
  std::size_t free_slot(std::size_t hash) const {
    std::size_t i = home(hash);
    while (slots_[i].ref != 0) i = (i + 1) & mask();
    return i;
  }
  /// Doubles the table, keeping the load at most one half.
  void grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    ++bits_;
    for (std::uint32_t n = 0; n < size_; ++n) {
      const std::size_t hash = at(n).hash();
      slots_[free_slot(hash)] = Slot{static_cast<std::uint32_t>(hash), n + 1};
    }
  }

  std::vector<Slot> slots_;
  unsigned bits_ = kMinBits;
  /// The arena: node n is chunks_[n >> kChunkBits][n & kChunkMask].
  std::vector<Expr*> chunks_;
  std::uint32_t size_ = 0;
  std::array<ExprRef, std::size_t{1} << kConstantBits> constants_;
};

namespace {

Interner& interner() {
  // Never destroyed: its arena holds every node any handle refers to.
  thread_local auto* table = new Interner();
  return *table;
}

ExprRef intern(ExprKind kind, unsigned width, std::uint64_t value,
               const ArrayRef& array, std::initializer_list<ExprRef> kids) {
  return interner().intern(kind, width, value, array, kids);
}

}  // namespace

std::size_t intern_table_size() { return interner().size(); }

ExprRef mk_raw(ExprKind kind, unsigned width, std::uint64_t value,
               ArrayRef array, std::vector<ExprRef> kids) {
  return interner().intern(kind, width, value, array, kids);
}

// --- Builders -------------------------------------------------------------

ExprRef mk_const(std::uint64_t value, unsigned width) {
  assert(width >= 1 && width <= 64);
  return interner().constant(truncate_to_width(value, width), width);
}

ExprRef mk_bool(bool v) { return mk_const(v ? 1 : 0, 1); }

ExprRef mk_read(ArrayRef array, std::uint32_t index) {
  assert(array != nullptr && index < array->size());
  return intern(ExprKind::kRead, 8, index, array, {});
}

ExprRef mk_select(ExprRef cond, ExprRef then_e, ExprRef else_e) {
  assert(cond->width() == 1 && then_e->width() == else_e->width());
  if (cond->is_true()) return then_e;
  if (cond->is_false()) return else_e;
  if (then_e == else_e) return then_e;
  // select(c, 1, 0) over width-1 operands is just c.
  if (then_e->width() == 1 && then_e->is_true() && else_e->is_false()) return cond;
  if (then_e->width() == 1 && then_e->is_false() && else_e->is_true())
    return mk_lnot(cond);
  const unsigned w = then_e->width();
  return intern(ExprKind::kSelect, w, 0, nullptr,
                {std::move(cond), std::move(then_e), std::move(else_e)});
}

ExprRef mk_concat(ExprRef high, ExprRef low) {
  const unsigned w = high->width() + low->width();
  assert(w <= 64);
  if (high->is_constant() && low->is_constant()) {
    return mk_const((high->constant_value() << low->width()) |
                        low->constant_value(),
                    w);
  }
  // Concat of a constant zero high part is a zext.
  if (high->is_constant() && high->constant_value() == 0)
    return mk_zext(std::move(low), w);
  // Reassembly of adjacent extracts of the same value folds back into one
  // extract: Concat(Extract(X, o+k, a), Extract(X, o, k)) == Extract(X, o,
  // a+k). This collapses load-after-store roundtrips to the stored value.
  if (high->kind() == ExprKind::kExtract && low->kind() == ExprKind::kExtract &&
      high->kid(0).get() == low->kid(0).get() &&
      high->extract_offset() == low->extract_offset() + low->width()) {
    return mk_extract(high->kid(0), low->extract_offset(), w);
  }
  return intern(ExprKind::kConcat, w, 0, nullptr, {std::move(high), std::move(low)});
}

ExprRef mk_extract(ExprRef e, unsigned offset, unsigned width) {
  assert(offset + width <= e->width() && width >= 1);
  if (offset == 0 && width == e->width()) return e;
  if (e->is_constant()) return mk_const(e->constant_value() >> offset, width);
  if (e->kind() == ExprKind::kConcat) {
    const ExprRef& high = e->kid(0);
    const ExprRef& low = e->kid(1);
    if (offset + width <= low->width()) return mk_extract(low, offset, width);
    if (offset >= low->width())
      return mk_extract(high, offset - low->width(), width);
  }
  if (e->kind() == ExprKind::kZExt || e->kind() == ExprKind::kSExt) {
    const ExprRef& src = e->kid(0);
    if (offset + width <= src->width()) return mk_extract(src, offset, width);
    if (e->kind() == ExprKind::kZExt && offset >= src->width())
      return mk_const(0, width);
  }
  return intern(ExprKind::kExtract, width, offset, nullptr, {std::move(e)});
}

ExprRef mk_zext(ExprRef e, unsigned width) {
  assert(width >= e->width() && width <= 64);
  if (width == e->width()) return e;
  if (e->is_constant()) return mk_const(e->constant_value(), width);
  if (e->kind() == ExprKind::kZExt) return mk_zext(e->kid(0), width);
  return intern(ExprKind::kZExt, width, 0, nullptr, {std::move(e)});
}

ExprRef mk_sext(ExprRef e, unsigned width) {
  assert(width >= e->width() && width <= 64);
  if (width == e->width()) return e;
  if (e->is_constant())
    return mk_const(static_cast<std::uint64_t>(
                        sign_extend(e->constant_value(), e->width())),
                    width);
  return intern(ExprKind::kSExt, width, 0, nullptr, {std::move(e)});
}

ExprRef mk_not(ExprRef e) {
  if (e->is_constant()) return mk_const(~e->constant_value(), e->width());
  if (e->kind() == ExprKind::kNot) return e->kid(0);
  const unsigned w = e->width();
  return intern(ExprKind::kNot, w, 0, nullptr, {std::move(e)});
}

namespace {

bool is_commutative(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kMul:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kEq:
      return true;
    default:
      return false;
  }
}

ExprRef mk_binop(ExprKind kind, ExprRef a, ExprRef b) {
  assert(a->width() == b->width());
  const unsigned operand_w = a->width();
  const bool is_cmp = kind == ExprKind::kEq || kind == ExprKind::kUlt ||
                      kind == ExprKind::kUle || kind == ExprKind::kSlt ||
                      kind == ExprKind::kSle;
  const unsigned result_w = is_cmp ? 1 : operand_w;
  if (a->is_constant() && b->is_constant()) {
    NodeOp op;
    op.kind = kind;
    op.width = static_cast<std::uint8_t>(result_w);
    op.param = static_cast<std::uint8_t>(operand_w);
    return mk_const(
        op_value(op, a->constant_value(), b->constant_value(), 0), result_w);
  }
  // Canonicalize commutative operators: constant operand on the right,
  // otherwise order by hash so (a op b) and (b op a) intern identically.
  if (is_commutative(kind)) {
    if (a->is_constant() || (!b->is_constant() && a->hash() > b->hash()))
      std::swap(a, b);
  }
  return intern(kind, result_w, 0, nullptr, {std::move(a), std::move(b)});
}

}  // namespace

ExprRef mk_add(ExprRef a, ExprRef b) {
  if (a->is_constant() && a->constant_value() == 0) return b;
  if (b->is_constant() && b->constant_value() == 0) return a;
  return mk_binop(ExprKind::kAdd, std::move(a), std::move(b));
}

ExprRef mk_sub(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 0) return a;
  if (a == b) return mk_const(0, a->width());
  return mk_binop(ExprKind::kSub, std::move(a), std::move(b));
}

ExprRef mk_mul(ExprRef a, ExprRef b) {
  if (a->is_constant()) std::swap(a, b);
  if (b->is_constant()) {
    if (b->constant_value() == 0) return b;
    if (b->constant_value() == 1) return a;
  }
  return mk_binop(ExprKind::kMul, std::move(a), std::move(b));
}

ExprRef mk_udiv(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 1) return a;
  return mk_binop(ExprKind::kUDiv, std::move(a), std::move(b));
}

ExprRef mk_sdiv(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 1) return a;
  return mk_binop(ExprKind::kSDiv, std::move(a), std::move(b));
}

ExprRef mk_urem(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 1)
    return mk_const(0, a->width());
  return mk_binop(ExprKind::kURem, std::move(a), std::move(b));
}

ExprRef mk_srem(ExprRef a, ExprRef b) {
  return mk_binop(ExprKind::kSRem, std::move(a), std::move(b));
}

ExprRef mk_and(ExprRef a, ExprRef b) {
  if (a->is_constant()) std::swap(a, b);
  if (b->is_constant()) {
    if (b->constant_value() == 0) return b;
    if (b->constant_value() == truncate_to_width(~std::uint64_t{0}, b->width()))
      return a;
  }
  if (a == b) return a;
  return mk_binop(ExprKind::kAnd, std::move(a), std::move(b));
}

ExprRef mk_or(ExprRef a, ExprRef b) {
  if (a->is_constant()) std::swap(a, b);
  if (b->is_constant()) {
    if (b->constant_value() == 0) return a;
    if (b->constant_value() == truncate_to_width(~std::uint64_t{0}, b->width()))
      return b;
  }
  if (a == b) return a;
  return mk_binop(ExprKind::kOr, std::move(a), std::move(b));
}

ExprRef mk_xor(ExprRef a, ExprRef b) {
  if (a->is_constant()) std::swap(a, b);
  if (b->is_constant() && b->constant_value() == 0) return a;
  if (a == b) return mk_const(0, a->width());
  return mk_binop(ExprKind::kXor, std::move(a), std::move(b));
}

ExprRef mk_shl(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 0) return a;
  return mk_binop(ExprKind::kShl, std::move(a), std::move(b));
}

ExprRef mk_lshr(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 0) return a;
  return mk_binop(ExprKind::kLShr, std::move(a), std::move(b));
}

ExprRef mk_ashr(ExprRef a, ExprRef b) {
  if (b->is_constant() && b->constant_value() == 0) return a;
  return mk_binop(ExprKind::kAShr, std::move(a), std::move(b));
}

ExprRef mk_eq(ExprRef a, ExprRef b) {
  if (a == b) return mk_bool(true);
  // Eq(x, true/false) on width-1 collapses to x / not x.
  if (a->width() == 1) {
    if (a->is_true()) return b;
    if (a->is_false()) return mk_lnot(b);
    if (b->is_true()) return a;
    if (b->is_false()) return mk_lnot(a);
  }
  return mk_binop(ExprKind::kEq, std::move(a), std::move(b));
}

ExprRef mk_ne(ExprRef a, ExprRef b) { return mk_lnot(mk_eq(std::move(a), std::move(b))); }

ExprRef mk_ult(ExprRef a, ExprRef b) {
  if (a == b) return mk_bool(false);
  if (b->is_constant() && b->constant_value() == 0) return mk_bool(false);
  return mk_binop(ExprKind::kUlt, std::move(a), std::move(b));
}

ExprRef mk_ule(ExprRef a, ExprRef b) {
  if (a == b) return mk_bool(true);
  if (a->is_constant() && a->constant_value() == 0) return mk_bool(true);
  return mk_binop(ExprKind::kUle, std::move(a), std::move(b));
}

ExprRef mk_ugt(ExprRef a, ExprRef b) { return mk_ult(std::move(b), std::move(a)); }
ExprRef mk_uge(ExprRef a, ExprRef b) { return mk_ule(std::move(b), std::move(a)); }

ExprRef mk_slt(ExprRef a, ExprRef b) {
  if (a == b) return mk_bool(false);
  return mk_binop(ExprKind::kSlt, std::move(a), std::move(b));
}

ExprRef mk_sle(ExprRef a, ExprRef b) {
  if (a == b) return mk_bool(true);
  return mk_binop(ExprKind::kSle, std::move(a), std::move(b));
}

ExprRef mk_sgt(ExprRef a, ExprRef b) { return mk_slt(std::move(b), std::move(a)); }
ExprRef mk_sge(ExprRef a, ExprRef b) { return mk_sle(std::move(b), std::move(a)); }

ExprRef mk_lnot(ExprRef e) {
  assert(e->width() == 1);
  if (e->is_constant()) return mk_bool(e->constant_value() == 0);
  // De-double-negate via Eq(e, false) normal form: Not over width-1 is Xor 1.
  if (e->kind() == ExprKind::kXor && e->kid(1)->is_true()) return e->kid(0);
  // Invert comparisons directly where an inverse kind exists.
  switch (e->kind()) {
    case ExprKind::kUlt: return mk_ule(e->kid(1), e->kid(0));
    case ExprKind::kUle: return mk_ult(e->kid(1), e->kid(0));
    case ExprKind::kSlt: return mk_sle(e->kid(1), e->kid(0));
    case ExprKind::kSle: return mk_slt(e->kid(1), e->kid(0));
    default: break;
  }
  return mk_binop(ExprKind::kXor, std::move(e), mk_bool(true));
}

ExprRef mk_land(ExprRef a, ExprRef b) {
  assert(a->width() == 1 && b->width() == 1);
  return mk_and(std::move(a), std::move(b));
}

ExprRef mk_lor(ExprRef a, ExprRef b) {
  assert(a->width() == 1 && b->width() == 1);
  return mk_or(std::move(a), std::move(b));
}

// --- Traversals -----------------------------------------------------------

namespace {

/// The visited set of collect_reads(): an open-addressing set of node
/// pointers that remembers which slots it filled, so emptying it costs the
/// last walk's nodes and not the table's capacity. One lives on each
/// thread and keeps the largest capacity any walk there needed, so after
/// the first few walks a walk allocates nothing.
class WalkSet {
 public:
  /// Adds `node`; false if it is already in.
  bool insert(const Expr* node) {
    if (2 * (filled_.size() + 1) > slots_.size()) grow();
    for (std::size_t i = home(node);; i = (i + 1) & mask()) {
      if (slots_[i] == node) return false;
      if (slots_[i] == nullptr) {
        slots_[i] = node;
        filled_.push_back(static_cast<std::uint32_t>(i));
        return true;
      }
    }
  }
  std::size_t size() const { return filled_.size(); }
  /// Empties the slots filled since the last clear().
  void clear() {
    for (const std::uint32_t i : filled_) slots_[i] = nullptr;
    filled_.clear();
  }

 private:
  static constexpr unsigned kMinBits = 10;

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing, as in NodeMap.
  std::size_t home(const Expr* node) const {
    const auto bits =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(node));
    return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - bits_));
  }
  /// Doubles the table (or allocates the first one), keeping the load at
  /// most one half, and moves the filled slots over.
  void grow() {
    const unsigned bits = slots_.empty() ? kMinBits : bits_ + 1;
    std::vector<const Expr*> old(std::size_t{1} << bits, nullptr);
    old.swap(slots_);
    bits_ = bits;
    for (std::uint32_t& i : filled_) {
      const Expr* node = old[i];
      std::size_t j = home(node);
      while (slots_[j] != nullptr) j = (j + 1) & mask();
      slots_[j] = node;
      i = static_cast<std::uint32_t>(j);
    }
  }

  std::vector<const Expr*> slots_;
  unsigned bits_ = kMinBits;
  std::vector<std::uint32_t> filled_;
};

}  // namespace

std::size_t collect_reads(const ExprRef& e, std::vector<ReadSite>& out) {
  thread_local WalkSet seen;
  thread_local std::vector<const Expr*> stack;
  // Emptied first, so a walk that threw leaves nothing behind.
  seen.clear();
  stack.clear();
  // Iterative: chains can be deeper than the C++ stack allows.
  stack.push_back(e.get());
  while (!stack.empty()) {
    const Expr* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node)) continue;
    if (node->kind() == ExprKind::kRead) {
      out.push_back(ReadSite{node->array(), node->read_index()});
      continue;
    }
    for (std::size_t i = 0; i < node->num_kids(); ++i)
      stack.push_back(node->kid(i).get());
  }
  return seen.size();
}

std::size_t expr_dag_size(const ExprRef& e) {
  NodeMap<bool> seen;
  std::vector<const Expr*> stack{e.get()};
  while (!stack.empty()) {
    const Expr* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node, true)) continue;
    for (std::size_t i = 0; i < node->num_kids(); ++i)
      stack.push_back(node->kid(i).get());
  }
  return seen.size();
}

std::string Expr::to_string() const {
  std::ostringstream out;
  switch (kind_) {
    case ExprKind::kConstant:
      out << value_ << ":w" << width();
      break;
    case ExprKind::kRead:
      out << "(Read " << array_->name() << ' ' << value_ << ')';
      break;
    case ExprKind::kExtract:
      out << "(Extract w" << width() << " off" << value_ << ' '
          << kids_[0]->to_string() << ')';
      break;
    default: {
      out << '(' << expr_kind_name(kind_) << " w" << width();
      for (std::size_t i = 0; i < num_kids_; ++i)
        out << ' ' << kids_[i]->to_string();
      out << ')';
      break;
    }
  }
  return out.str();
}

}  // namespace pbse
