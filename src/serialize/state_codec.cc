#include "serialize/state_codec.h"

#include <algorithm>
#include <string>
#include <utility>

#include "ir/ir.h"

namespace pbse::serialize {

namespace {
constexpr std::uint32_t kNullId = ~std::uint32_t{0};

// Lower bounds on encoded sizes, for Decoder::count.
constexpr std::size_t kMinExprBytes = 8;      // u32 new-node count + u32 root
constexpr std::size_t kMinValueBytes = 1;     // kind byte
constexpr std::size_t kMinPointerBytes = 12;  // u32 object + expression
constexpr std::size_t kMinFrameBytes = 28;    // seven u32 fields
constexpr std::size_t kMinModelEntryBytes = 9;  // array tag + u64 blob size

[[noreturn]] void malformed(const char* what) {
  throw SnapshotError(std::string("pbss: malformed expression node: ") + what);
}

/// Throws unless the decoded fields form a node the engine can evaluate:
/// a known kind, a width of 1..64, the kind's kid count and kid widths, and
/// a value within the width or the array. Frames from remote workers reach
/// this decoder, and the engine reads kids and widths without checks, so a
/// checksum-valid but ill-formed node must stop here.
ExprKind checked_node(std::uint8_t kind_byte, unsigned width,
                      std::uint64_t value, const ArrayRef& array,
                      const std::vector<ExprRef>& kids) {
  if (kind_byte > static_cast<std::uint8_t>(ExprKind::kSle))
    malformed("unknown kind");
  const auto kind = static_cast<ExprKind>(kind_byte);
  if (width < 1 || width > 64) malformed("width outside 1..64");
  std::size_t arity = 2;
  switch (kind) {
    case ExprKind::kConstant:
    case ExprKind::kRead: arity = 0; break;
    case ExprKind::kExtract:
    case ExprKind::kZExt:
    case ExprKind::kSExt:
    case ExprKind::kNot: arity = 1; break;
    case ExprKind::kSelect: arity = 3; break;
    default: break;
  }
  if (kids.size() != arity) malformed("kid count does not match the kind");
  if ((array != nullptr) != (kind == ExprKind::kRead))
    malformed("only a Read has an array");
  auto kid_width = [&](std::size_t k) { return kids[k]->width(); };
  bool ok = true;
  switch (kind) {
    case ExprKind::kConstant:
      ok = value == truncate_to_width(value, width);
      break;
    case ExprKind::kRead:
      ok = width == 8 && value < array->size();
      break;
    case ExprKind::kSelect:
      ok = kid_width(0) == 1 && kid_width(1) == width && kid_width(2) == width;
      break;
    case ExprKind::kConcat:
      ok = kid_width(0) + kid_width(1) == width;
      break;
    case ExprKind::kExtract:
      ok = width <= kid_width(0) && value <= kid_width(0) - width;
      break;
    case ExprKind::kZExt:
    case ExprKind::kSExt:
      ok = width >= kid_width(0);
      break;
    case ExprKind::kNot:
      ok = width == kid_width(0);
      break;
    case ExprKind::kEq:
    case ExprKind::kUlt:
    case ExprKind::kUle:
    case ExprKind::kSlt:
    case ExprKind::kSle:
      ok = width == 1 && kid_width(0) == kid_width(1);
      break;
    default:  // arithmetic, bitwise and shift operators
      ok = width == kid_width(0) && width == kid_width(1);
      break;
  }
  if (!ok) malformed("value or kid widths do not fit the kind");
  return kind;
}

}  // namespace

void StateCodec::register_array(const ArrayRef& array) {
  canonical_[{array->name(), array->size()}] = array;
}

// --- Arrays -----------------------------------------------------------------
// Inline def-or-ref: tag 0 = null, 1 = back-reference, 2 = definition.

std::uint32_t StateCodec::array_id(Encoder& enc, const ArrayRef& array) {
  if (array == nullptr) {
    enc.u8(0);
    return kNullId;
  }
  auto it = array_ids_.find(array.get());
  if (it != array_ids_.end()) {
    enc.u8(1);
    enc.u32(it->second);
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(array_ids_.size());
  array_ids_.emplace(array.get(), id);
  enc.u8(2);
  enc.str(array->name());
  enc.u32(array->size());
  return id;
}

ArrayRef StateCodec::decode_array_def(Decoder& dec) {
  const std::uint8_t tag = dec.u8();
  if (tag == 0) return nullptr;
  if (tag == 1) return array_by_id(dec.u32());
  if (tag != 2) throw SnapshotError("pbss: bad array tag");
  const std::string name = dec.str();
  const std::uint32_t size = dec.u32();
  // Rebind to the restoring campaign's canonical array when one matches;
  // expressions interned against it stay pointer-compatible with live ones.
  ArrayRef array;
  auto canon = canonical_.find({name, size});
  if (canon != canonical_.end())
    array = canon->second;
  else
    array = std::make_shared<Array>(name, size);
  arrays_.push_back(array);
  return array;
}

ArrayRef StateCodec::array_by_id(std::uint32_t id) const {
  if (id >= arrays_.size())
    throw SnapshotError("pbss: array back-reference out of range");
  return arrays_[id];
}

// --- Expressions ------------------------------------------------------------

void StateCodec::encode_expr(Encoder& enc, const ExprRef& e) {
  if (e == nullptr) {
    enc.u32(0);          // zero new definitions
    enc.u32(kNullId);    // null root
    return;
  }
  if (auto it = expr_ids_.find(e.get()); it != expr_ids_.end()) {
    enc.u32(0);  // zero new definitions
    enc.u32(it->second);
    return;
  }
  // Iterative post-order over the not-yet-emitted portion of the DAG. A
  // node takes its id when the walk finishes it, so kids have ids before
  // their parents and the id table alone prunes shared subtrees: a node
  // still on the stack is an ancestor of the top, never one of its kids.
  std::vector<const Expr*> order;
  std::vector<std::pair<const Expr*, std::size_t>> stack{{e.get(), 0}};
  while (!stack.empty()) {
    auto& [node, next_kid] = stack.back();
    if (next_kid == node->num_kids()) {
      expr_ids_.emplace(node, static_cast<std::uint32_t>(expr_ids_.size()));
      order.push_back(node);
      stack.pop_back();
      continue;
    }
    const Expr* kid = node->kid(next_kid++).get();
    if (!expr_ids_.count(kid)) stack.emplace_back(kid, 0);
  }

  enc.u32(static_cast<std::uint32_t>(order.size()));
  for (const Expr* node : order) {
    enc.u8(static_cast<std::uint8_t>(node->kind()));
    enc.u8(static_cast<std::uint8_t>(node->width()));
    enc.u64(node->kind() == ExprKind::kConstant ? node->constant_value()
            : node->kind() == ExprKind::kRead
                ? node->read_index()
                : node->kind() == ExprKind::kExtract ? node->extract_offset()
                                                     : 0);
    array_id(enc, node->array());
    enc.u32(static_cast<std::uint32_t>(node->num_kids()));
    for (std::size_t k = 0; k < node->num_kids(); ++k)
      enc.u32(expr_ids_.at(node->kid(k).get()));
  }
  enc.u32(expr_ids_.at(e.get()));
}

ExprRef StateCodec::decode_expr(Decoder& dec) {
  const std::uint32_t num_new = dec.u32();
  for (std::uint32_t n = 0; n < num_new; ++n) {
    const std::uint8_t kind_byte = dec.u8();
    const unsigned width = dec.u8();
    const std::uint64_t value = dec.u64();
    ArrayRef array = decode_array_def(dec);
    const std::uint32_t num_kids = dec.u32();
    // Checked before the reserve: an untrusted count must not size memory.
    if (num_kids > 3) malformed("more kids than any kind has");
    std::vector<ExprRef> kids;
    kids.reserve(num_kids);
    for (std::uint32_t k = 0; k < num_kids; ++k) {
      const std::uint32_t kid = dec.u32();
      if (kid >= exprs_.size())
        throw SnapshotError("pbss: expression kid id out of range");
      kids.push_back(exprs_[kid]);
    }
    const ExprKind kind = checked_node(kind_byte, width, value, array, kids);
    // mk_raw re-interns the exact stored shape — no builder folding, and
    // shared nodes come back pointer-identical via the intern table.
    exprs_.push_back(mk_raw(kind, width, value, std::move(array),
                            std::move(kids)));
  }
  const std::uint32_t root = dec.u32();
  if (root == kNullId) return nullptr;
  if (root >= exprs_.size())
    throw SnapshotError("pbss: expression root id out of range");
  return exprs_[root];
}

// --- Assignments ------------------------------------------------------------
// tag 0 = null, 1 = back-reference, 2 = definition. Entries sorted by
// array name for canonical bytes (Assignment stores them unordered).

void StateCodec::encode_assignment(
    Encoder& enc, const std::shared_ptr<const Assignment>& a) {
  if (a == nullptr) {
    enc.u8(0);
    return;
  }
  auto it = assignment_ids_.find(a.get());
  if (it != assignment_ids_.end()) {
    enc.u8(1);
    enc.u32(it->second);
    return;
  }
  assignment_ids_.emplace(a.get(),
                          static_cast<std::uint32_t>(assignment_ids_.size()));
  enc.u8(2);
  std::vector<const Array*> keys;
  for (const auto& [array, bytes] : a->all()) keys.push_back(array);
  std::sort(keys.begin(), keys.end(), [](const Array* x, const Array* y) {
    if (x->name() != y->name()) return x->name() < y->name();
    return x->size() < y->size();
  });
  enc.u32(static_cast<std::uint32_t>(keys.size()));
  for (const Array* array : keys) {
    enc.str(array->name());
    enc.u32(array->size());
    enc.blob(a->all().at(array));
  }
}

std::shared_ptr<const Assignment> StateCodec::decode_assignment(Decoder& dec) {
  const std::uint8_t tag = dec.u8();
  if (tag == 0) return nullptr;
  if (tag == 1) {
    const std::uint32_t id = dec.u32();
    if (id >= assignments_.size())
      throw SnapshotError("pbss: assignment back-reference out of range");
    return assignments_[id];
  }
  if (tag != 2) throw SnapshotError("pbss: bad assignment tag");
  auto a = std::make_shared<Assignment>();
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = dec.str();
    const std::uint32_t size = dec.u32();
    std::vector<std::uint8_t> bytes = dec.blob();
    ArrayRef array;
    auto canon = canonical_.find({name, size});
    if (canon != canonical_.end())
      array = canon->second;
    else
      array = std::make_shared<Array>(name, size);
    a->set(array, std::move(bytes));
  }
  assignments_.push_back(a);
  return a;
}

// --- ModelBytes -------------------------------------------------------------
// Order preserved verbatim: a ModelBytes list's order is first-read order
// and part of the solver's deterministic behaviour.

void StateCodec::encode_model_bytes(Encoder& enc, const ModelBytes& m) {
  enc.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [array, bytes] : m) {
    array_id(enc, array);
    enc.blob(bytes);
  }
}

ModelBytes StateCodec::decode_model_bytes(Decoder& dec) {
  const std::uint32_t n = dec.count(kMinModelEntryBytes);
  ModelBytes m;
  m.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ArrayRef array = decode_array_def(dec);
    if (array == nullptr)
      throw SnapshotError("pbss: null array in model bytes");
    m.emplace_back(std::move(array), dec.blob());
  }
  return m;
}

// --- Memory objects ---------------------------------------------------------
// tag 1 = back-reference (shared object already emitted), 2 = definition.

void StateCodec::encode_mem_object(Encoder& enc,
                                   const std::shared_ptr<vm::MemObject>& obj) {
  auto it = mem_object_ids_.find(obj.get());
  if (it != mem_object_ids_.end()) {
    enc.u8(1);
    enc.u32(it->second);
    return;
  }
  mem_object_ids_.emplace(obj.get(),
                          static_cast<std::uint32_t>(mem_object_ids_.size()));
  enc.u8(2);
  enc.u64(obj->size);
  enc.u8(obj->writable ? 1 : 0);
  enc.u8(obj->alive ? 1 : 0);
  enc.str(obj->name);
  enc.u32(static_cast<std::uint32_t>(obj->bytes.size()));
  for (const ExprRef& b : obj->bytes) encode_expr(enc, b);
}

std::shared_ptr<vm::MemObject> StateCodec::decode_mem_object(Decoder& dec) {
  const std::uint8_t tag = dec.u8();
  if (tag == 1) {
    const std::uint32_t id = dec.u32();
    if (id >= mem_objects_.size())
      throw SnapshotError("pbss: memory-object back-reference out of range");
    return mem_objects_[id];
  }
  if (tag != 2) throw SnapshotError("pbss: bad memory-object tag");
  auto obj = std::make_shared<vm::MemObject>();
  obj->size = dec.u64();
  obj->writable = dec.u8() != 0;
  obj->alive = dec.u8() != 0;
  obj->name = dec.str();
  // check_access bounds an access by `size`, then load_bytes indexes
  // `bytes` and concatenates width-8 bytes.
  const std::uint32_t n = dec.count(kMinExprBytes);
  if (n != obj->size)
    throw SnapshotError("pbss: memory object holds " + std::to_string(n) +
                        " bytes but has size " + std::to_string(obj->size));
  obj->bytes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ExprRef byte = decode_expr(dec);
    if (byte == nullptr || byte->width() != 8)
      throw SnapshotError("pbss: memory byte is not a width-8 expression");
    obj->bytes.push_back(std::move(byte));
  }
  mem_objects_.push_back(obj);
  return obj;
}

// --- Values / pointers ------------------------------------------------------

void StateCodec::encode_pointer(Encoder& enc, const vm::Pointer& p) {
  enc.u32(p.object);
  encode_expr(enc, p.offset);
}

vm::Pointer StateCodec::decode_pointer(Decoder& dec) {
  vm::Pointer p;
  p.object = dec.u32();
  p.offset = decode_expr(dec);
  if (!p.is_null() && (p.offset == nullptr || p.offset->width() != 64))
    throw SnapshotError("pbss: pointer offset is not a width-64 expression");
  return p;
}

void StateCodec::encode_value(Encoder& enc, const vm::Value& v) {
  enc.u8(static_cast<std::uint8_t>(v.kind));
  if (v.kind == vm::Value::Kind::kInt) encode_expr(enc, v.i);
  if (v.kind == vm::Value::Kind::kPtr) encode_pointer(enc, v.p);
}

vm::Value StateCodec::decode_value(Decoder& dec) {
  vm::Value v;
  const std::uint8_t kind = dec.u8();
  if (kind > static_cast<std::uint8_t>(vm::Value::Kind::kPtr))
    throw SnapshotError("pbss: value kind out of range");
  v.kind = static_cast<vm::Value::Kind>(kind);
  if (v.kind == vm::Value::Kind::kInt) {
    v.i = decode_expr(dec);
    if (v.i == nullptr) throw SnapshotError("pbss: integer value is null");
  }
  if (v.kind == vm::Value::Kind::kPtr) v.p = decode_pointer(dec);
  return v;
}

// --- Whole states -----------------------------------------------------------

void StateCodec::encode_state(Encoder& enc, const vm::ExecutionState& s) {
  enc.u64(s.id);
  enc.u64(s.parent_id);

  enc.u32(static_cast<std::uint32_t>(s.stack.size()));
  for (const vm::StackFrame& f : s.stack) {
    enc.u32(f.fn->index());
    enc.u32(f.block);
    enc.u32(f.inst);
    enc.u32(static_cast<std::uint32_t>(f.regs.size()));
    for (const vm::Value& v : f.regs) encode_value(enc, v);
    enc.u32(static_cast<std::uint32_t>(f.slots.size()));
    for (const vm::Pointer& p : f.slots) encode_pointer(enc, p);
    enc.u32(f.ret_reg);
    enc.u32(static_cast<std::uint32_t>(f.allocas.size()));
    for (std::uint32_t a : f.allocas) enc.u32(a);
  }

  // Memory: object map sorted by id for canonical bytes; shared objects
  // dedup through the table, preserving COW sharing across states.
  std::vector<std::uint32_t> ids;
  for (const auto& [id, obj] : s.memory.objects()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  enc.u32(s.memory.next_id());
  enc.u32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint32_t id : ids) {
    enc.u32(id);
    encode_mem_object(enc, s.memory.objects().at(id));
  }

  // Constraints, in insertion order: the length of the prefix this list
  // shares with the list of the state written before it, then the rest.
  // Alg. 2 records a seedState at every symbolic branch of the seed path
  // with the path condition up to its fork, so the lists of states written
  // one after another mostly share a long prefix (97% of the constraint
  // references of a readelf seed-scale-12 snapshot). Decode copies a
  // running set of the shared prefix and add()s the rest: the same add()
  // sequence as the original set, so hashes and partitions come back
  // identical without re-adding every constraint of every state.
  const std::vector<ExprRef>& list = s.constraints.constraints();
  std::size_t shared = 0;
  while (shared < list.size() && shared < last_encoded_.size() &&
         list[shared].get() == last_encoded_[shared])
    ++shared;
  enc.u32(static_cast<std::uint32_t>(shared));
  enc.u32(static_cast<std::uint32_t>(list.size() - shared));
  last_encoded_.resize(shared);
  for (std::size_t i = shared; i < list.size(); ++i) {
    encode_expr(enc, list[i]);
    last_encoded_.push_back(list[i].get());
  }

  encode_assignment(enc, s.model);
  // model_eval is NOT serialized: a pure per-model memo, rebuilt lazily by
  // the executor. Dropping it never changes ticks — solver charges use
  // expr_cost, not memo warmth.

  enc.u8(static_cast<std::uint8_t>(s.termination));
  enc.u64(s.instructions);
  enc.u64(s.depth);
  enc.u64(s.born_at_ticks);
  enc.u32(s.fork_bb);
  enc.u32(s.fork_inst);
  enc.u8(s.covered_new ? 1 : 0);
  enc.u64(s.insts_since_cov_new);
  enc.u32(s.num_entry_snapshots);
  for (std::uint32_t i = 0; i < s.num_entry_snapshots; ++i)
    enc.u64(s.entry_snapshots[i]);
}

std::unique_ptr<vm::ExecutionState> StateCodec::decode_state(
    Decoder& dec, const ir::Module& module) {
  auto s = std::make_unique<vm::ExecutionState>();
  s->id = dec.u64();
  s->parent_id = dec.u64();

  // The executor indexes a frame's block, instruction, registers, slots
  // and its caller's result register without checks, so each must fit the
  // frame's function here.
  const std::uint32_t num_frames = dec.count(kMinFrameBytes);
  s->stack.reserve(num_frames);
  for (std::uint32_t i = 0; i < num_frames; ++i) {
    vm::StackFrame f;
    const std::uint32_t fn_index = dec.u32();
    if (fn_index >= module.num_functions())
      throw SnapshotError("pbss: stack-frame function index out of range");
    f.fn = module.function(fn_index);
    f.block = dec.u32();
    f.inst = dec.u32();
    if (f.block >= f.fn->num_blocks() ||
        f.inst >= f.fn->block(f.block).insts.size())
      throw SnapshotError("pbss: stack-frame position outside its function");
    const std::uint32_t num_regs = dec.count(kMinValueBytes);
    if (num_regs != f.fn->num_regs())
      throw SnapshotError("pbss: stack-frame register count mismatch");
    f.regs.reserve(num_regs);
    for (std::uint32_t r = 0; r < num_regs; ++r)
      f.regs.push_back(decode_value(dec));
    const std::uint32_t num_slots = dec.count(kMinPointerBytes);
    if (num_slots != f.fn->num_slots())
      throw SnapshotError("pbss: stack-frame slot count mismatch");
    f.slots.reserve(num_slots);
    for (std::uint32_t p = 0; p < num_slots; ++p)
      f.slots.push_back(decode_pointer(dec));
    f.ret_reg = dec.u32();
    if (f.ret_reg != ir::kNoReg &&
        (s->stack.empty() || f.ret_reg >= s->stack.back().fn->num_regs()))
      throw SnapshotError("pbss: stack-frame result register out of range");
    const std::uint32_t num_allocas = dec.count(4);
    f.allocas.reserve(num_allocas);
    for (std::uint32_t a = 0; a < num_allocas; ++a)
      f.allocas.push_back(dec.u32());
    s->stack.push_back(std::move(f));
  }

  const std::uint32_t next_obj_id = dec.u32();
  const std::uint32_t num_objects = dec.u32();
  for (std::uint32_t i = 0; i < num_objects; ++i) {
    const std::uint32_t id = dec.u32();
    s->memory.restore_object(id, decode_mem_object(dec));
  }
  s->memory.set_next_id(next_obj_id);

  const std::uint32_t shared = dec.u32();
  if (shared > last_decoded_.size())
    throw SnapshotError("pbss: shared constraint prefix of " +
                        std::to_string(shared) + " exceeds the previous " +
                        "state's " + std::to_string(last_decoded_.size()) +
                        " constraints");
  if (shared < prefix_.size()) prefix_ = ConstraintSet();
  for (std::size_t i = prefix_.size(); i < shared; ++i)
    prefix_.add(last_decoded_[i]);
  s->constraints = prefix_;
  last_decoded_.resize(shared);
  const std::uint32_t num_suffix = dec.u32();
  for (std::uint32_t i = 0; i < num_suffix; ++i) {
    ExprRef c = decode_expr(dec);
    // A set never holds a constant or a duplicate, so every list entry
    // grows the set by one and prefix_.size() counts the entries it holds.
    const std::size_t before = s->constraints.size();
    if (c == nullptr || c->width() != 1 || !s->constraints.add(c) ||
        s->constraints.size() == before)
      throw SnapshotError("pbss: constraint is not a new non-constant "
                          "width-1 expression");
    last_decoded_.push_back(std::move(c));
  }

  s->model = decode_assignment(dec);
  s->model_eval = nullptr;

  const std::uint8_t termination = dec.u8();
  if (termination > static_cast<std::uint8_t>(vm::TerminationReason::kSubsumed))
    throw SnapshotError("pbss: termination reason out of range");
  s->termination = static_cast<vm::TerminationReason>(termination);
  s->instructions = dec.u64();
  s->depth = dec.u64();
  s->born_at_ticks = dec.u64();
  s->fork_bb = dec.u32();
  s->fork_inst = dec.u32();
  s->covered_new = dec.u8() != 0;
  s->insts_since_cov_new = dec.u64();
  s->num_entry_snapshots = dec.u32();
  if (s->num_entry_snapshots > vm::ExecutionState::kMaxEntrySnapshots)
    throw SnapshotError("pbss: entry-snapshot count out of range");
  for (std::uint32_t i = 0; i < s->num_entry_snapshots; ++i)
    s->entry_snapshots[i] = dec.u64();
  return s;
}

}  // namespace pbse::serialize
