// Structural codecs for execution state: the expression DAG, assignments,
// COW memory objects, constraint sets, stacks — everything a pbss payload
// is built from (DESIGN.md §11).
//
// Sharing preservation is the load-bearing invariant. Three dedup tables
// (expressions, Assignments, MemObjects) assign a stable id to every
// shared node at first encounter; later references emit the id only. On
// decode the same tables hand back the SAME heap object for the same id,
// so two restored states that shared a memory object before the snapshot
// share one again after — fork cost, memory footprint and the
// copy-on-write semantics all survive the round trip.
//
// Expression identity is subtler: the interner is THREAD-LOCAL and
// compares arrays BY POINTER. Decoded Read nodes must therefore rebind to
// the restoring campaign's canonical arrays (matched by name+size) before
// interning via mk_raw — otherwise a restored expression would never be
// pointer-equal to one the resumed run builds, and every solver-cache and
// constraint-dedup hit would silently miss.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "expr/node_map.h"
#include "serialize/pbss.h"
#include "solver/cache.h"
#include "solver/constraint_set.h"
#include "vm/memory.h"
#include "vm/state.h"

namespace pbse::ir {
class Module;
}

namespace pbse::serialize {

/// One snapshot's worth of dedup state. Use a fresh instance per encode
/// and per decode; the canonical byte-for-byte property depends on the
/// tables starting empty.
class StateCodec {
 public:
  /// Lower bound on one encoded state's size (its six u64 fields), for the
  /// count checks of lists that hold states.
  static constexpr std::size_t kMinStateBytes = 48;

  /// Registers a canonical array of the restoring campaign: decoded
  /// arrays with the same (name, size) resolve to exactly this ArrayRef.
  void register_array(const ArrayRef& array);

  // --- Arrays (dedup'd def-or-ref) -----------------------------------------
  void encode_array(Encoder& enc, const ArrayRef& array) {
    array_id(enc, array);
  }
  ArrayRef decode_array(Decoder& dec) { return decode_array_def(dec); }

  // --- Expressions --------------------------------------------------------
  /// Emits `e` as a list of new node definitions (post-order over the
  /// not-yet-emitted part of its DAG) followed by the root id. A null
  /// ExprRef emits the reserved id ~0.
  void encode_expr(Encoder& enc, const ExprRef& e);
  ExprRef decode_expr(Decoder& dec);

  // --- Assignments (shared state models) ----------------------------------
  void encode_assignment(Encoder& enc,
                         const std::shared_ptr<const Assignment>& a);
  std::shared_ptr<const Assignment> decode_assignment(Decoder& dec);

  // --- ModelBytes (solver-store entries) -----------------------------------
  void encode_model_bytes(Encoder& enc, const ModelBytes& m);
  ModelBytes decode_model_bytes(Decoder& dec);

  // --- Memory objects ------------------------------------------------------
  void encode_mem_object(Encoder& enc,
                         const std::shared_ptr<vm::MemObject>& obj);
  std::shared_ptr<vm::MemObject> decode_mem_object(Decoder& dec);

  // --- Whole states --------------------------------------------------------
  /// `module` resolves stack-frame function indices on decode. A state's
  /// constraint list is written relative to the list of the state this
  /// codec wrote before it, so states decode in the order they were
  /// encoded, each through the same codec.
  void encode_state(Encoder& enc, const vm::ExecutionState& s);
  std::unique_ptr<vm::ExecutionState> decode_state(Decoder& dec,
                                                   const ir::Module& module);

 private:
  std::uint32_t array_id(Encoder& enc, const ArrayRef& array);
  ArrayRef array_by_id(std::uint32_t id) const;
  ArrayRef decode_array_def(Decoder& dec);

  void encode_value(Encoder& enc, const vm::Value& v);
  vm::Value decode_value(Decoder& dec);
  void encode_pointer(Encoder& enc, const vm::Pointer& p);
  vm::Pointer decode_pointer(Decoder& dec);

  // Encode-side tables: node -> id, in emission order. Never null keys:
  // the encoders return before a lookup on null.
  NodeMap<std::uint32_t, const Expr*> expr_ids_;
  NodeMap<std::uint32_t, const Array*> array_ids_;
  NodeMap<std::uint32_t, const Assignment*> assignment_ids_;
  NodeMap<std::uint32_t, const vm::MemObject*> mem_object_ids_;

  // Decode-side tables: id -> reconstructed node.
  std::vector<ExprRef> exprs_;
  std::vector<ArrayRef> arrays_;
  std::vector<std::shared_ptr<const Assignment>> assignments_;
  std::vector<std::shared_ptr<vm::MemObject>> mem_objects_;

  /// (name, size) -> canonical array of the restoring campaign.
  std::map<std::pair<std::string, std::uint32_t>, ArrayRef> canonical_;

  // Constraint lists go out as a prefix shared with the previous state's
  // list plus a suffix (DESIGN.md §11).
  /// Encode side: the list of the state written last.
  std::vector<const Expr*> last_encoded_;
  /// Decode side: the list of the state read last, and a set built by
  /// add() over its first prefix_.size() entries.
  std::vector<ExprRef> last_decoded_;
  ConstraintSet prefix_;
};

}  // namespace pbse::serialize
