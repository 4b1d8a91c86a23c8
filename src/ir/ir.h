// Mini-IR: a compact, typed register IR that stands in for LLVM bitcode.
//
// Programs under test are compiled (by src/lang) or hand-built (by
// ir::Builder) into this IR and interpreted by the VM — concretely,
// symbolically, or in concolic lockstep.
//
// Shape: functions of basic blocks of instructions; infinite virtual
// registers with single assignment; mutable variables live in memory via
// Alloca/Load/Store (no phi nodes needed). Pointers are first-class values
// (object-id + byte offset in the VM), so every memory access is
// bounds-checkable, exactly as in KLEE's memory model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pbse::ir {

inline constexpr std::uint32_t kNoReg = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoFunc = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

/// Value type: an integer of 1..64 bits, a byte pointer, or void (calls).
struct Type {
  enum class Kind : std::uint8_t { kInt, kPtr, kVoid };
  Kind kind = Kind::kVoid;
  unsigned width = 0;  // bits; meaningful for kInt only

  static Type int_ty(unsigned width) { return {Kind::kInt, width}; }
  static Type ptr_ty() { return {Kind::kPtr, 64}; }
  static Type void_ty() { return {Kind::kVoid, 0}; }

  bool is_int() const { return kind == Kind::kInt; }
  bool is_ptr() const { return kind == Kind::kPtr; }
  bool is_void() const { return kind == Kind::kVoid; }
  bool operator==(const Type& o) const {
    return kind == o.kind && (kind != Kind::kInt || width == o.width);
  }
  std::string to_string() const;
};

enum class Opcode : std::uint8_t {
  kAlloca,   // result = new object of alloca_size bytes (zero-filled)
  kLoad,     // result = little-endian load of `width` bits at ops[0]
  kStore,    // store ops[1] (int) at pointer ops[0]
  kGep,      // result = ops[0] + ops[1] bytes (pointer arithmetic)
  kBin,      // result = ops[0] <bin> ops[1]
  kCmp,      // result (i1) = ops[0] <pred> ops[1]
  kCast,     // result = cast(ops[0]) to `width`
  kSelect,   // result = ops[0] ? ops[1] : ops[2]
  kBr,       // conditional branch on ops[0] to bb_then / bb_else
  kJmp,      // unconditional jump to bb_then
  kCall,     // result = callee(ops...)
  kRet,      // return ops[0] (if any)
  kIntrinsic,  // engine intrinsic, see Intrinsic
  kSlotGet,  // result = value of pointer slot `slot`
  kSlotSet,  // pointer slot `slot` = ops[0]
  kGlobalAddr,  // result = pointer to module global with index `slot`
  kUnreachable,
};

enum class BinOp : std::uint8_t {
  kAdd, kSub, kMul, kUDiv, kSDiv, kURem, kSRem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,
};

enum class CmpPred : std::uint8_t {
  kEq, kNe, kUlt, kUle, kUgt, kUge, kSlt, kSle, kSgt, kSge,
};

enum class CastOp : std::uint8_t { kZExt, kSExt, kTrunc };

/// Engine intrinsics callable from target programs.
enum class Intrinsic : std::uint8_t {
  kOut,        // out(value): observable output sink (charged, not stored)
  kAssert,     // pbse_assert(cond): reports an assertion-failure bug if 0
  kAbort,      // abort(): terminates the path as an error-free exit
  kCheckedAdd, // result = a + b, reports integer-overflow bug on wrap
  kCheckedMul, // result = a * b, reports integer-overflow bug on wrap
};

/// Instruction operand: a constant, a virtual register, or absent.
struct Operand {
  enum class Kind : std::uint8_t { kNone, kConst, kReg };
  Kind kind = Kind::kNone;
  Type type;
  std::uint64_t cval = 0;   // kConst payload
  std::uint32_t reg = kNoReg;  // kReg payload

  static Operand none() { return {}; }
  static Operand constant(std::uint64_t v, unsigned width);
  static Operand reg_of(std::uint32_t reg, Type type);
  bool is_const() const { return kind == Kind::kConst; }
  bool is_reg() const { return kind == Kind::kReg; }
};

struct Instruction {
  Opcode op = Opcode::kUnreachable;
  BinOp bin = BinOp::kAdd;
  CmpPred pred = CmpPred::kEq;
  CastOp cast = CastOp::kZExt;
  Intrinsic intrinsic = Intrinsic::kOut;
  unsigned width = 0;             // result width (kLoad/kBin/kCast/kSelect)
  std::uint32_t result = kNoReg;  // defined register, if any
  std::vector<Operand> ops;
  std::uint32_t bb_then = kNoBlock;  // kBr taken target / kJmp target
  std::uint32_t bb_else = kNoBlock;  // kBr fall-through target
  std::uint32_t callee = kNoFunc;    // kCall target (module function index)
  std::uint64_t alloca_size = 0;     // kAlloca byte size
  std::uint32_t slot = 0;            // kSlotGet/kSlotSet pointer-slot index
  std::uint32_t line = 0;            // source line for diagnostics

  bool is_terminator() const {
    return op == Opcode::kBr || op == Opcode::kJmp || op == Opcode::kRet ||
           op == Opcode::kUnreachable;
  }
};

struct BasicBlock {
  std::uint32_t id = kNoBlock;         // index within the function
  std::uint32_t global_id = kNoBlock;  // module-wide id (BBV coordinate)
  std::string label;
  std::vector<Instruction> insts;
};

class Function {
 public:
  Function(std::string name, std::vector<Type> params, Type ret)
      : name_(std::move(name)), params_(std::move(params)), ret_(ret) {}

  const std::string& name() const { return name_; }
  const std::vector<Type>& params() const { return params_; }
  Type ret_type() const { return ret_; }

  std::uint32_t add_block(std::string label);
  BasicBlock& block(std::uint32_t id) { return blocks_[id]; }
  const BasicBlock& block(std::uint32_t id) const { return blocks_[id]; }
  std::size_t num_blocks() const { return blocks_.size(); }
  std::vector<BasicBlock>& blocks() { return blocks_; }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  /// Allocates a fresh virtual register of the given type.
  std::uint32_t new_reg(Type type) {
    reg_types_.push_back(type);
    return static_cast<std::uint32_t>(reg_types_.size() - 1);
  }
  std::size_t num_regs() const { return reg_types_.size(); }
  Type reg_type(std::uint32_t reg) const { return reg_types_[reg]; }

  /// Mutable pointer-typed local slots (MiniC pointer variables). Memory
  /// cells hold symbolic bytes, so pointer values — (object, offset) pairs
  /// in the VM — live in these dedicated frame slots instead.
  std::uint32_t new_slot() { return num_slots_++; }
  std::uint32_t num_slots() const { return num_slots_; }

  /// Module-assigned index (set by Module::add_function).
  std::uint32_t index() const { return index_; }
  void set_index(std::uint32_t i) { index_ = i; }

 private:
  std::string name_;
  std::vector<Type> params_;
  Type ret_;
  std::vector<BasicBlock> blocks_;
  std::vector<Type> reg_types_;
  std::uint32_t num_slots_ = 0;
  std::uint32_t index_ = kNoFunc;
};

/// A module-level named memory object with initial contents (e.g. constant
/// tables, fixed scratch buffers).
struct Global {
  std::string name;
  std::uint64_t size = 0;
  std::vector<std::uint8_t> init;  // zero-padded to `size`
  bool writable = true;
};

class Module {
 public:
  /// Adds a function; the module owns it. Returns its index.
  std::uint32_t add_function(std::unique_ptr<Function> fn);

  Function* function(std::uint32_t index) { return functions_[index].get(); }
  const Function* function(std::uint32_t index) const {
    return functions_[index].get();
  }
  Function* function_by_name(const std::string& name);
  const Function* function_by_name(const std::string& name) const;
  std::size_t num_functions() const { return functions_.size(); }

  std::uint32_t add_global(Global g);
  const Global& global(std::uint32_t index) const { return globals_[index]; }
  std::size_t num_globals() const { return globals_.size(); }
  /// Index of a global by name, or kNoFunc if absent.
  std::uint32_t global_index(const std::string& name) const;

  /// Assigns module-wide basic-block ids (the BBV coordinate space).
  /// Must be called after all functions are added, before execution.
  void finalize();
  bool finalized() const { return finalized_; }
  std::uint32_t total_blocks() const { return total_blocks_; }

  /// Maps a global BB id back to (function index, block index).
  std::pair<std::uint32_t, std::uint32_t> locate_block(
      std::uint32_t global_id) const {
    return block_locations_[global_id];
  }

 private:
  std::vector<std::unique_ptr<Function>> functions_;
  std::unordered_map<std::string, std::uint32_t> function_index_;
  std::vector<Global> globals_;
  std::unordered_map<std::string, std::uint32_t> global_index_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> block_locations_;
  std::uint32_t total_blocks_ = 0;
  bool finalized_ = false;
};

}  // namespace pbse::ir
