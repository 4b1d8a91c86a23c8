#include "ir/printer.h"

#include <sstream>

namespace pbse::ir {

namespace {

const char* bin_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kUDiv: return "udiv";
    case BinOp::kSDiv: return "sdiv";
    case BinOp::kURem: return "urem";
    case BinOp::kSRem: return "srem";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kXor: return "xor";
    case BinOp::kShl: return "shl";
    case BinOp::kLShr: return "lshr";
    case BinOp::kAShr: return "ashr";
  }
  return "?";
}

const char* pred_name(CmpPred pred) {
  switch (pred) {
    case CmpPred::kEq: return "eq";
    case CmpPred::kNe: return "ne";
    case CmpPred::kUlt: return "ult";
    case CmpPred::kUle: return "ule";
    case CmpPred::kUgt: return "ugt";
    case CmpPred::kUge: return "uge";
    case CmpPred::kSlt: return "slt";
    case CmpPred::kSle: return "sle";
    case CmpPred::kSgt: return "sgt";
    case CmpPred::kSge: return "sge";
  }
  return "?";
}

const char* intrinsic_name(Intrinsic i) {
  switch (i) {
    case Intrinsic::kOut: return "out";
    case Intrinsic::kAssert: return "assert";
    case Intrinsic::kAbort: return "abort";
    case Intrinsic::kCheckedAdd: return "checked_add";
    case Intrinsic::kCheckedMul: return "checked_mul";
  }
  return "?";
}

std::string operand_str(const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::kNone:
      return "none";
    case Operand::Kind::kConst:
      if (op.type.is_ptr()) return "null";
      return std::to_string(op.cval) + ":i" + std::to_string(op.type.width);
    case Operand::Kind::kReg:
      return "%" + std::to_string(op.reg);
  }
  return "?";
}

}  // namespace

std::string to_string(const Function& fn, const Instruction& inst) {
  std::ostringstream out;
  if (inst.result != kNoReg) out << '%' << inst.result << " = ";
  switch (inst.op) {
    case Opcode::kAlloca:
      out << "alloca " << inst.alloca_size;
      break;
    case Opcode::kLoad:
      out << "load i" << inst.width << ' ' << operand_str(inst.ops[0]);
      break;
    case Opcode::kStore:
      out << "store " << operand_str(inst.ops[0]) << ", "
          << operand_str(inst.ops[1]);
      break;
    case Opcode::kGep:
      out << "gep " << operand_str(inst.ops[0]) << " + "
          << operand_str(inst.ops[1]);
      break;
    case Opcode::kBin:
      out << bin_name(inst.bin) << " i" << inst.width << ' '
          << operand_str(inst.ops[0]) << ", " << operand_str(inst.ops[1]);
      break;
    case Opcode::kCmp:
      out << "cmp " << pred_name(inst.pred) << ' ' << operand_str(inst.ops[0])
          << ", " << operand_str(inst.ops[1]);
      break;
    case Opcode::kCast:
      out << (inst.cast == CastOp::kZExt
                  ? "zext"
                  : inst.cast == CastOp::kSExt ? "sext" : "trunc")
          << ' ' << operand_str(inst.ops[0]) << " to i" << inst.width;
      break;
    case Opcode::kSelect:
      out << "select " << operand_str(inst.ops[0]) << ", "
          << operand_str(inst.ops[1]) << ", " << operand_str(inst.ops[2]);
      break;
    case Opcode::kBr:
      out << "br " << operand_str(inst.ops[0]) << ", bb" << inst.bb_then
          << ", bb" << inst.bb_else;
      break;
    case Opcode::kJmp:
      out << "jmp bb" << inst.bb_then;
      break;
    case Opcode::kCall:
      out << "call @" << inst.callee << '(';
      for (std::size_t i = 0; i < inst.ops.size(); ++i)
        out << (i > 0 ? ", " : "") << operand_str(inst.ops[i]);
      out << ')';
      break;
    case Opcode::kRet:
      out << "ret";
      if (!inst.ops.empty()) out << ' ' << operand_str(inst.ops[0]);
      break;
    case Opcode::kIntrinsic:
      out << intrinsic_name(inst.intrinsic) << '(';
      for (std::size_t i = 0; i < inst.ops.size(); ++i)
        out << (i > 0 ? ", " : "") << operand_str(inst.ops[i]);
      out << ')';
      break;
    case Opcode::kSlotGet:
      out << "slot_get " << inst.slot;
      break;
    case Opcode::kSlotSet:
      out << "slot_set " << inst.slot << ", " << operand_str(inst.ops[0]);
      break;
    case Opcode::kGlobalAddr:
      out << "global_addr @" << inst.slot;
      break;
    case Opcode::kUnreachable:
      out << "unreachable";
      break;
  }
  (void)fn;
  return out.str();
}

std::string to_string(const Function& fn) {
  std::ostringstream out;
  out << "fn " << fn.name() << '(';
  for (std::size_t i = 0; i < fn.params().size(); ++i)
    out << (i > 0 ? ", " : "") << fn.params()[i].to_string();
  out << ") -> " << fn.ret_type().to_string() << " {\n";
  for (const BasicBlock& bb : fn.blocks()) {
    out << "bb" << bb.id;
    if (!bb.label.empty()) out << " (" << bb.label << ')';
    out << ":\n";
    for (const Instruction& inst : bb.insts)
      out << "  " << to_string(fn, inst) << '\n';
  }
  out << "}\n";
  return out.str();
}

std::string to_string(const Module& module) {
  std::ostringstream out;
  for (std::uint32_t gi = 0; gi < module.num_globals(); ++gi) {
    const Global& g = module.global(gi);
    out << "global " << g.name << '[' << g.size << ']'
        << (g.writable ? "" : " const");
    bool any = false;
    for (std::uint8_t b : g.init) any = any || b != 0;
    if (any) {
      out << " =";
      for (std::uint8_t b : g.init) out << ' ' << static_cast<unsigned>(b);
    }
    out << '\n';
  }
  for (std::uint32_t fi = 0; fi < module.num_functions(); ++fi)
    out << to_string(*module.function(fi));
  return out.str();
}

}  // namespace pbse::ir
