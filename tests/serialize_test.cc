// pbss snapshot/restore properties (DESIGN.md §11):
//  * framing rejects truncation, corruption and flavor mismatch loudly,
//  * expression/assignment/memory sharing survives the round trip,
//  * serialize(deserialize(snapshot)) is byte-for-byte identical,
//  * a campaign sliced at a batch boundary, snapshotted, restored into a
//    fresh process-state and resumed is TICK-EXACT against the monolithic
//    run — same coverage, same clock, same final snapshot bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "core/driver.h"
#include "core/pbse.h"
#include "lang/codegen.h"
#include "serialize/campaign_codec.h"
#include "serialize/frame.h"
#include "serialize/pbss.h"
#include "serialize/state_codec.h"
#include "solver/solver.h"
#include "targets/targets.h"
#include "vm/executor.h"

namespace pbse {
namespace {

using serialize::CampaignCodec;
using serialize::Decoder;
using serialize::Encoder;
using serialize::SnapshotError;
using serialize::SnapshotFlavor;
using serialize::StateCodec;

// A three-stage pipeline with a deep out-of-bounds read (core_test's
// program): a short KLEE or pbSE run forks, covers blocks, logs output and
// finds the bug, so its snapshot fills every payload section.
constexpr const char* kPipeline = R"(
u8 table[4] = { 1, 2, 3, 4 };
u32 main(u8* f, u32 size) {
  if (size < 8) { return 1; }
  if (f[0] != 'P' || f[1] != '1') { return 2; }
  u32 n = (u32)f[2];
  u32 sum = 0;
  for (u32 i = 0; i < n; ++i) {
    if (3 + i >= size) { return 3; }
    sum += (u32)f[3 + i];
  }
  out(sum);
  u32 off = 3 + n;
  u32 records = 0;
  while (off + 2 <= size) {
    u32 kind = (u32)f[off];
    u32 value = (u32)f[off + 1];
    off += 2;
    if (kind == 0) { break; }
    if (kind == 3) { out(table[value]); }
    records += 1;
  }
  out(records);
  return 0;
}
)";

std::vector<std::uint8_t> pipeline_seed() {
  return {'P', '1', 3, 10, 20, 30, 3, 1, 3, 2, 0, 0};
}

ir::Module compile_pipeline() {
  ir::Module module;
  std::string error;
  if (!minic::compile(kPipeline, module, error))
    ADD_FAILURE() << "compile error: " << error;
  module.finalize();
  return module;
}

std::uint32_t u32_at(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  Decoder dec(bytes.data() + at, 4);
  return dec.u32();
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// In an encoded state with no frames and no memory objects, the constraint
// section (shared-prefix length, suffix count, suffix expressions) follows
// the two u64 ids and three u32 counts.
constexpr std::size_t kBareStateConstraintsAt = 28;

// --- Framing --------------------------------------------------------------

std::vector<std::uint8_t> some_payload() {
  Encoder enc;
  enc.u64(0xdeadbeefcafef00dULL);
  enc.str("hello snapshot");
  return enc.data();
}

TEST(Pbss, FramingRoundTrip) {
  const auto payload = some_payload();
  const auto framed = serialize::frame_snapshot(SnapshotFlavor::kKlee, payload);
  EXPECT_EQ(serialize::unframe_snapshot(framed, SnapshotFlavor::kKlee),
            payload);
}

TEST(Pbss, ChecksumCatchesEveryBitFlip) {
  const auto framed =
      serialize::frame_snapshot(SnapshotFlavor::kKlee, some_payload());
  // Flip one bit at several offsets spanning header, payload and footer.
  for (std::size_t at : {std::size_t{0}, std::size_t{5}, framed.size() / 2,
                         framed.size() - 1}) {
    auto bad = framed;
    bad[at] ^= 0x10;
    EXPECT_THROW(serialize::unframe_snapshot(bad, SnapshotFlavor::kKlee),
                 SnapshotError)
        << "bit flip at offset " << at;
  }
}

TEST(Pbss, TruncationCaught) {
  const auto framed =
      serialize::frame_snapshot(SnapshotFlavor::kKlee, some_payload());
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{12},
                           framed.size() - 1}) {
    std::vector<std::uint8_t> cut(framed.begin(), framed.begin() + keep);
    EXPECT_THROW(serialize::unframe_snapshot(cut, SnapshotFlavor::kKlee),
                 SnapshotError)
        << "truncated to " << keep << " bytes";
  }
}

TEST(Pbss, FlavorMismatchCaught) {
  const auto framed =
      serialize::frame_snapshot(SnapshotFlavor::kKlee, some_payload());
  try {
    serialize::unframe_snapshot(framed, SnapshotFlavor::kPbse);
    FAIL() << "flavor mismatch must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("flavor"), std::string::npos);
  }
}

TEST(Pbss, OlderVersionIsRejected) {
  // No reader for an older layout is kept: a well-formed frame (valid
  // footer) that carries the previous version number must still throw.
  auto framed =
      serialize::frame_snapshot(SnapshotFlavor::kKlee, some_payload());
  const std::uint32_t old_version = serialize::kPbssVersion - 1;
  for (int i = 0; i < 4; ++i)
    framed[4 + i] = static_cast<std::uint8_t>(old_version >> (8 * i));
  const std::uint64_t sum = serialize::fnv1a(framed.data(), framed.size() - 8);
  for (int i = 0; i < 8; ++i)
    framed[framed.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  try {
    serialize::unframe_snapshot(framed, SnapshotFlavor::kKlee);
    FAIL() << "an older version must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Pbss, TruncatedPayloadDiagnostic) {
  // A syntactically valid frame whose PAYLOAD is cut short exercises the
  // decoder's bounds checks (not just the checksum).
  const auto payload = some_payload();
  std::vector<std::uint8_t> cut(payload.begin(), payload.begin() + 3);
  const auto framed = serialize::frame_snapshot(SnapshotFlavor::kKlee, cut);
  const auto out = serialize::unframe_snapshot(framed, SnapshotFlavor::kKlee);
  Decoder dec(out);
  EXPECT_THROW(dec.u64(), SnapshotError);  // wants 8, has 3
}

TEST(Pbss, AtomicFileRoundTrip) {
  const std::string path = "pbss_file_roundtrip_test.pbss";
  const auto framed =
      serialize::frame_snapshot(SnapshotFlavor::kPbse, some_payload());
  serialize::write_file_atomic(path, framed);
  EXPECT_EQ(serialize::read_file(path), framed);
  // The tmp staging file must be gone after the rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
  EXPECT_THROW(serialize::read_file(path), SnapshotError);
}

// --- Structural sharing ---------------------------------------------------

TEST(StateCodecTest, ExprRoundTripPreservesIdentityAndBytes) {
  const ArrayRef arr = std::make_shared<Array>("file", 16);
  const ExprRef shared = mk_add(mk_read(arr, 3), mk_const(7, 8));
  const ExprRef root = mk_mul(shared, mk_sub(shared, mk_read(arr, 5)));

  StateCodec enc_codec;
  Encoder enc;
  enc_codec.encode_expr(enc, root);

  StateCodec dec_codec;
  dec_codec.register_array(arr);
  Decoder dec(enc.data());
  const ExprRef back = dec_codec.decode_expr(dec);
  EXPECT_TRUE(dec.done());
  // Hash-consing + canonical array rebinding: the decoded root IS the
  // original node, pointer-identical.
  EXPECT_EQ(back.get(), root.get());

  // Re-encoding with a fresh codec reproduces the bytes exactly.
  StateCodec re_codec;
  Encoder re;
  re_codec.encode_expr(re, back);
  EXPECT_EQ(re.data(), enc.data());
}

TEST(StateCodecTest, WideDagEncodesLinearly) {
  // A deliberately diamond-heavy DAG: without the visited guard this
  // encoding would be exponential, and without dedup the decoded tree
  // would lose sharing.
  const ArrayRef arr = std::make_shared<Array>("file", 4);
  ExprRef e = mk_read(arr, 0);
  for (int i = 0; i < 40; ++i) e = mk_add(e, e);

  StateCodec codec;
  Encoder enc;
  codec.encode_expr(enc, e);
  // 41 unique nodes + framing, nowhere near 2^40.
  EXPECT_LT(enc.size(), 4096u);

  StateCodec dec_codec;
  dec_codec.register_array(arr);
  Decoder dec(enc.data());
  EXPECT_EQ(dec_codec.decode_expr(dec).get(), e.get());
}

// One node definition in decode_expr's wire layout.
struct RawNode {
  std::uint8_t kind;
  std::uint8_t width;
  std::uint64_t value = 0;
  bool has_array = false;  // reads the 16-byte array "file"
  std::vector<std::uint32_t> kids = {};
};

std::vector<std::uint8_t> encode_raw_nodes(const std::vector<RawNode>& nodes) {
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(nodes.size()));
  bool array_defined = false;
  for (const RawNode& n : nodes) {
    enc.u8(n.kind);
    enc.u8(n.width);
    enc.u64(n.value);
    if (!n.has_array) {
      enc.u8(0);
    } else if (array_defined) {
      enc.u8(1);
      enc.u32(0);
    } else {
      enc.u8(2);
      enc.str("file");
      enc.u32(16);
      array_defined = true;
    }
    enc.u32(static_cast<std::uint32_t>(n.kids.size()));
    for (std::uint32_t kid : n.kids) enc.u32(kid);
  }
  enc.u32(static_cast<std::uint32_t>(nodes.size() - 1));  // root: last node
  return enc.data();
}

TEST(StateCodecTest, RejectsMalformedExpressionNodes) {
  const ArrayRef arr = std::make_shared<Array>("file", 16);
  const auto kind = [](ExprKind k) { return static_cast<std::uint8_t>(k); };
  // Well-formed nodes the malformed ones refer to: ids 0..3.
  const std::vector<RawNode> base = {
      {kind(ExprKind::kConstant), 1, 1},
      {kind(ExprKind::kConstant), 8, 7},
      {kind(ExprKind::kConstant), 32, 5},
      {kind(ExprKind::kRead), 8, 3, true},
  };
  const auto decode = [&](const RawNode& last) {
    std::vector<RawNode> nodes = base;
    nodes.push_back(last);
    const auto bytes = encode_raw_nodes(nodes);
    StateCodec codec;
    codec.register_array(arr);
    Decoder dec(bytes);
    return codec.decode_expr(dec);
  };

  // Control: a valid node decodes to the builders' node.
  EXPECT_EQ(decode({kind(ExprKind::kAdd), 8, 0, false, {3, 1}}).get(),
            mk_add(mk_read(arr, 3), mk_const(7, 8)).get());

  const std::vector<std::pair<const char*, RawNode>> bad = {
      {"Concat without kids", {kind(ExprKind::kConcat), 16}},
      {"kind byte 200", {200, 8}},
      {"Add of width 99 without kids", {kind(ExprKind::kAdd), 99}},
      {"width-0 constant", {kind(ExprKind::kConstant), 0}},
      {"constant wider than its width", {kind(ExprKind::kConstant), 8, 256}},
      {"Read index at the array size", {kind(ExprKind::kRead), 8, 16, true}},
      {"Read without an array", {kind(ExprKind::kRead), 8, 0}},
      {"Read of width 16", {kind(ExprKind::kRead), 16, 0, true}},
      {"constant with an array", {kind(ExprKind::kConstant), 8, 1, true}},
      {"Not with two kids", {kind(ExprKind::kNot), 8, 0, false, {1, 1}}},
      {"Select with two kids", {kind(ExprKind::kSelect), 8, 0, false, {0, 1}}},
      {"Add over widths 8 and 32", {kind(ExprKind::kAdd), 8, 0, false, {1, 2}}},
      {"Add wider than its operands",
       {kind(ExprKind::kAdd), 32, 0, false, {1, 1}}},
      {"Eq of width 8", {kind(ExprKind::kEq), 8, 0, false, {1, 1}}},
      {"Ult over widths 8 and 32", {kind(ExprKind::kUlt), 1, 0, false, {1, 2}}},
      {"Concat width not the sum", {kind(ExprKind::kConcat), 32, 0, false, {1, 3}}},
      {"Extract past its kid", {kind(ExprKind::kExtract), 8, 28, false, {2}}},
      {"Extract offset wrapping u64",
       {kind(ExprKind::kExtract), 8, ~std::uint64_t{0}, false, {2}}},
      {"ZExt narrower than its kid", {kind(ExprKind::kZExt), 8, 0, false, {2}}},
      {"SExt narrower than its kid", {kind(ExprKind::kSExt), 16, 0, false, {2}}},
      {"Not changing width", {kind(ExprKind::kNot), 32, 0, false, {1}}},
      {"Select on a width-8 condition",
       {kind(ExprKind::kSelect), 8, 0, false, {1, 1, 1}}},
      {"Select arms narrower than the node",
       {kind(ExprKind::kSelect), 32, 0, false, {0, 1, 1}}},
  };
  for (const auto& [what, node] : bad)
    EXPECT_THROW(decode(node), SnapshotError) << what;

  // A kid count no kind has is refused before it sizes anything.
  Encoder enc;
  enc.u32(1);
  enc.u8(kind(ExprKind::kConcat));
  enc.u8(16);
  enc.u64(0);
  enc.u8(0);  // no array
  enc.u32(~std::uint32_t{0});
  StateCodec codec;
  Decoder dec(enc.data());
  EXPECT_THROW(codec.decode_expr(dec), SnapshotError);
}

TEST(StateCodecTest, AssignmentSharingPreserved) {
  const ArrayRef arr = std::make_shared<Array>("file", 4);
  auto model = std::make_shared<Assignment>();
  model->set(arr, {1, 2, 3, 4});
  const std::shared_ptr<const Assignment> shared = model;

  StateCodec enc_codec;
  Encoder enc;
  enc_codec.encode_assignment(enc, shared);
  enc_codec.encode_assignment(enc, shared);  // second ref: id only

  StateCodec dec_codec;
  dec_codec.register_array(arr);
  Decoder dec(enc.data());
  const auto a = dec_codec.decode_assignment(dec);
  const auto b = dec_codec.decode_assignment(dec);
  EXPECT_TRUE(dec.done());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one heap object, shared again
}

TEST(StateCodecTest, RejectsMalformedStates) {
  // The engine indexes every field below without checks, so a checksum-
  // valid image that gets one wrong must stop in the decoder.
  const ir::Module module = compile_pipeline();
  const ir::Function* main_fn = module.function_by_name("main");
  ASSERT_NE(main_fn, nullptr);
  const ArrayRef file = std::make_shared<Array>("file", 16);

  // Well-formed: main's entry frame over one symbolic input object.
  vm::ExecutionState base;
  {
    vm::StackFrame f;
    f.fn = main_fn;
    f.regs.resize(main_fn->num_regs());
    f.slots.resize(main_fn->num_slots());
    f.regs[0] = vm::Value::from_ptr(vm::Pointer::to(0, mk_const(0, 64)));
    f.regs[1] = vm::Value::from_int(mk_const(16, 32));
    base.stack.push_back(std::move(f));
    base.memory.add(vm::MemObject::make_symbolic(file, "input"));
    base.constraints.add(mk_ult(mk_read(file, 0), mk_const(9, 8)));
  }
  const auto round_trip = [&](const vm::ExecutionState& s) {
    StateCodec enc_codec;
    Encoder enc;
    enc_codec.encode_state(enc, s);
    StateCodec dec_codec;
    dec_codec.register_array(file);
    Decoder dec(enc.data());
    return dec_codec.decode_state(dec, module);
  };
  const auto back = round_trip(base);
  EXPECT_EQ(back->constraints.constraints(), base.constraints.constraints());
  EXPECT_EQ(back->frame().regs.size(), main_fn->num_regs());

  using Mutation = std::function<void(vm::ExecutionState&)>;
  const std::vector<std::pair<const char*, Mutation>> bad = {
      {"block past the function",
       [&](vm::ExecutionState& s) {
         s.frame().block = static_cast<std::uint32_t>(main_fn->num_blocks());
       }},
      {"instruction past the block",
       [&](vm::ExecutionState& s) {
         s.frame().inst =
             static_cast<std::uint32_t>(main_fn->block(0).insts.size());
       }},
      {"one register too many",
       [](vm::ExecutionState& s) { s.frame().regs.emplace_back(); }},
      {"one register too few",
       [](vm::ExecutionState& s) { s.frame().regs.pop_back(); }},
      {"one slot too many",
       [](vm::ExecutionState& s) { s.frame().slots.emplace_back(); }},
      {"result register without a caller",
       [](vm::ExecutionState& s) { s.frame().ret_reg = 0; }},
      {"termination byte past the enum",
       [](vm::ExecutionState& s) {
         s.termination = static_cast<vm::TerminationReason>(7);
       }},
      {"value kind byte past the enum",
       [](vm::ExecutionState& s) {
         s.frame().regs[1].kind = static_cast<vm::Value::Kind>(3);
       }},
      {"integer value without an expression",
       [](vm::ExecutionState& s) { s.frame().regs[1].i = nullptr; }},
      {"pointer without an offset",
       [](vm::ExecutionState& s) { s.frame().regs[0].p.offset = nullptr; }},
      {"memory object larger than its bytes",
       [](vm::ExecutionState& s) { s.memory.ensure_unique(0).size += 1; }},
      {"memory object with a null byte",
       [](vm::ExecutionState& s) {
         s.memory.ensure_unique(0).bytes[3] = nullptr;
       }},
      {"memory byte of width 32",
       [](vm::ExecutionState& s) {
         s.memory.ensure_unique(0).bytes[3] = mk_const(1, 32);
       }},
  };
  for (const auto& [what, mutate] : bad) {
    vm::ExecutionState s = base;
    mutate(s);
    EXPECT_THROW(round_trip(s), SnapshotError) << what;
  }

  // Constraint entries. `first` writes c = file[0] < 9 as its only
  // constraint; `second` is the same state whose one suffix entry defines
  // no node and names node `root`, after sharing `shared` of first's list.
  vm::ExecutionState first;
  const ExprRef c = mk_ult(mk_read(file, 0), mk_const(9, 8));
  first.constraints.add(c);
  StateCodec first_codec;
  Encoder first_enc;
  first_codec.encode_state(first_enc, first);
  const std::vector<std::uint8_t>& first_bytes = first_enc.data();
  constexpr std::size_t kConstraintsAt = kBareStateConstraintsAt;
  const std::uint32_t c_nodes = u32_at(first_bytes, kConstraintsAt + 8);
  ASSERT_GE(c_nodes, 3u);  // two width-8 operands, then the comparison
  StateCodec sizing;
  Encoder c_enc;
  sizing.encode_expr(c_enc, c);
  const std::size_t after_c = kConstraintsAt + 8 + c_enc.size();
  const auto decode_second = [&](std::uint32_t shared, std::uint32_t root) {
    std::vector<std::uint8_t> bytes = first_bytes;
    bytes.insert(bytes.end(), first_bytes.begin(),
                 first_bytes.begin() + kConstraintsAt);
    Encoder entry;
    entry.u32(shared);
    entry.u32(1);
    entry.u32(0);  // no new nodes
    entry.u32(root);
    bytes.insert(bytes.end(), entry.data().begin(), entry.data().end());
    bytes.insert(bytes.end(), first_bytes.begin() + after_c,
                 first_bytes.end());
    StateCodec codec;
    codec.register_array(file);
    Decoder dec(bytes);
    codec.decode_state(dec, module);
    auto second = codec.decode_state(dec, module);
    EXPECT_TRUE(dec.done());
    return second;
  };
  EXPECT_EQ(decode_second(0, c_nodes - 1)->constraints.constraints(),
            first.constraints.constraints());
  EXPECT_THROW(decode_second(1, c_nodes - 1), SnapshotError)
      << "constraint already in the shared prefix";
  EXPECT_THROW(decode_second(0, ~std::uint32_t{0}), SnapshotError)
      << "null constraint";
  EXPECT_THROW(decode_second(0, 0), SnapshotError) << "width-8 constraint";

  // Executor section: record_coverage indexes the bitmap by global block
  // id, and bug reports carry a BugKind.
  core::KleeRun run(module, "main", {});
  run.run(200'000);
  const vm::Executor& ex = run.executor();
  ASSERT_FALSE(ex.bugs().empty());
  StateCodec codec;
  Encoder enc;
  CampaignCodec::encode_executor(codec, enc, run.executor());
  const std::vector<std::uint8_t> section = enc.data();
  const auto decode_executor = [&](const std::vector<std::uint8_t>& bytes) {
    StateCodec dec_codec;
    Decoder dec(bytes);
    CampaignCodec::decode_executor(dec_codec, dec, run.executor());
  };
  EXPECT_NO_THROW(decode_executor(section));
  ASSERT_EQ(u32_at(section, 0), module.total_blocks());
  for (const std::uint32_t blocks :
       {module.total_blocks() - 1, module.total_blocks() + 1}) {
    auto forged = section;
    put_u32(forged, 0, blocks);
    EXPECT_THROW(decode_executor(forged), SnapshotError)
        << "coverage bitmap of " << blocks << " blocks";
  }
  // Bitmap bytes, two u64 counters, the coverage log, then the bug count.
  const std::size_t first_bug_kind = 4 + (module.total_blocks() + 7) / 8 +
                                     16 + 4 + 12 * ex.coverage_log().size() +
                                     4;
  ASSERT_EQ(section[first_bug_kind],
            static_cast<std::uint8_t>(ex.bugs()[0].kind));
  {
    auto forged = section;
    forged[first_bug_kind] =
        static_cast<std::uint8_t>(vm::BugKind::kUseAfterReturn) + 1;
    EXPECT_THROW(decode_executor(forged), SnapshotError) << "bug kind";
  }

  // Solver section: one exact-cache entry (propagation's UNSAT), whose
  // result byte follows the entry count and the key.
  VClock clock;
  Stats stats;
  Solver solver(clock, stats);
  ConstraintSet cs;
  cs.add(mk_eq(mk_read(file, 2), mk_const(5, 8)));
  ASSERT_EQ(solver.check_sat(cs, mk_eq(mk_read(file, 2), mk_const(6, 8))),
            SolverResult::kUnsat);
  Encoder solver_enc;
  CampaignCodec::encode_solver(codec, solver_enc, solver);
  auto solver_section = solver_enc.data();
  ASSERT_EQ(u32_at(solver_section, 0), 1u);
  ASSERT_EQ(solver_section[12],
            static_cast<std::uint8_t>(SolverResult::kUnsat));
  solver_section[12] = static_cast<std::uint8_t>(SolverResult::kUnknown) + 1;
  StateCodec solver_codec;
  Decoder solver_dec(solver_section);
  EXPECT_THROW(CampaignCodec::decode_solver(solver_codec, solver_dec, solver),
               SnapshotError)
      << "solver result";
}

TEST(StateCodecTest, RejectsSharedPrefixOutOfRange) {
  const ir::Module module = compile_pipeline();
  const ArrayRef file = std::make_shared<Array>("file", 16);
  const ExprRef c1 = mk_ult(mk_read(file, 0), mk_const(9, 8));
  const ExprRef c2 = mk_ult(mk_read(file, 1), mk_const(9, 8));
  vm::ExecutionState a;  // empty stacks, no memory objects
  vm::ExecutionState b;
  a.constraints.add(c1);
  b.constraints.add(c1);
  b.constraints.add(c2);

  StateCodec enc_codec;
  Encoder enc_a;
  Encoder enc_b;
  enc_codec.encode_state(enc_a, a);
  enc_codec.encode_state(enc_b, b);
  constexpr std::size_t kSharedAt = kBareStateConstraintsAt;
  ASSERT_EQ(u32_at(enc_a.data(), kSharedAt), 0u);
  ASSERT_EQ(u32_at(enc_b.data(), kSharedAt), 1u);  // b shares c1 with a
  ASSERT_EQ(u32_at(enc_b.data(), kSharedAt + 4), 1u);

  const auto decode_both = [&](const std::vector<std::uint8_t>& bytes_a,
                               const std::vector<std::uint8_t>& bytes_b) {
    std::vector<std::uint8_t> bytes = bytes_a;
    bytes.insert(bytes.end(), bytes_b.begin(), bytes_b.end());
    StateCodec codec;
    codec.register_array(file);
    Decoder dec(bytes);
    codec.decode_state(dec, module);
    return codec.decode_state(dec, module);
  };
  const auto back = decode_both(enc_a.data(), enc_b.data());
  EXPECT_EQ(back->constraints.constraints(), b.constraints.constraints());
  EXPECT_EQ(back->constraints.hash(), b.constraints.hash());

  auto forged_b = enc_b.data();
  put_u32(forged_b, kSharedAt, 2);  // a holds only one constraint
  EXPECT_THROW(decode_both(enc_a.data(), forged_b), SnapshotError);
  auto forged_a = enc_a.data();
  put_u32(forged_a, kSharedAt, 1);  // no state precedes a
  EXPECT_THROW(decode_both(forged_a, enc_b.data()), SnapshotError);
}

// --- Campaign snapshots ---------------------------------------------------

core::KleeRunOptions klee_options(search::SearcherKind kind) {
  core::KleeRunOptions options;
  options.searcher = kind;
  options.sym_file_size = 100;
  return options;
}

TEST(Serialize, KleeSnapshotRestoreReserializesByteForByte) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto options = klee_options(search::SearcherKind::kDefault);

  core::KleeRun a(module, "main", options);
  a.run(200'000);
  const auto snap = CampaignCodec::snapshot(a);

  core::KleeRun b(module, "main", options);
  CampaignCodec::restore(b, snap);
  EXPECT_EQ(CampaignCodec::snapshot(b), snap);
  EXPECT_EQ(b.executor().num_covered(), a.executor().num_covered());
  EXPECT_EQ(b.clock().now(), a.clock().now());
  EXPECT_EQ(b.num_states(), a.num_states());
  EXPECT_EQ(b.stats().all(), a.stats().all());
}

TEST(Serialize, KleeRestoreRejectsMismatchedRun) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  core::KleeRun a(module, "main", klee_options(search::SearcherKind::kDefault));
  a.run(50'000);
  const auto snap = CampaignCodec::snapshot(a);

  auto other = klee_options(search::SearcherKind::kDefault);
  other.sym_file_size = 200;  // different symbolic input
  core::KleeRun b(module, "main", other);
  EXPECT_THROW(CampaignCodec::restore(b, snap), SnapshotError);
}

TEST(Serialize, KleeSlicedResumeIsTickExact) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const std::uint64_t kBudget = 400'000;

  for (const auto kind :
       {search::SearcherKind::kDefault, search::SearcherKind::kRandomPath}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto options = klee_options(kind);

    // Monolithic reference run.
    core::KleeRun a(module, "main", options);
    const std::uint64_t t0 = a.clock().now();
    a.run(kBudget);
    const auto snap_a = CampaignCodec::snapshot(a);

    // Sliced run: stop at the first BATCH boundary past 1/3 budget (never
    // truncating a batch keeps the searcher/RNG streams aligned), then
    // snapshot, restore into a fresh run, and finish.
    core::KleeRun b(module, "main", options);
    ASSERT_EQ(b.clock().now(), t0);
    const std::uint64_t slice_at = t0 + kBudget / 3;
    b.run_sliced(kBudget,
                 [&b, slice_at] { return b.clock().now() >= slice_at; });
    const auto mid = CampaignCodec::snapshot(b);

    core::KleeRun c(module, "main", options);
    CampaignCodec::restore(c, mid);
    ASSERT_LE(c.clock().now(), t0 + kBudget);
    c.run(t0 + kBudget - c.clock().now());

    EXPECT_EQ(c.clock().now(), a.clock().now());
    EXPECT_EQ(c.executor().num_covered(), a.executor().num_covered());
    EXPECT_EQ(c.executor().bugs().size(), a.executor().bugs().size());
    EXPECT_EQ(c.stats().all(), a.stats().all());
    EXPECT_EQ(CampaignCodec::snapshot(c), snap_a);
  }
}

TEST(Serialize, PbseSlicedResumeIsTickExact) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto seed = targets::make_melf_seed(4);
  const std::uint64_t kBudget = 500'000;

  // Monolithic reference campaign.
  core::PbseDriver a(module, "main");
  ASSERT_TRUE(a.prepare(seed));
  const std::uint64_t t0 = a.clock().now();
  a.run(kBudget);
  const auto snap_a = CampaignCodec::snapshot(a);

  // Sliced campaign: step whole rotation turns until 1/3 budget, snapshot
  // mid-rotation, restore onto a freshly prepared driver, finish.
  core::PbseDriver b(module, "main");
  ASSERT_TRUE(b.prepare(seed));
  ASSERT_EQ(b.clock().now(), t0);
  b.begin_run();
  const Deadline overall_b(b.clock(), kBudget);
  while (b.clock().now() < t0 + kBudget / 3 && b.step_turn(overall_b)) {
  }
  const auto mid = CampaignCodec::snapshot(b);

  core::PbseDriver c(module, "main");
  ASSERT_TRUE(c.prepare(seed));
  CampaignCodec::restore(c, mid);
  ASSERT_EQ(CampaignCodec::snapshot(c), mid);  // restore is lossless
  ASSERT_LE(c.clock().now(), t0 + kBudget);
  const Deadline overall_c(c.clock(), t0 + kBudget - c.clock().now());
  while (c.step_turn(overall_c)) {
  }

  EXPECT_EQ(c.clock().now(), a.clock().now());
  EXPECT_EQ(c.executor().num_covered(), a.executor().num_covered());
  EXPECT_EQ(c.executor().bugs().size(), a.executor().bugs().size());
  EXPECT_EQ(c.c_time_ticks(), a.c_time_ticks());
  EXPECT_EQ(c.p_time_ticks(), a.p_time_ticks());
  EXPECT_EQ(c.bug_phases(), a.bug_phases());
  EXPECT_EQ(c.stats().all(), a.stats().all());
  EXPECT_EQ(CampaignCodec::snapshot(c), snap_a);
}

TEST(Serialize, PbseSnapshotSurvivesRepeatedSlicing) {
  // Slice every ~40k ticks — many snapshot/restore cycles, each onto a
  // freshly prepared driver, must still land tick-exact.
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto seed = targets::make_melf_seed(4);
  const std::uint64_t kBudget = 240'000;

  core::PbseDriver a(module, "main");
  ASSERT_TRUE(a.prepare(seed));
  const std::uint64_t t0 = a.clock().now();
  a.run(kBudget);
  const auto snap_a = CampaignCodec::snapshot(a);

  core::PbseDriver b(module, "main");
  ASSERT_TRUE(b.prepare(seed));
  b.begin_run();
  auto snap = CampaignCodec::snapshot(b);
  bool more = true;
  int slices = 0;
  while (more) {
    core::PbseDriver w(module, "main");
    ASSERT_TRUE(w.prepare(seed));
    CampaignCodec::restore(w, snap);
    const std::uint64_t slice_end =
        std::min(w.clock().now() + 40'000, t0 + kBudget);
    const Deadline overall(w.clock(), t0 + kBudget - w.clock().now());
    while ((more = w.step_turn(overall)) && w.clock().now() < slice_end) {
    }
    snap = CampaignCodec::snapshot(w);
    ++slices;
    ASSERT_LT(slices, 64) << "slicing must terminate";
  }
  EXPECT_GE(slices, 3) << "test must actually exercise multiple slices";
  EXPECT_EQ(snap, snap_a);
}

TEST(Serialize, RestoredConstraintSetsMatchRebuiltOnes) {
  // Restore copies each state's set from a running prefix instead of
  // re-adding every constraint; the copy must equal a set built by add()
  // over the same list in every observable: list, hashes and partitions.
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto seed = targets::make_melf_seed(12);
  core::PbseDriver a(module, "main");
  ASSERT_TRUE(a.prepare(seed));
  a.begin_run();
  const std::uint64_t t0 = a.clock().now();
  const Deadline overall(a.clock(), 500'000);
  while (a.clock().now() < t0 + 100'000 && a.step_turn(overall)) {
  }
  const auto snap = CampaignCodec::snapshot(a);

  core::PbseDriver b(module, "main");
  ASSERT_TRUE(b.prepare(seed));
  CampaignCodec::restore(b, snap);
  // A second restore onto the same driver overlays the first completely.
  CampaignCodec::restore(b, snap);
  ASSERT_EQ(CampaignCodec::snapshot(b), snap);

  // The two campaigns intern against different input arrays, so their
  // nodes differ by address but hash alike.
  const auto original = a.states();
  const auto restored = b.states();
  ASSERT_EQ(restored.size(), original.size());
  ASSERT_GT(restored.size(), 50u);
  std::size_t constraints = 0;
  for (std::size_t i = 0; i < restored.size(); ++i) {
    const ConstraintSet& set = restored[i]->constraints;
    ASSERT_EQ(set.size(), original[i]->constraints.size());
    EXPECT_EQ(set.sorted_hashes(), original[i]->constraints.sorted_hashes());
    ConstraintSet rebuilt;
    for (const ExprRef& c : set.constraints()) rebuilt.add(c);
    ASSERT_EQ(set.constraints(), rebuilt.constraints());
    EXPECT_EQ(set.hash(), rebuilt.hash());
    EXPECT_EQ(set.sorted_hashes(), rebuilt.sorted_hashes());
    EXPECT_EQ(set.num_partitions(), rebuilt.num_partitions());
    for (const ExprRef& c : set.constraints())
      ASSERT_EQ(set.slice(c).constraints, rebuilt.slice(c).constraints);
    constraints += set.size();
  }
  // Seed scale 12 gives path conditions of hundreds of constraints.
  EXPECT_GT(constraints, 100 * restored.size());
}

template <typename Run>
void sweep_forged_counts(Run& run, const std::vector<std::uint8_t>& snap,
                         SnapshotFlavor flavor) {
  const auto payload = serialize::unframe_snapshot(snap, flavor);
  std::size_t count_errors = 0;
  for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
    auto forged = payload;
    put_u32(forged, at, ~std::uint32_t{0});
    try {
      CampaignCodec::restore(run, serialize::frame_snapshot(flavor, forged));
    } catch (const SnapshotError& e) {
      if (std::string(e.what()).find("exceeds") != std::string::npos)
        ++count_errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "0xFFFFFFFF at payload offset " << at << ": "
                    << e.what();
    }
  }
  EXPECT_GT(count_errors, 0u);
  // The intact image still restores losslessly afterwards.
  CampaignCodec::restore(run, snap);
  EXPECT_EQ(CampaignCodec::snapshot(run), snap);
}

TEST(Serialize, ForgedCountsThrowSnapshotError) {
  // 0xFFFFFFFF over every 4-byte window of a payload: a window that holds
  // a count must be refused with SnapshotError before the count sizes
  // memory (never bad_alloc); any other window restores or is refused.
  const ir::Module module = compile_pipeline();
  {
    // Live states mid-search, solver models, coverage, output and tests.
    core::KleeRunOptions options;
    options.sym_file_size = 12;
    core::KleeRun a(module, "main", options);
    a.run(600);
    ASSERT_GT(a.num_states(), 1u);
    core::KleeRun b(module, "main", options);
    sweep_forged_counts(b, CampaignCodec::snapshot(a), SnapshotFlavor::kKlee);
  }
  {
    // Adds the pbSE sections: pending seedStates, bug phases, turn cursor.
    core::PbseDriver a(module, "main");
    ASSERT_TRUE(a.prepare(pipeline_seed()));
    a.begin_run();
    ASSERT_GT(a.states().size(), 1u);
    core::PbseDriver b(module, "main");
    ASSERT_TRUE(b.prepare(pipeline_seed()));
    sweep_forged_counts(b, CampaignCodec::snapshot(a), SnapshotFlavor::kPbse);
  }
}

TEST(Serialize, RejectsForgedTurnCursor) {
  // step_turn indexes the phase runtimes by the cursor's live indices, and
  // step_turn and the bug reports index the bug-phase list per executor
  // bug: a restore must refuse values that would index past either.
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto seed = targets::make_melf_seed(4);
  core::PbseDriver a(module, "main");
  ASSERT_TRUE(a.prepare(seed));
  a.begin_run();
  ASSERT_EQ(a.bug_phases().size(), 1u);  // the seed path's own bug
  const auto snap = CampaignCodec::snapshot(a);
  const auto payload = serialize::unframe_snapshot(snap, SnapshotFlavor::kPbse);

  // After begin_run the cursor is u64 0, u32 n, the live indices 0..n-1,
  // and the phase count n follows it; the one bug phase precedes it.
  const auto n = static_cast<std::uint32_t>(a.phases().phases.size());
  ASSERT_GE(n, 2u);
  Encoder cursor;
  cursor.u64(0);
  cursor.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) cursor.u32(i);
  cursor.u32(n);
  const auto found = std::search(payload.begin(), payload.end(),
                                 cursor.data().begin(), cursor.data().end());
  ASSERT_NE(found, payload.end());
  const auto at = static_cast<std::size_t>(found - payload.begin());
  ASSERT_EQ(u32_at(payload, at - 8), 1u);
  ASSERT_EQ(u32_at(payload, at - 4), ~std::uint32_t{0});
  const std::size_t live_at = at + 12;

  core::PbseDriver b(module, "main");
  ASSERT_TRUE(b.prepare(seed));
  auto restore = [&b](const std::vector<std::uint8_t>& forged) {
    CampaignCodec::restore(
        b, serialize::frame_snapshot(SnapshotFlavor::kPbse, forged));
  };
  auto forged = payload;
  put_u32(forged, live_at, n + 1000);  // names no phase
  EXPECT_THROW(restore(forged), SnapshotError);
  forged = payload;
  put_u32(forged, live_at + 4, 0);  // repeats phase 0
  EXPECT_THROW(restore(forged), SnapshotError);
  forged = payload;  // no phase for the seed path's bug
  forged.erase(forged.begin() + static_cast<std::ptrdiff_t>(at - 4),
               forged.begin() + static_cast<std::ptrdiff_t>(at));
  put_u32(forged, at - 8, 0);
  EXPECT_THROW(restore(forged), SnapshotError);

  // The intact image still restores losslessly afterwards.
  restore(payload);
  EXPECT_EQ(CampaignCodec::snapshot(b), snap);
}

TEST(Serialize, CorruptedCampaignSnapshotFailsLoudly) {
  const ir::Module module = targets::build_target(targets::readelf_source());
  const auto options = klee_options(search::SearcherKind::kDefault);
  core::KleeRun a(module, "main", options);
  a.run(60'000);
  auto snap = CampaignCodec::snapshot(a);

  // Corrupt one payload byte: checksum catches it.
  auto flipped = snap;
  flipped[flipped.size() / 2] ^= 0xff;
  core::KleeRun b(module, "main", options);
  EXPECT_THROW(CampaignCodec::restore(b, flipped), SnapshotError);

  // Truncate: caught before any state is touched.
  std::vector<std::uint8_t> cut(snap.begin(),
                                snap.begin() + snap.size() / 2);
  EXPECT_THROW(CampaignCodec::restore(b, cut), SnapshotError);

  // And the intact snapshot still restores afterwards.
  CampaignCodec::restore(b, snap);
  EXPECT_EQ(CampaignCodec::snapshot(b), snap);
}

// --- pbsf job-transfer frames (serialize/frame.h) -------------------------

TEST(Pbsf, FrameRoundTripAllKinds) {
  const auto payload = some_payload();
  for (serialize::FrameKind kind :
       {serialize::FrameKind::kJobAssign, serialize::FrameKind::kJobResult,
        serialize::FrameKind::kHeartbeat, serialize::FrameKind::kJobRecord}) {
    const auto framed = serialize::encode_frame(kind, payload);
    std::vector<std::uint8_t> back;
    EXPECT_EQ(serialize::decode_frame(framed, back), kind);
    EXPECT_EQ(back, payload);
  }
  // Empty payloads (heartbeats) are legal.
  std::vector<std::uint8_t> empty;
  const auto beat =
      serialize::encode_frame(serialize::FrameKind::kHeartbeat, {});
  EXPECT_EQ(serialize::decode_frame(beat, empty),
            serialize::FrameKind::kHeartbeat);
  EXPECT_TRUE(empty.empty());
}

TEST(Pbsf, FrameChecksumCatchesEveryBitFlip) {
  auto framed =
      serialize::encode_frame(serialize::FrameKind::kJobAssign, some_payload());
  std::vector<std::uint8_t> sink;
  for (std::size_t i = 0; i < framed.size(); ++i) {
    framed[i] ^= 0x10;
    EXPECT_THROW(serialize::decode_frame(framed, sink), SnapshotError)
        << "flip at byte " << i << " went undetected";
    framed[i] ^= 0x10;
  }
  EXPECT_EQ(serialize::decode_frame(framed, sink),
            serialize::FrameKind::kJobAssign);
}

TEST(Pbsf, FrameTruncationAndBadMagicCaught) {
  const auto framed =
      serialize::encode_frame(serialize::FrameKind::kJobResult, some_payload());
  std::vector<std::uint8_t> sink;
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{19},
                           framed.size() - 1}) {
    std::vector<std::uint8_t> cut(framed.begin(), framed.begin() + keep);
    EXPECT_THROW(serialize::decode_frame(cut, sink), SnapshotError);
  }
  auto wrong = framed;
  wrong[0] = 'X';
  EXPECT_THROW(serialize::decode_frame(wrong, sink), SnapshotError);
  auto trailing = framed;
  trailing.push_back(0);
  EXPECT_THROW(serialize::decode_frame(trailing, sink), SnapshotError);
}

}  // namespace
}  // namespace pbse
