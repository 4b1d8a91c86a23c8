// CampaignCodec: whole-campaign snapshot/restore on top of StateCodec and
// the pbss framing (DESIGN.md §11).
//
// A campaign snapshot captures EVERYTHING that steers future execution:
// the virtual clock, the RNG stream, the stats bag (counters and
// histograms BY NAME — MetricId interning order differs across
// processes), executor bookkeeping (coverage, bugs, test cases, id
// counters, dedup sets), the solver's L1 stores
// (exact cache and domain memo — they steer tick charging and control
// flow), every live ExecutionState, and each searcher's position.
// Restoring all of it makes the resumed run tick- and RNG-identical to one
// that never stopped.
//
// Restore PRECONDITIONS (enforced with cheap guards where possible):
//  * KleeRun: construct with the identical module/entry/options, then
//    restore(). The constructor's initial state is discarded wholesale.
//  * PbseDriver: construct AND prepare() with the identical seed and
//    options first — prepare() is fully deterministic, so it rebuilds the
//    phase runtimes, seed states and analysis exactly; restore() then
//    overlays the mutable progress. A restored driver must step via
//    step_turn() (never run(), which resets the rotation cursor).
//  * Decode on the thread that will run the campaign: expression
//    interning is thread-local.
#pragma once

#include <cstdint>
#include <vector>

#include "serialize/pbss.h"
#include "serialize/state_codec.h"

namespace pbse {
class Solver;
class Stats;
namespace vm {
class Executor;
}
namespace search {
class SymbolicEngine;
class Searcher;
}
namespace core {
class KleeRun;
class PbseDriver;
}
namespace ir {
class Module;
}
}  // namespace pbse

namespace pbse::serialize {

class CampaignCodec {
 public:
  /// Framed (header + checksum) snapshot of a KLEE-style run.
  static std::vector<std::uint8_t> snapshot(core::KleeRun& run);
  /// Overlays a snapshot onto a freshly constructed, identically
  /// configured run. Throws SnapshotError on any mismatch or corruption.
  static void restore(core::KleeRun& run,
                      const std::vector<std::uint8_t>& framed);

  /// Framed snapshot of a pbSE phase-scheduled campaign (post-prepare).
  static std::vector<std::uint8_t> snapshot(core::PbseDriver& driver);
  /// Overlays a snapshot onto a driver that already ran prepare() with
  /// the identical seed and options.
  static void restore(core::PbseDriver& driver,
                      const std::vector<std::uint8_t>& framed);

  // Payload sections, public so a test can forge one section alone.
  static void encode_executor(StateCodec& codec, Encoder& enc,
                              vm::Executor& ex);
  static void decode_executor(StateCodec& codec, Decoder& dec,
                              vm::Executor& ex);
  static void encode_solver(StateCodec& codec, Encoder& enc, Solver& solver);
  static void decode_solver(StateCodec& codec, Decoder& dec, Solver& solver);

 private:
  static void encode_stats(Encoder& enc, const Stats& stats);
  static void decode_stats(Decoder& dec, Stats& stats);
  static void encode_engine(StateCodec& codec, Encoder& enc,
                            search::SymbolicEngine& engine,
                            search::Searcher& searcher);
  static void decode_engine(StateCodec& codec, Decoder& dec,
                            search::SymbolicEngine& engine,
                            search::Searcher& searcher,
                            const ir::Module& module);
};

}  // namespace pbse::serialize
