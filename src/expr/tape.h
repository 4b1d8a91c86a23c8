// Flat evaluation tape: one expression DAG compiled into its nodes in
// topological order (kids before parents), each kid operand a slot index
// and Read i bound to the i-th distinct byte the DAG reads, in
// collect_reads() order. Evaluating runs the steps over a caller-owned
// slot array — a uint64_t per node for exact values, a URange per node for
// intervals — with no hashing and no allocation, which is what the
// solver's backtracking search needs when it re-checks the same few
// constraints hundreds of thousands of times under different byte values
// (DESIGN.md §9, "Evaluation kernel"). When only one variable changed
// since a run, re-running the steps that depend on it over the same slots
// gives the same result as a full run.
//
// Every node is compiled exactly once, so size() equals expr_dag_size() of
// the root, the work expr_cost() charges for one evaluation.
//
// compiled() keeps one CompiledExpr per interned expression and thread:
// its read list, its cost and, once asked for, its tape. Every query that
// meets the same constraint reuses them instead of walking its DAG again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "expr/expr.h"
#include "expr/semantics.h"

namespace pbse {

class Tape {
 public:
  Tape() = default;

  /// Compiles the DAG under `root`.
  explicit Tape(const Expr* root);

  /// Number of steps: the root's DAG node count (0 for an empty tape).
  std::size_t size() const { return steps_.size(); }
  /// Heap bytes the tape takes.
  std::size_t bytes() const {
    return steps_.size() * sizeof(Step) + imms_.size() * sizeof(std::uint64_t);
  }

  /// Value of the root when Read i has value vars[i]. `slots` is scratch
  /// of at least size() initialised entries; it is overwritten.
  std::uint64_t value(const std::uint64_t* vars, std::uint64_t* slots) const;
  /// As above, with Read i bound to vars[var_of_read[i]].
  std::uint64_t value(const std::uint64_t* vars,
                      const std::uint32_t* var_of_read,
                      std::uint64_t* slots) const;

  /// Range of the root when Read i ranges over vars[i]. `slots` as for
  /// value().
  URange interval(const URange* vars, URange* slots) const;
  /// As above, with Read i bound to vars[var_of_read[i]].
  URange interval(const URange* vars, const std::uint32_t* var_of_read,
                  URange* slots) const;

  /// Appends to `out`, ascending, the steps that depend on variable `var`
  /// when Read i is bound to var_of_read[i]: the Reads bound to it and
  /// every step that has such a step among its kids. The root comes last
  /// whenever the tape reads `var`.
  void dependents(const std::uint32_t* var_of_read, std::uint32_t var,
                  std::vector<std::uint32_t>& out) const;

  /// value() and interval() over only `steps`, ascending, on slots that an
  /// earlier run with the same read map filled. The result is exact when
  /// `steps` holds the dependents() of every variable that changed since
  /// that run.
  std::uint64_t value(const std::uint64_t* vars,
                      const std::uint32_t* var_of_read, std::uint64_t* slots,
                      std::span<const std::uint32_t> steps) const;
  URange interval(const URange* vars, const std::uint32_t* var_of_read,
                  URange* slots, std::span<const std::uint32_t> steps) const;

 private:
  /// A NodeOp without its constant, in 16 bytes.
  struct Step {
    ExprKind kind = ExprKind::kConstant;
    std::uint8_t width = 0;
    std::uint8_t param = 0;
    bool const_rhs = false;
    /// Slots of the kids (0 where the kind has fewer). A Read holds its
    /// read number in kid[0], a Constant the index of its value in imms_.
    std::uint32_t kid[3] = {0, 0, 0};
  };
  template <typename T, typename Bind>
  void run_step(std::size_t i, Bind bind, T* slots) const;
  template <typename T, typename Bind>
  T run(Bind bind, T* slots) const;
  template <typename T, typename Bind>
  T run(Bind bind, T* slots, std::span<const std::uint32_t> steps) const;

  std::vector<Step> steps_;
  std::vector<std::uint64_t> imms_;  // the Constants' values
};

/// One expression's per-thread compiled form.
class CompiledExpr {
 public:
  /// Walks `root` for its reads and cost. Build entries through
  /// compiled(), which keeps them.
  explicit CompiledExpr(const ExprRef& root);

  /// The distinct byte reads of the DAG in collect_reads() order. Tape
  /// Read i is reads()[i]; a search's variable order, and so every tick it
  /// charges, follows this order.
  const std::vector<ReadSite>& reads() const { return reads_; }
  /// DAG node count: what one evaluation is charged (expr_cost()).
  std::size_t cost() const { return cost_; }
  /// The tape, compiled on the first call.
  const Tape& tape();

 private:
  const Expr* root_;
  std::vector<ReadSite> reads_;
  std::size_t cost_ = 0;
  Tape tape_;
};

/// The compiled form of `e`, from this thread's cache. The reference stays
/// valid while a CompiledPin is alive on this thread; without one, only
/// until the next compiled() call.
CompiledExpr& compiled(const ExprRef& e);

/// Approximate bytes the cache may hold before it is cleared. The cache is
/// cleared all at once, and only where no pin is alive, so one query can
/// take it past the bound by what that query compiles.
inline constexpr std::size_t kCompiledCacheBytes = std::size_t{16} << 20;

/// While a pin is alive on a thread, that thread's cache is never cleared,
/// so every compiled() reference taken meanwhile stays valid. A solver
/// query holds one from start to end. Pins nest.
class CompiledPin {
 public:
  CompiledPin();
  ~CompiledPin();
  CompiledPin(const CompiledPin&) = delete;
  CompiledPin& operator=(const CompiledPin&) = delete;
};

/// Drops this thread's cache and returns its memory. No pin may be alive.
void clear_compiled_cache();

/// Approximate bytes in this thread's cache (tests).
std::size_t compiled_cache_bytes();

}  // namespace pbse
