// Interleaved searcher and the factory.
#include "searchers/searcher.h"

#include <cassert>

namespace pbse::search {

// Implemented in the per-strategy translation units.
std::unique_ptr<Searcher> make_dfs_searcher();
std::unique_ptr<Searcher> make_bfs_searcher();
std::unique_ptr<Searcher> make_random_state_searcher(Rng& rng);
std::unique_ptr<Searcher> make_random_path_searcher(Rng& rng);
std::unique_ptr<Searcher> make_covnew_searcher(vm::Executor& executor, Rng& rng);
std::unique_ptr<Searcher> make_md2u_searcher(vm::Executor& executor, Rng& rng);

namespace {

/// KLEE's InterleavedSearcher: round-robins select() among sub-searchers,
/// forwarding updates to all of them. The default configuration interleaves
/// random-path with covnew.
class InterleavedSearcher final : public Searcher {
 public:
  explicit InterleavedSearcher(std::vector<std::unique_ptr<Searcher>> subs)
      : subs_(std::move(subs)) {}

  vm::ExecutionState* select() override {
    next_ = (next_ + 1) % subs_.size();
    return subs_[next_]->select();
  }

  void update(vm::ExecutionState* current,
              const std::vector<vm::ExecutionState*>& added,
              const std::vector<vm::ExecutionState*>& removed) override {
    for (auto& s : subs_) s->update(current, added, removed);
  }

  bool empty() const override { return subs_.front()->empty(); }
  std::string name() const override {
    std::string n = "interleaved(";
    for (std::size_t i = 0; i < subs_.size(); ++i)
      n += (i > 0 ? "," : "") + subs_[i]->name();
    return n + ")";
  }

  void save_position(std::vector<std::uint64_t>& out) const override {
    out.push_back(next_);
    for (const auto& s : subs_) s->save_position(out);
  }
  void load_position(const std::vector<std::uint64_t>& words, std::size_t& pos,
                     const std::unordered_map<std::uint64_t,
                                              vm::ExecutionState*>& states)
      override {
    next_ = static_cast<std::size_t>(words.at(pos++));
    for (auto& s : subs_) s->load_position(words, pos, states);
  }

 private:
  std::vector<std::unique_ptr<Searcher>> subs_;
  std::size_t next_ = 0;
};

}  // namespace

const char* searcher_kind_name(SearcherKind kind) {
  switch (kind) {
    case SearcherKind::kDFS: return "dfs";
    case SearcherKind::kBFS: return "bfs";
    case SearcherKind::kRandomState: return "random-state";
    case SearcherKind::kRandomPath: return "random-path";
    case SearcherKind::kCovNew: return "covnew";
    case SearcherKind::kMD2U: return "md2u";
    case SearcherKind::kDefault: return "default";
  }
  return "?";
}

bool parse_searcher_kind(const std::string& name, SearcherKind& out) {
  for (SearcherKind kind :
       {SearcherKind::kDFS, SearcherKind::kBFS, SearcherKind::kRandomState,
        SearcherKind::kRandomPath, SearcherKind::kCovNew, SearcherKind::kMD2U,
        SearcherKind::kDefault}) {
    if (name == searcher_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<Searcher> make_searcher(SearcherKind kind,
                                        vm::Executor& executor, Rng& rng) {
  switch (kind) {
    case SearcherKind::kDFS: return make_dfs_searcher();
    case SearcherKind::kBFS: return make_bfs_searcher();
    case SearcherKind::kRandomState: return make_random_state_searcher(rng);
    case SearcherKind::kRandomPath: return make_random_path_searcher(rng);
    case SearcherKind::kCovNew: return make_covnew_searcher(executor, rng);
    case SearcherKind::kMD2U: return make_md2u_searcher(executor, rng);
    case SearcherKind::kDefault: {
      std::vector<std::unique_ptr<Searcher>> subs;
      subs.push_back(make_random_path_searcher(rng));
      subs.push_back(make_covnew_searcher(executor, rng));
      return std::make_unique<InterleavedSearcher>(std::move(subs));
    }
  }
  assert(false && "unknown searcher kind");
  return nullptr;
}

}  // namespace pbse::search
