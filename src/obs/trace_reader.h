// Reader for the JSONL trace format written by JsonlSink.
//
// Each line is parsed by the system's JSON codec (support/json.h) and then
// checked against the sink's schema, which is deliberately strict: only the
// keys the sink writes, the required ones present, string values, unsigned
// integer values (digits only), and one nested "args" object of unsigned
// integers. The first malformed line is reported with its line number. CI
// runs `pbse-trace summarize` on a fresh trace, so any drift between writer
// and reader fails the build instead of rotting silently.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pbse::obs {

/// One parsed JSONL trace event, names resolved to strings.
struct ParsedEvent {
  char ph = 'I';  // I / B / E / C
  std::string cat;
  std::string name;
  std::uint32_t cid = 0;
  std::uint32_t tid = 0;
  std::uint64_t ts = 0;
  std::vector<std::pair<std::string, std::uint64_t>> args;

  std::uint64_t arg(const std::string& key, std::uint64_t missing = 0) const {
    for (const auto& [k, v] : args)
      if (k == key) return v;
    return missing;
  }
};

/// Parses `path` as JSONL. On success returns true and fills `out`; on the
/// first malformed line returns false with a "line N: why" message in
/// `error`.
bool read_trace_jsonl(const std::string& path, std::vector<ParsedEvent>& out,
                      std::string& error);

/// Same, over an in-memory buffer (tests).
bool parse_trace_jsonl(const std::string& text, std::vector<ParsedEvent>& out,
                       std::string& error);

}  // namespace pbse::obs
