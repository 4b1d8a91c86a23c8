#include "obs/trace_reader.h"

#include <cstdio>
#include <string_view>

#include "support/json.h"

namespace pbse::obs {

namespace {

/// The sink's unsigned integers: digits only, no sign, fraction or exponent.
std::uint64_t read_uint(const std::string& key, const Json& value) {
  if (!value.is_integer())
    throw JsonError("\"" + key + "\" must be an unsigned integer");
  return value.as_u64();
}

/// Checks one parsed line against the sink's schema. Throws JsonError
/// naming the first violation.
ParsedEvent read_event(const Json& line) {
  if (!line.is_object()) throw JsonError("not a JSON object");
  for (const char* key : {"ph", "cat", "name", "ts"})
    if (!line.has(key))
      throw JsonError("missing required key (ph/cat/name/ts)");
  ParsedEvent e;
  for (const auto& [key, value] : line.fields()) {
    if (key == "ph" || key == "cat" || key == "name" || key == "s") {
      if (!value.is_string())
        throw JsonError("\"" + key + "\" must be a string");
      const std::string& v = value.as_string();
      if (key == "ph") {
        if (v.size() != 1) throw JsonError("ph must be a single letter");
        e.ph = v[0];
      } else if (key == "cat") {
        e.cat = v;
      } else if (key == "name") {
        e.name = v;
      }  // "s" is the Chrome instant scope: accepted and ignored
    } else if (key == "ts") {
      e.ts = read_uint(key, value);
    } else if (key == "tid") {
      e.tid = static_cast<std::uint32_t>(read_uint(key, value));
    } else if (key == "cid" || key == "pid") {
      e.cid = static_cast<std::uint32_t>(read_uint(key, value));
    } else if (key == "args") {
      if (!value.is_object()) throw JsonError("args must be an object");
      for (const auto& [arg, arg_value] : value.fields())
        e.args.emplace_back(arg, read_uint(arg, arg_value));
    } else {
      throw JsonError("unknown key \"" + key + "\"");
    }
  }
  return e;
}

}  // namespace

bool parse_trace_jsonl(const std::string& text, std::vector<ParsedEvent>& out,
                       std::string& error) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    ++line_no;
    const std::string_view line(text.data() + start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    try {
      out.push_back(read_event(parse_json(line)));
    } catch (const JsonError& e) {
      error = "line " + std::to_string(line_no) + ": " + e.what();
      return false;
    }
  }
  return true;
}

bool read_trace_jsonl(const std::string& path, std::vector<ParsedEvent>& out,
                      std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_trace_jsonl(text, out, error);
}

}  // namespace pbse::obs
