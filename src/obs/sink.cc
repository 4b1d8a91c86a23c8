#include "obs/sink.h"

#include <utility>

#include "support/json.h"

namespace pbse::obs {

namespace {

const char* category_names[] = {"vm",    "concolic", "solver", "phase",
                                "sched", "campaign", "other"};

char phase_letter(EventPhase ph) {
  switch (ph) {
    case EventPhase::kInstant: return 'I';
    case EventPhase::kBegin: return 'B';
    case EventPhase::kEnd: return 'E';
    case EventPhase::kCounter: return 'C';
  }
  return 'I';
}

void write_args(std::FILE* f, const TraceEvent& e) {
  if (e.arg0 == kInvalidMetric && e.arg1 == kInvalidMetric) return;
  const char* sep = ",\"args\":{";
  for (const auto& [id, value] :
       {std::pair{e.arg0, e.a0}, std::pair{e.arg1, e.a1}}) {
    if (id == kInvalidMetric) continue;
    std::fprintf(f, "%s%s:%llu", sep, json_quote(metric_name(id)).c_str(),
                 static_cast<unsigned long long>(value));
    sep = ",";
  }
  std::fputc('}', f);
}

void write_event_body(std::FILE* f, const TraceEvent& e, bool chrome) {
  char ph = phase_letter(e.phase);
  if (chrome && ph == 'I') ph = 'i';
  std::fprintf(f, "{\"ph\":%s,\"cat\":%s,\"name\":%s",
               json_quote({&ph, 1}).c_str(),
               json_quote(category_name(e.category)).c_str(),
               json_quote(metric_name(e.name)).c_str());
  if (chrome && e.phase == EventPhase::kInstant) std::fprintf(f, ",\"s\":\"t\"");
  std::fprintf(f, ",\"%s\":%u,\"tid\":%u,\"ts\":%llu",
               chrome ? "pid" : "cid", e.campaign, e.tid,
               static_cast<unsigned long long>(e.ticks));
  write_args(f, e);
  std::fputc('}', f);
}

}  // namespace

const char* category_name(Category c) {
  const auto i = static_cast<unsigned>(c);
  return i < static_cast<unsigned>(Category::kNumCategories)
             ? category_names[i]
             : "other";
}

bool parse_category(std::string_view name, Category& out) {
  for (unsigned i = 0; i < static_cast<unsigned>(Category::kNumCategories);
       ++i) {
    if (name == category_names[i]) {
      out = static_cast<Category>(i);
      return true;
    }
  }
  return false;
}

JsonlSink::JsonlSink(const std::string& path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr)
    std::fprintf(stderr, "obs: cannot open trace file %s\n", path.c_str());
}

JsonlSink::~JsonlSink() {
  if (f_ != nullptr) std::fclose(f_);
}

void JsonlSink::write(const TraceEvent& e) {
  if (f_ == nullptr) return;
  write_event_body(f_, e, /*chrome=*/false);
  std::fputc('\n', f_);
}

void JsonlSink::finish() {
  if (f_ == nullptr) return;
  std::fclose(f_);
  f_ = nullptr;
}

ChromeTraceSink::ChromeTraceSink(const std::string& path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    std::fprintf(stderr, "obs: cannot open trace file %s\n", path.c_str());
    return;
  }
  std::fprintf(f_, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
}

ChromeTraceSink::~ChromeTraceSink() {
  if (f_ != nullptr) std::fclose(f_);
}

void ChromeTraceSink::write(const TraceEvent& e) {
  if (f_ == nullptr) return;
  if (!first_) std::fprintf(f_, ",\n");
  first_ = false;
  write_event_body(f_, e, /*chrome=*/true);
}

void ChromeTraceSink::finish() {
  if (f_ == nullptr) return;
  std::fprintf(f_, "\n]}\n");
  std::fclose(f_);
  f_ = nullptr;
}

std::unique_ptr<TraceSink> make_file_sink(const std::string& path) {
  const bool chrome =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (chrome) return std::make_unique<ChromeTraceSink>(path);
  return std::make_unique<JsonlSink>(path);
}

}  // namespace pbse::obs
