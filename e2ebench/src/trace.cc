#include "trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>

namespace e2ebench {

namespace {

uint32_t ThreadId() {
  thread_local const uint32_t tid =
      static_cast<uint32_t>(::syscall(SYS_gettid));
  return tid;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(4096);
}

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

int64_t Tracer::SinceOrigin(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(record);
}

paxml::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return paxml::Status::Internal("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"trace\": %llu}}%s\n",
                 r.name, r.thread, static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.trace),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "], \"droppedSpans\": %zu}\n", dropped_);
  return std::fclose(f) == 0 ? paxml::Status::OK()
                             : paxml::Status::Internal("cannot write " + path);
}

Span::Span(Tracer* tracer, const char* name, uint64_t trace, uint64_t parent)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      trace_(trace),
      start_(std::chrono::steady_clock::now()) {
  if (tracer_ != nullptr) id_ = tracer_->NewId();
}

double Span::End() {
  if (seconds_ >= 0) return seconds_;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (tracer_ != nullptr) {
    tracer_->Add({name_, id_, parent_, trace_ != 0 ? trace_ : id_,
                  tracer_->SinceOrigin(start_), tracer_->SinceOrigin(end),
                  ThreadId()});
  }
  return seconds_;
}

}  // namespace e2ebench
