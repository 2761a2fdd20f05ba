//===- driver/Trace.cpp - Request-scoped tracing --------------------------===//

#include "driver/Trace.h"

#include <algorithm>
#include <cstdio>

#include <sys/syscall.h>
#include <unistd.h>

using namespace dra;

uint64_t dra::osProcessId() { return uint64_t(::getpid()); }

uint64_t dra::osThreadId() {
#ifdef SYS_gettid
  // Cached per thread: gettid is a syscall, and span recording sits on
  // the traced request's hot path.
  thread_local uint64_t Cached = uint64_t(::syscall(SYS_gettid));
  return Cached;
#else
  thread_local uint64_t Cached =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return Cached;
#endif
}

std::string dra::traceIdToHex(uint64_t Id) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Id);
  return std::string(Buf, 16);
}

bool dra::traceIdFromHex(const std::string &S, uint64_t &Out) {
  if (S.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = unsigned(C - 'a') + 10;
    else
      return false; // strict: lowercase only, no 0x, no spaces
    V = (V << 4) | Digit;
  }
  Out = V;
  return true;
}

uint64_t dra::deriveTraceId(uint64_t Seed, uint64_t Counter) {
  // splitmix64 finalizer over the combined state; remap 0 so "untraced"
  // (id 0) is never a valid id.
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Counter + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z = Z ^ (Z >> 31);
  return Z ? Z : 1;
}

void TraceContext::recordOn(uint64_t Tid, std::string Name, uint64_t BeginNs,
                            uint64_t EndNs, unsigned Depth) {
  std::lock_guard<std::mutex> Lock(Mtx);
  if (Records.size() >= MaxSpans) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Records.push_back({std::move(Name), BeginNs, EndNs, Depth, Tid});
}

void TraceContext::nameThread(uint64_t Tid, std::string Name) {
  std::lock_guard<std::mutex> Lock(Mtx);
  for (auto &KV : Names)
    if (KV.first == Tid) {
      KV.second = std::move(Name);
      return;
    }
  Names.emplace_back(Tid, std::move(Name));
}

std::vector<TraceRecord> TraceContext::records() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Records;
}

std::vector<std::pair<uint64_t, std::string>>
TraceContext::threadNames() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Names;
}

size_t TraceContext::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Records.size();
}

//===----------------------------------------------------------------------===//
// ChromeTraceWriter
//===----------------------------------------------------------------------===//

void ChromeTraceWriter::beginEvent() {
  if (Events == 0)
    OS << "{\"traceEvents\": [\n";
  else
    OS << ",\n";
  ++Events;
}

void ChromeTraceWriter::completeEvent(
    uint64_t Pid, uint64_t Tid, const std::string &Name, const char *Category,
    double TsUs, double DurUs,
    const std::vector<std::pair<std::string, std::string>> &Args) {
  beginEvent();
  OS << "  {\"name\": \"" << jsonEscape(Name) << "\", \"cat\": \"" << Category
     << "\", \"ph\": \"X\", \"pid\": " << Pid << ", \"tid\": " << Tid
     << ", \"ts\": ";
  writeJsonNumber(OS, TsUs);
  OS << ", \"dur\": ";
  writeJsonNumber(OS, DurUs);
  if (!Args.empty()) {
    OS << ", \"args\": {";
    for (size_t I = 0; I < Args.size(); ++I)
      OS << (I ? ", " : "") << "\"" << jsonEscape(Args[I].first) << "\": \""
         << jsonEscape(Args[I].second) << "\"";
    OS << "}";
  }
  OS << "}";
}

void ChromeTraceWriter::processName(uint64_t Pid, const std::string &Name) {
  beginEvent();
  OS << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << Pid
     << ", \"tid\": 0, \"args\": {\"name\": \"" << jsonEscape(Name) << "\"}}";
}

void ChromeTraceWriter::threadName(uint64_t Pid, uint64_t Tid,
                                   const std::string &Name) {
  beginEvent();
  OS << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << Pid
     << ", \"tid\": " << Tid << ", \"args\": {\"name\": \""
     << jsonEscape(Name) << "\"}}";
}

void ChromeTraceWriter::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Events == 0)
    OS << "{\"traceEvents\": [\n";
  OS << "\n]}\n";
}

void dra::writeChromeTrace(std::ostream &OS, const TraceContext &TC,
                           const std::string &ProcessName) {
  const std::vector<TraceRecord> Records = TC.records();
  uint64_t OriginNs = UINT64_MAX;
  for (const TraceRecord &R : Records)
    OriginNs = std::min(OriginNs, R.BeginNs);
  const uint64_t Pid = osProcessId();
  ChromeTraceWriter W(OS);
  W.processName(Pid, ProcessName);
  for (const auto &[Tid, Name] : TC.threadNames())
    W.threadName(Pid, Tid, Name);
  for (const TraceRecord &R : Records)
    W.completeEvent(Pid, R.Tid, R.Name, "span",
                    double(R.BeginNs - OriginNs) / 1000.0,
                    double(R.EndNs - R.BeginNs) / 1000.0);
  W.finish();
}
