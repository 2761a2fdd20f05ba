//===- tests/server_test.cpp - Compile-service tests ----------------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Covers the service subsystem bottom-up: payload encode/decode (strict
// rejection of malformed documents), framing over a socketpair (clean
// EOF, truncation, bad magic, oversize prefixes, garbage payloads — a
// structured error or a dropped connection, never a crash; frames larger
// than the send buffer), the admission queue's bounds and drain barrier,
// the request index's digest and bounds, and the full CompileServer on a
// real unix socket: response bytes identical to a local compile,
// cache-tier reporting, hits answered without admission, repeats
// answered through the request index, overload shedding,
// client-disconnect survival, joined connection threads, and
// graceful-stop draining.
//
//===----------------------------------------------------------------------===//

#include "adt/Rng.h"
#include "core/Features.h"
#include "core/Portfolio.h"
#include "server/FlightRecorder.h"
#include "server/Protocol.h"
#include "server/RequestIndex.h"
#include "server/RequestQueue.h"
#include "server/Server.h"

#include "driver/Json.h"
#include "driver/ResultCache.h"
#include "driver/Trace.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace dra;

namespace {

/// Reads a `stats` control body, which is a dra-metrics-v1 document.
MetricsFileData loadStats(const std::string &Body) {
  MetricsFileData Stats;
  std::istringstream In(Body);
  std::string Err;
  EXPECT_TRUE(loadMetricsJson(In, Stats, &Err)) << Err;
  return Stats;
}

const char *TinyFunc = "func tiny regs=8 mem=8 spills=0\n"
                       "bb0:\n"
                       "  movi r0, 3\n"
                       "  movi r1, 4\n"
                       "  add r2, r0, r1\n"
                       "  mul r3, r2, r0\n"
                       "  ret r3\n";

/// A request that compiles quickly (few remap restarts).
CompileRequest tinyRequest() {
  CompileRequest Req;
  Req.RemapStarts = 8;
  Req.Body = TinyFunc;
  return Req;
}

std::string leHeader(uint32_t Magic, uint32_t Len) {
  std::string H(8, '\0');
  for (int I = 0; I != 4; ++I) {
    H[I] = char((Magic >> (8 * I)) & 0xff);
    H[4 + I] = char((Len >> (8 * I)) & 0xff);
  }
  return H;
}

void sendRaw(int Fd, const std::string &Bytes) {
  ASSERT_EQ(ssize_t(Bytes.size()),
            send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL));
}

/// \p Func with its name replaced by \p Name: different request bytes,
/// the same content key (names are not part of it).
std::string renamed(const std::string &Func, const std::string &Name) {
  const size_t Begin = Func.find(' ') + 1;
  return Func.substr(0, Begin) + Name + Func.substr(Func.find(' ', Begin));
}

/// Fresh empty scratch directory under the system temp dir.
std::string freshDir(const std::string &Name) {
  std::filesystem::path P =
      std::filesystem::temp_directory_path() / "dra_server_test" / Name;
  std::filesystem::remove_all(P);
  std::filesystem::create_directories(P);
  return P.string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Payload encode/decode
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTrip) {
  CompileRequest Req;
  Req.S = Scheme::Remap;
  Req.BaselineK = 7;
  Req.RegN = 14;
  Req.DiffN = 9;
  Req.DiffW = 4;
  Req.RemapStarts = 31;
  Req.Body = "arbitrary bytes, not even IR \n\n with blank lines";

  CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeRequest(encodeRequest(Req), Out, &Err)) << Err;
  EXPECT_EQ(Req.S, Out.S);
  EXPECT_EQ(Req.BaselineK, Out.BaselineK);
  EXPECT_EQ(Req.RegN, Out.RegN);
  EXPECT_EQ(Req.DiffN, Out.DiffN);
  EXPECT_EQ(Req.DiffW, Out.DiffW);
  EXPECT_EQ(Req.RemapStarts, Out.RemapStarts);
  EXPECT_EQ(Req.Body, Out.Body);
}

TEST(Protocol, RequestToConfigMirrorsKnobs) {
  CompileRequest Req;
  Req.S = Scheme::Select;
  Req.BaselineK = 6;
  Req.RegN = 13;
  Req.DiffN = 10;
  Req.DiffW = 4;
  Req.RemapStarts = 17;
  PipelineConfig C = Req.toConfig();
  EXPECT_EQ(Scheme::Select, C.S);
  EXPECT_EQ(6u, C.BaselineK);
  EXPECT_EQ(13u, C.Enc.RegN);
  EXPECT_EQ(10u, C.Enc.DiffN);
  EXPECT_EQ(4u, C.Enc.DiffW);
  EXPECT_EQ(17u, C.Remap.NumStarts);
  EXPECT_EQ(nullptr, C.Cache);
  EXPECT_EQ(nullptr, C.Metrics);
}

TEST(Protocol, ResponseRoundTrip) {
  for (auto [St, Tier] : {std::pair<ResponseStatus, const char *>(
                              ResponseStatus::Ok, "hit_disk"),
                          {ResponseStatus::Shed, "none"},
                          {ResponseStatus::Error, "none"}}) {
    CompileResponse Resp;
    Resp.Status = St;
    Resp.Tier = Tier;
    Resp.Body = St == ResponseStatus::Shed ? "" : "payload bytes";
    CompileResponse Out;
    std::string Err;
    ASSERT_TRUE(decodeResponse(encodeResponse(Resp), Out, &Err)) << Err;
    EXPECT_EQ(Resp.Status, Out.Status);
    EXPECT_EQ(Resp.Tier, Out.Tier);
    EXPECT_EQ(Resp.Body, Out.Body);
  }
}

TEST(Protocol, DecodeRequestRejectsMalformedDocuments) {
  CompileRequest Out;
  // Version tag wrong or absent.
  EXPECT_FALSE(decodeRequest("dra-req-v2\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest("scheme=remap\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest("", Out));
  // Unknown key, unknown scheme, non-numeric value.
  EXPECT_FALSE(decodeRequest("dra-req-v1\nbogus=1\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest("dra-req-v1\nscheme=turbo\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest("dra-req-v1\nregn=twelve\nbody=0\n", Out));
  // Body count missing, malformed, or inconsistent with the payload.
  EXPECT_FALSE(decodeRequest("dra-req-v1\nscheme=remap\n", Out));
  EXPECT_FALSE(decodeRequest("dra-req-v1\nbody=abc\n", Out));
  EXPECT_FALSE(decodeRequest("dra-req-v1\nbody=5\nabc", Out));
  EXPECT_FALSE(decodeRequest("dra-req-v1\nbody=2\nabc", Out)); // trailing
  // Garbage that is not even line-structured.
  EXPECT_FALSE(decodeRequest(std::string(64, '\xff'), Out));
  std::string Err;
  EXPECT_FALSE(decodeRequest("dra-req-v1\nbogus=1\nbody=0\n", Out, &Err));
  EXPECT_NE(std::string::npos, Err.find("bogus"));
}

TEST(Protocol, DecodeRequestBoundsCostlyKnobs) {
  struct Knob {
    const char *Key;
    unsigned Max;
    unsigned CompileRequest::*Field;
  } Knobs[] = {{"regn", MaxWireRegN, &CompileRequest::RegN},
               {"baselinek", MaxWireBaselineK, &CompileRequest::BaselineK},
               {"remapstarts", MaxWireRemapStarts,
                &CompileRequest::RemapStarts}};
  for (const Knob &K : Knobs) {
    SCOPED_TRACE(K.Key);
    auto Doc = [&](unsigned V) {
      return std::string("dra-req-v1\n") + K.Key + "=" + std::to_string(V) +
             "\nbody=0\n";
    };
    CompileRequest Out;
    std::string Err;
    ASSERT_TRUE(decodeRequest(Doc(K.Max), Out, &Err)) << Err;
    EXPECT_EQ(K.Max, Out.*K.Field);
    EXPECT_FALSE(decodeRequest(Doc(K.Max + 1), Out, &Err));
    EXPECT_NE(std::string::npos, Err.find(K.Key)) << Err;
    EXPECT_FALSE(decodeRequest(Doc(4294967295u), Out, &Err));
    EXPECT_NE(std::string::npos, Err.find(K.Key)) << Err;
  }
}

TEST(Protocol, DecodeRequestBoundsRemapWork) {
  auto Doc = [](unsigned RegN, unsigned Starts) {
    return "dra-req-v1\nregn=" + std::to_string(RegN) +
           "\nremapstarts=" + std::to_string(Starts) + "\nbody=0\n";
  };
  // The corners of regn^2 x remapstarts <= 256^2 x 200 decode; one step
  // past each is a bad request naming both keys.
  const std::pair<unsigned, unsigned> Corners[] = {
      {256, 200}, {128, 800}, {64, 3200}, {36, 10000}};
  const std::pair<unsigned, unsigned> Over[] = {
      {256, 201}, {128, 801}, {64, 3201}, {37, 10000}};
  for (const auto &[RegN, Starts] : Corners) {
    SCOPED_TRACE(std::to_string(RegN) + "x" + std::to_string(Starts));
    CompileRequest Out;
    std::string Err;
    ASSERT_TRUE(decodeRequest(Doc(RegN, Starts), Out, &Err)) << Err;
    EXPECT_EQ(RegN, Out.RegN);
    EXPECT_EQ(Starts, Out.RemapStarts);
  }
  for (const auto &[RegN, Starts] : Over) {
    SCOPED_TRACE(std::to_string(RegN) + "x" + std::to_string(Starts));
    CompileRequest Out;
    std::string Err;
    EXPECT_FALSE(decodeRequest(Doc(RegN, Starts), Out, &Err));
    EXPECT_NE(std::string::npos, Err.find("'regn'")) << Err;
    EXPECT_NE(std::string::npos, Err.find("'remapstarts'")) << Err;
  }
}

TEST(Protocol, DecodeResponseRejectsMalformedDocuments) {
  CompileResponse Out;
  EXPECT_FALSE(decodeResponse("dra-resp-v9\nstatus=ok\nbody=0\n", Out));
  EXPECT_FALSE(decodeResponse("dra-resp-v1\nbody=0\n", Out)); // no status
  EXPECT_FALSE(decodeResponse("dra-resp-v1\nstatus=maybe\nbody=0\n", Out));
  EXPECT_FALSE(
      decodeResponse("dra-resp-v1\nstatus=ok\ntier=l2\nbody=0\n", Out));
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(Framing, RoundTripAndCleanEof) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::string Payload = "hello frame \x01\x02 with binary";
  ASSERT_TRUE(writeFrame(Fds[0], Payload));
  ASSERT_TRUE(writeFrame(Fds[0], "")); // empty payload is a valid frame
  std::string Got;
  EXPECT_EQ(FrameStatus::Ok, readFrame(Fds[1], Got));
  EXPECT_EQ(Payload, Got);
  EXPECT_EQ(FrameStatus::Ok, readFrame(Fds[1], Got));
  EXPECT_EQ("", Got);
  close(Fds[0]);
  EXPECT_EQ(FrameStatus::Eof, readFrame(Fds[1], Got));
  close(Fds[1]);
}

TEST(Framing, TruncatedHeaderAndPayload) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  sendRaw(Fds[0], leHeader(FrameMagic, 100).substr(0, 5)); // partial header
  close(Fds[0]);
  std::string Got;
  EXPECT_EQ(FrameStatus::Truncated, readFrame(Fds[1], Got));
  close(Fds[1]);

  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  sendRaw(Fds[0], leHeader(FrameMagic, 100) + "only ten b"); // partial body
  close(Fds[0]);
  EXPECT_EQ(FrameStatus::Truncated, readFrame(Fds[1], Got));
  close(Fds[1]);
}

TEST(Framing, BadMagicAndOversizePrefix) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  sendRaw(Fds[0], "XXXXYYYY");
  std::string Got;
  EXPECT_EQ(FrameStatus::BadMagic, readFrame(Fds[1], Got));

  // A hostile length prefix is rejected before any allocation; the bytes
  // after the header are never read.
  sendRaw(Fds[0], leHeader(FrameMagic, 0x40000000u));
  EXPECT_EQ(FrameStatus::Oversize, readFrame(Fds[1], Got));
  close(Fds[0]);
  close(Fds[1]);
}

TEST(Framing, GarbagePayloadIsAFrameButNotARequest) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::string Garbage(256, '\xfe');
  ASSERT_TRUE(writeFrame(Fds[0], Garbage));
  std::string Got;
  EXPECT_EQ(FrameStatus::Ok, readFrame(Fds[1], Got));
  EXPECT_EQ(Garbage, Got);
  CompileRequest Req;
  std::string Err;
  EXPECT_FALSE(decodeRequest(Got, Req, &Err)); // structured error, no crash
  EXPECT_FALSE(Err.empty());
  close(Fds[0]);
  close(Fds[1]);
}

TEST(Framing, WriteToClosedPeerFailsWithoutSignal) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  close(Fds[1]);
  // First write may be swallowed into the buffer; the second observes the
  // reset. Either way the process survives (MSG_NOSIGNAL, no SIGPIPE).
  bool First = writeFrame(Fds[0], "into the void");
  bool Second = writeFrame(Fds[0], "into the void");
  EXPECT_FALSE(First && Second);
  close(Fds[0]);
}

TEST(Framing, LargeFrameSurvivesPartialSends) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  // A small send buffer makes the one sendmsg return early many times.
  int SndBuf = 4096;
  ASSERT_EQ(0, setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &SndBuf,
                          sizeof SndBuf));
  std::string Big(1u << 20, '\0');
  for (size_t I = 0; I != Big.size(); ++I)
    Big[I] = char((I * 131 + I / 4096) & 0xff);
  bool Wrote = false;
  std::thread Writer([&] {
    Wrote = writeFrame(Fds[0], Big) && writeFrame(Fds[0], "");
  });
  std::string Got;
  EXPECT_EQ(FrameStatus::Ok, readFrame(Fds[1], Got));
  EXPECT_TRUE(Got == Big); // not EXPECT_EQ: a 1 MiB diff is unreadable
  EXPECT_EQ(FrameStatus::Ok, readFrame(Fds[1], Got));
  EXPECT_EQ("", Got);
  close(Fds[1]); // after a failed read this unblocks the writer
  Writer.join();
  EXPECT_TRUE(Wrote);
  close(Fds[0]);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(AdmissionQueue, BoundsInFlightAndCounts) {
  AdmissionQueue Q(2);
  EXPECT_EQ(2u, Q.limit());
  EXPECT_TRUE(Q.tryAdmit());
  EXPECT_TRUE(Q.tryAdmit());
  EXPECT_FALSE(Q.tryAdmit()); // full -> shed
  EXPECT_EQ(2u, Q.depth());
  Q.release();
  EXPECT_TRUE(Q.tryAdmit()); // a release frees a slot
  Q.release();
  Q.release();
  EXPECT_EQ(0u, Q.depth());
  EXPECT_EQ(3u, Q.admitted());
  EXPECT_EQ(1u, Q.shed());
}

TEST(AdmissionQueue, ZeroLimitShedsEverything) {
  AdmissionQueue Q(0);
  EXPECT_FALSE(Q.tryAdmit());
  EXPECT_FALSE(Q.tryAdmit());
  EXPECT_EQ(0u, Q.admitted());
  EXPECT_EQ(2u, Q.shed());
}

TEST(AdmissionQueue, DrainWaitsForEveryRelease) {
  AdmissionQueue Q(4);
  ASSERT_TRUE(Q.tryAdmit());
  ASSERT_TRUE(Q.tryAdmit());
  std::atomic<bool> Released{false};
  std::thread T([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Q.release();
    Released.store(true);
    Q.release();
  });
  Q.drain();
  EXPECT_TRUE(Released.load()); // drain returned only after the releases
  EXPECT_EQ(0u, Q.depth());
  T.join();
}

//===----------------------------------------------------------------------===//
// CompileServer end to end
//===----------------------------------------------------------------------===//

TEST(CompileServer, ResponsesMatchLocalCompileAcrossTiers) {
  MetricsRegistry Metrics;
  ResultCacheOptions CO;
  CO.DiskDir = freshDir("parity");
  ResultCache Cache(CO);
  ServerOptions SO;
  SO.SocketPath = "server_test_parity.sock";
  SO.Workers = 2;
  SO.QueueDepth = 8;
  SO.Cache = &Cache;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  int Fd = connectUnixSocket(SO.SocketPath, &Err);
  ASSERT_GE(Fd, 0) << Err;

  CompileRequest Req = tinyRequest();
  auto F = parseFunction(Req.Body, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  PipelineResult Local = runPipeline(*F, Req.toConfig());
  std::string LocalBytes = ResultCache::serializeResult(Local);

  CompileResponse Resp;
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("miss", Resp.Tier);
  EXPECT_EQ(LocalBytes, Resp.Body); // byte-identical to a local compile

  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("hit_mem", Resp.Tier); // second compile served from cache
  EXPECT_EQ(LocalBytes, Resp.Body);

  close(Fd);
  Server.stop();

  EXPECT_EQ(2u, Server.serverMetrics().Requests.load());
  EXPECT_EQ(1u, Server.queue().admitted()); // the hit was never admitted
  EXPECT_EQ(0u, Server.queue().shed());
  EXPECT_EQ(0u, Server.queue().depth());

  // stop() flushed server.* (even all-zero series) and the latency
  // histograms into the registry.
  bool SawRequests = false, SawBadFrames = false;
  for (const auto &C : Metrics.counters()) {
    if (C.Name == "server.requests") {
      SawRequests = true;
      EXPECT_EQ(2, C.Value);
    }
    if (C.Name == "server.bad_frames") {
      SawBadFrames = true;
      EXPECT_EQ(0, C.Value);
    }
  }
  EXPECT_TRUE(SawRequests);
  EXPECT_TRUE(SawBadFrames);
  bool SawMiss = false, SawHit = false;
  for (const auto &H : Metrics.histograms()) {
    if (H.Name != "server.latency_us")
      continue;
    for (const auto &[K, V] : H.Labels.entries()) {
      SawMiss = SawMiss || V == "miss";
      SawHit = SawHit || V == "hit_mem";
    }
  }
  EXPECT_TRUE(SawMiss);
  EXPECT_TRUE(SawHit);

  // A server restarted on the same disk tier answers from it, with the
  // same bytes, and promotes the entry to its memory tier.
  ResultCache Restarted(CO);
  SO.Cache = &Restarted;
  SO.Metrics = nullptr;
  CompileServer Server2(SO);
  ASSERT_TRUE(Server2.start(&Err)) << Err;
  Fd = connectUnixSocket(SO.SocketPath, &Err);
  ASSERT_GE(Fd, 0) << Err;
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("hit_disk", Resp.Tier);
  EXPECT_EQ(LocalBytes, Resp.Body);
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  EXPECT_EQ("hit_mem", Resp.Tier);
  EXPECT_EQ(LocalBytes, Resp.Body);
  close(Fd);
  Server2.stop();
  EXPECT_EQ(0u, Server2.queue().admitted());
}

TEST(CompileServer, CacheHitsSkipAdmission) {
  // QueueDepth 0 sheds everything that needs admission, so an ok answer
  // proves the hit never reached the queue or the pool.
  ResultCache Cache;
  CompileRequest Req = tinyRequest();
  std::string Err;
  auto F = parseFunction(Req.Body, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  PipelineConfig C = Req.toConfig();
  C.Cache = &Cache;
  const std::string LocalBytes =
      ResultCache::serializeResult(runPipeline(*F, C));

  ServerOptions SO;
  SO.SocketPath = "server_test_hit_no_admit.sock"; // never started
  SO.Workers = 1;
  SO.QueueDepth = 0;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  CompileResponse Hit = Server.handleRequest(encodeRequest(Req));
  EXPECT_EQ(ResponseStatus::Ok, Hit.Status);
  EXPECT_EQ("hit_mem", Hit.Tier);
  EXPECT_EQ(LocalBytes, Hit.Body);

  CompileRequest Cold = tinyRequest();
  Cold.S = Scheme::Select;
  CompileResponse Shed = Server.handleRequest(encodeRequest(Cold));
  EXPECT_EQ(ResponseStatus::Shed, Shed.Status);
  EXPECT_EQ(0u, Server.queue().admitted());
  EXPECT_EQ(1u, Server.queue().shed());
}

TEST(CompileServer, CacheCountersAreExactPerRequest) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_hit_counters.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  constexpr unsigned Hits = 5;
  const std::string Payload = encodeRequest(tinyRequest());
  CompileResponse Miss = Server.handleRequest(Payload);
  ASSERT_EQ(ResponseStatus::Ok, Miss.Status);
  EXPECT_EQ("miss", Miss.Tier);
  for (unsigned I = 0; I != Hits; ++I) {
    CompileResponse Hit = Server.handleRequest(Payload);
    EXPECT_EQ("hit_mem", Hit.Tier);
    EXPECT_EQ(Miss.Body, Hit.Body);
  }
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(1u, CS.Misses);
  EXPECT_EQ(Hits, CS.MemHits);
  EXPECT_EQ(0u, CS.DiskHits);
  EXPECT_EQ(1u, CS.Stores);
  EXPECT_EQ(1u, Server.queue().admitted());
}

TEST(CompileServer, VerifyTurnsEachHitIntoOneRecompile) {
  ResultCacheOptions CO;
  CO.VerifyFraction = 1;
  ResultCache Cache(CO);
  ServerOptions SO;
  SO.SocketPath = "server_test_hit_verify.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  constexpr unsigned Repeats = 3;
  const std::string Payload = encodeRequest(tinyRequest());
  CompileResponse First = Server.handleRequest(Payload);
  ASSERT_EQ(ResponseStatus::Ok, First.Status);
  for (unsigned I = 0; I != Repeats; ++I) {
    CompileResponse R = Server.handleRequest(Payload);
    ASSERT_EQ(ResponseStatus::Ok, R.Status);
    EXPECT_EQ("miss", R.Tier); // hijacked: answered by the recompile
    EXPECT_EQ(First.Body, R.Body);
    EXPECT_EQ(I + 1, Cache.stats().VerifyRecompiles);
  }
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(0u, CS.VerifyMismatches);
  EXPECT_EQ(0u, CS.Hits);
  EXPECT_EQ(1u + Repeats, Server.queue().admitted());
}

TEST(CompileServer, StructuredErrorsNeverKillTheServer) {
  ServerOptions SO;
  SO.SocketPath = "server_test_errors.sock";
  SO.Workers = 1;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  int Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);

  // A frame whose payload is not a request document.
  ASSERT_TRUE(writeFrame(Fd, "utterly not a request"));
  std::string Payload;
  ASSERT_EQ(FrameStatus::Ok, readFrame(Fd, Payload));
  CompileResponse Resp;
  ASSERT_TRUE(decodeResponse(Payload, Resp));
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(std::string::npos, Resp.Body.find("bad request"));

  // A well-formed request whose body does not parse as IR.
  CompileRequest Req = tinyRequest();
  Req.Body = "func broken\n  this is not IR\n";
  ASSERT_TRUE(transact(Fd, Req, Resp));
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(std::string::npos, Resp.Body.find("parse error"));

  // The same connection still serves a good request afterwards.
  ASSERT_TRUE(transact(Fd, tinyRequest(), Resp));
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  close(Fd);

  // Bad magic: structured error, then the connection is dropped.
  Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  sendRaw(Fd, "XXXXYYYYGARBAGE");
  ASSERT_EQ(FrameStatus::Ok, readFrame(Fd, Payload));
  ASSERT_TRUE(decodeResponse(Payload, Resp));
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(std::string::npos, Resp.Body.find("bad-magic"));
  // The server dropped the connection. Our unread garbage bytes may turn
  // its close into a reset, so both a clean EOF and a connection error
  // are within contract here.
  FrameStatus After = readFrame(Fd, Payload);
  EXPECT_TRUE(After == FrameStatus::Eof || After == FrameStatus::IoError ||
              After == FrameStatus::Truncated);
  close(Fd);

  // Oversize length prefix: same contract.
  Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  sendRaw(Fd, leHeader(FrameMagic, 0x7f000000u));
  ASSERT_EQ(FrameStatus::Ok, readFrame(Fd, Payload));
  ASSERT_TRUE(decodeResponse(Payload, Resp));
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(std::string::npos, Resp.Body.find("oversize"));
  close(Fd);

  // A client that dies mid-frame. The server drops the connection.
  Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  sendRaw(Fd, leHeader(FrameMagic, 1000) + "partial");
  close(Fd);

  // And one that disconnects after sending a full request, before
  // reading its response: the compile completes, the response write
  // fails, the server survives.
  Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(writeFrame(Fd, encodeRequest(tinyRequest())));
  close(Fd);

  // Server is still healthy on a fresh connection.
  Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(transact(Fd, tinyRequest(), Resp));
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  close(Fd);

  Server.stop();
  EXPECT_GE(Server.serverMetrics().BadFrames.load(), 3u);
  EXPECT_GE(Server.serverMetrics().Errors.load(), 2u);
}

TEST(CompileServer, ZeroQueueDepthShedsWithEmptyBody) {
  MetricsRegistry Metrics;
  ServerOptions SO;
  SO.SocketPath = "server_test_shed.sock";
  SO.Workers = 1;
  SO.QueueDepth = 0;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  int Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);
  CompileResponse Resp;
  for (int I = 0; I != 3; ++I) {
    ASSERT_TRUE(transact(Fd, tinyRequest(), Resp));
    EXPECT_EQ(ResponseStatus::Shed, Resp.Status);
    EXPECT_EQ("none", Resp.Tier);
    EXPECT_TRUE(Resp.Body.empty());
  }
  close(Fd);
  Server.stop();

  EXPECT_EQ(3u, Server.queue().shed());
  EXPECT_EQ(0u, Server.queue().admitted());
  bool SawShed = false;
  for (const auto &C : Metrics.counters())
    if (C.Name == "server.shed") {
      SawShed = true;
      EXPECT_EQ(3, C.Value);
    }
  EXPECT_TRUE(SawShed);
}

TEST(CompileServer, HandleRequestDirectlyWithoutASocket) {
  ServerOptions SO;
  SO.SocketPath = "server_test_direct.sock"; // never started
  SO.Workers = 1;
  CompileServer Server(SO);

  CompileResponse Resp = Server.handleRequest("not a document");
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);

  Resp = Server.handleRequest(encodeRequest(tinyRequest()));
  EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("miss", Resp.Tier); // no cache wired: always a fresh compile
  PipelineResult Out;
  EXPECT_TRUE(ResultCache::deserializeResult(Resp.Body, Out));
}

TEST(CompileServer, OverBoundKnobIsABadRequestBeforeAnyWork) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_over_bound.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  CompileRequest Starts = tinyRequest();
  Starts.S = Scheme::Remap;
  Starts.RemapStarts = MaxWireRemapStarts + 1;
  CompileRequest RegN = tinyRequest();
  RegN.RegN = MaxWireRegN + 1;
  CompileRequest K = tinyRequest();
  K.S = Scheme::Baseline;
  K.BaselineK = MaxWireBaselineK + 1;
  // Both knobs within their own bounds, their product above the budget.
  CompileRequest Work = tinyRequest();
  Work.S = Scheme::Remap;
  Work.RegN = 128;
  Work.RemapStarts = 801;
  const std::pair<const char *, CompileRequest> Cases[] = {
      {"remapstarts", Starts},
      {"regn", RegN},
      {"baselinek", K},
      {"'regn' 128 squared times 'remapstarts' 801", Work}};
  for (const auto &[Key, Req] : Cases) {
    SCOPED_TRACE(Key);
    const uint64_t ErrorsBefore = Server.serverMetrics().Errors.load();
    CompileResponse R = Server.handleRequest(encodeRequest(Req));
    EXPECT_EQ(ResponseStatus::Error, R.Status);
    EXPECT_EQ("none", R.Tier);
    EXPECT_EQ(0u, R.Body.find("bad request: ")) << R.Body;
    EXPECT_NE(std::string::npos, R.Body.find(Key)) << R.Body;
    EXPECT_EQ(ErrorsBefore + 1, Server.serverMetrics().Errors.load());
  }
  // Rejected before the digest, the parse and admission.
  EXPECT_EQ(0u, Server.queue().admitted());
  EXPECT_EQ(0u, Server.requestIndex().size());
  EXPECT_EQ(0u, Server.serverMetrics().IndexMisses.load());
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(0u, CS.Hits + CS.Misses);
}

//===----------------------------------------------------------------------===//
// scheme=auto (portfolio)
//===----------------------------------------------------------------------===//

TEST(Protocol, AutoSchemeRoundTrip) {
  CompileRequest Req = tinyRequest();
  Req.Auto = true;
  std::string Doc = encodeRequest(Req);
  EXPECT_NE(Doc.find("scheme=auto"), std::string::npos);

  CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeRequest(Doc, Out, &Err)) << Err;
  EXPECT_TRUE(Out.Auto);
  EXPECT_EQ(Req.Body, Out.Body);

  // A concrete scheme decodes with Auto off.
  ASSERT_TRUE(decodeRequest(encodeRequest(tinyRequest()), Out, &Err)) << Err;
  EXPECT_FALSE(Out.Auto);
}

TEST(CompileServer, AutoRaceMatchesLocalPortfolio) {
  ServerOptions SO;
  SO.SocketPath = "server_test_auto_race.sock"; // never started
  SO.Workers = 2;
  SO.Portfolio = PortfolioMode::Race;
  SO.PortfolioJobs = 2;
  CompileServer Server(SO);

  CompileRequest Req = tinyRequest();
  Req.Auto = true;
  CompileResponse Resp = Server.handleRequest(encodeRequest(Req));
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("miss", Resp.Tier);

  // Byte parity with a local race under the same knobs.
  std::string Err;
  auto F = parseFunction(Req.Body, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  PipelineConfig C = Req.toConfig();
  C.Portfolio.Mode = PortfolioMode::Race;
  C.Portfolio.Jobs = 2;
  EXPECT_EQ(Resp.Body,
            ResultCache::serializeResult(runPortfolio(*F, C)));
}

TEST(CompileServer, AutoChooseMatchesLocalPortfolio) {
  DecisionTable T;
  T.Features = featureNames();
  T.Arms = defaultPortfolioArms();
  DecisionNode Leaf;
  Leaf.Feature = -1;
  Leaf.Arm = 1;
  Leaf.Confidence = 0.9;
  Leaf.Samples = 7;
  T.Nodes.push_back(Leaf);
  std::string TErr;
  ASSERT_TRUE(T.valid(&TErr)) << TErr;

  ServerOptions SO;
  SO.SocketPath = "server_test_auto_choose.sock"; // never started
  SO.Workers = 1;
  SO.Portfolio = PortfolioMode::Choose;
  SO.PortfolioTable = &T;
  CompileServer Server(SO);

  CompileRequest Req = tinyRequest();
  Req.Auto = true;
  CompileResponse Resp = Server.handleRequest(encodeRequest(Req));
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);

  std::string Err;
  auto F = parseFunction(Req.Body, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  PipelineConfig C = Req.toConfig();
  C.Portfolio.Mode = PortfolioMode::Choose;
  C.Portfolio.Table = &T;
  PortfolioOutcome Out;
  PipelineResult Local = runPortfolio(*F, C, nullptr, &Out);
  EXPECT_TRUE(Out.ChooserConfident);
  EXPECT_EQ(Resp.Body, ResultCache::serializeResult(Local));
}

TEST(CompileServer, AutoRejectedWhenPortfolioIsOff) {
  ServerOptions SO;
  SO.SocketPath = "server_test_auto_off.sock"; // never started
  SO.Workers = 1;
  CompileServer Server(SO);

  CompileRequest Req = tinyRequest();
  Req.Auto = true;
  CompileResponse Resp = Server.handleRequest(encodeRequest(Req));
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(Resp.Body.find("scheme=auto requires a server started with"),
            std::string::npos)
      << Resp.Body;
  // The concrete-scheme path still works on the same server.
  EXPECT_EQ(ResponseStatus::Ok,
            Server.handleRequest(encodeRequest(tinyRequest())).Status);
}

TEST(CompileServer, AutoWinnerDoubleStoreServesDirectRequests) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_auto_cache.sock"; // never started
  SO.Workers = 1;
  SO.Portfolio = PortfolioMode::Race;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  CompileRequest Req = tinyRequest();
  Req.Auto = true;
  CompileResponse Cold = Server.handleRequest(encodeRequest(Req));
  ASSERT_EQ(ResponseStatus::Ok, Cold.Status);
  EXPECT_EQ("miss", Cold.Tier);

  // Warm auto request: memory-tier hit, byte-identical body.
  CompileResponse Warm = Server.handleRequest(encodeRequest(Req));
  EXPECT_EQ("hit_mem", Warm.Tier);
  EXPECT_EQ(Cold.Body, Warm.Body);

  // The race's winner was also stored under its concrete scheme key, so
  // a direct request for that scheme hits without compiling.
  std::string Err;
  auto F = parseFunction(Req.Body, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  PipelineConfig C = Req.toConfig();
  C.Portfolio.Mode = PortfolioMode::Race;
  PipelineConfig WinnerCfg;
  runPortfolio(*F, C, &WinnerCfg);

  CompileRequest Direct = tinyRequest();
  Direct.S = WinnerCfg.S;
  CompileResponse DirectResp = Server.handleRequest(encodeRequest(Direct));
  ASSERT_EQ(ResponseStatus::Ok, DirectResp.Status);
  EXPECT_EQ("hit_mem", DirectResp.Tier);
  EXPECT_EQ(Cold.Body, DirectResp.Body);
}

TEST(CompileServer, ConcurrentClientsAndGracefulStop) {
  MetricsRegistry Metrics;
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_concurrent.sock";
  SO.Workers = 2;
  SO.QueueDepth = 16;
  SO.Cache = &Cache;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  constexpr int Clients = 4, PerClient = 5;
  std::atomic<int> OkCount{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C != Clients; ++C)
    Threads.emplace_back([&] {
      int Fd = connectUnixSocket(SO.SocketPath);
      ASSERT_GE(Fd, 0);
      for (int I = 0; I != PerClient; ++I) {
        CompileResponse Resp;
        ASSERT_TRUE(transact(Fd, tinyRequest(), Resp));
        if (Resp.Status == ResponseStatus::Ok)
          OkCount.fetch_add(1);
      }
      close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  Server.stop();
  Server.stop(); // idempotent

  EXPECT_EQ(Clients * PerClient, OkCount.load());
  EXPECT_EQ(unsigned(Clients * PerClient),
            unsigned(Server.serverMetrics().Requests.load()));
  EXPECT_EQ(0u, Server.queue().depth()); // graceful stop drained
  // One compile, the rest cache hits.
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(uint64_t(Clients * PerClient), CS.Hits + CS.Misses);
  EXPECT_GE(CS.Hits, uint64_t(Clients * PerClient - Clients));
}

TEST(CompileServer, StopWithoutStartAndRestart) {
  ServerOptions SO;
  SO.SocketPath = "server_test_restart.sock";
  SO.Workers = 1;
  {
    CompileServer Server(SO);
    Server.stop(); // never started: no-op
    ASSERT_TRUE(Server.start());
    int Fd = connectUnixSocket(SO.SocketPath);
    ASSERT_GE(Fd, 0);
    CompileResponse Resp;
    ASSERT_TRUE(transact(Fd, tinyRequest(), Resp));
    EXPECT_EQ(ResponseStatus::Ok, Resp.Status);
    close(Fd);
  } // destructor stops and unlinks
  EXPECT_LT(connectUnixSocket(SO.SocketPath), 0); // socket gone
}

//===----------------------------------------------------------------------===//
// Tracing on the wire
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestTraceIdRoundTripAndStrictness) {
  CompileRequest Req = tinyRequest();
  Req.TraceId = 0xabcdef0123456789ull;
  CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeRequest(encodeRequest(Req), Out, &Err)) << Err;
  EXPECT_EQ(Req.TraceId, Out.TraceId);
  EXPECT_EQ(Req.Body, Out.Body);

  // An untraced request never mentions traceid on the wire.
  Req.TraceId = 0;
  EXPECT_EQ(std::string::npos, encodeRequest(Req).find("traceid"));
  ASSERT_TRUE(decodeRequest(encodeRequest(Req), Out, &Err)) << Err;
  EXPECT_EQ(0u, Out.TraceId);

  // Malformed ids are rejected outright: wrong length, charset, or the
  // reserved all-zero id.
  EXPECT_FALSE(decodeRequest("dra-req-v1\ntraceid=abc\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest(
      "dra-req-v1\ntraceid=ABCDEF0123456789\nbody=0\n", Out));
  EXPECT_FALSE(decodeRequest(
      "dra-req-v1\ntraceid=0000000000000000\nbody=0\n", Out));
}

TEST(Protocol, ResponseSpanSummaryRoundTrip) {
  CompileResponse Resp;
  Resp.Status = ResponseStatus::Ok;
  Resp.Tier = "miss";
  Resp.Body = "result bytes; with ; semicolons\n";
  Resp.TraceId = deriveTraceId(3, 9);
  Resp.ServerPid = 4242;
  Resp.Spans.push_back({"request", 101, 0, 1000000, 900000});
  Resp.Spans.push_back({"cache.miss; tricky name", 102, 2, 1000100, 50});
  Resp.ThreadNames.push_back({101, "conn-1"});
  Resp.ThreadNames.push_back({102, "worker-0"});

  CompileResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeResponse(encodeResponse(Resp), Out, &Err)) << Err;
  EXPECT_EQ(Resp.TraceId, Out.TraceId);
  EXPECT_EQ(Resp.ServerPid, Out.ServerPid);
  EXPECT_EQ(Resp.Body, Out.Body);
  ASSERT_EQ(2u, Out.Spans.size());
  EXPECT_EQ("request", Out.Spans[0].Name);
  EXPECT_EQ(101u, Out.Spans[0].Tid);
  EXPECT_EQ(1000000u, Out.Spans[0].BeginNs);
  EXPECT_EQ(900000u, Out.Spans[0].DurNs);
  // Span names may contain ';' — only the first four fields split.
  EXPECT_EQ("cache.miss; tricky name", Out.Spans[1].Name);
  EXPECT_EQ(2u, Out.Spans[1].Depth);
  ASSERT_EQ(2u, Out.ThreadNames.size());
  EXPECT_EQ("worker-0", Out.ThreadNames[1].second);

  // A response without a trace id never emits the trace lines.
  Resp.TraceId = 0;
  std::string Wire = encodeResponse(Resp);
  EXPECT_EQ(std::string::npos, Wire.find("span="));
  EXPECT_EQ(std::string::npos, Wire.find("pid="));

  // Malformed span lines are rejected, not skipped.
  EXPECT_FALSE(decodeResponse(
      "dra-resp-v1\nstatus=ok\nspan=1;2;3\nbody=0\n", Out));
  EXPECT_FALSE(decodeResponse(
      "dra-resp-v1\nstatus=ok\nspan=x;0;1;2;name\nbody=0\n", Out));
  EXPECT_FALSE(decodeResponse(
      "dra-resp-v1\nstatus=ok\nspan=1;0;1;2;\nbody=0\n", Out));
  EXPECT_FALSE(decodeResponse(
      "dra-resp-v1\nstatus=ok\ntname=7\nbody=0\n", Out));
}

TEST(Protocol, CtlRoundTripAndStrictness) {
  CtlRequest Req;
  Req.Cmd = "recent";
  Req.RecentN = 5;
  std::string Wire = encodeCtlRequest(Req);
  EXPECT_TRUE(isCtlPayload(Wire));
  EXPECT_FALSE(isCtlPayload(encodeRequest(tinyRequest())));
  CtlRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeCtlRequest(Wire, Out, &Err)) << Err;
  EXPECT_EQ("recent", Out.Cmd);
  EXPECT_EQ(5u, Out.RecentN);

  // 'stats'/'health' omit n=.
  Req.Cmd = "stats";
  EXPECT_EQ(std::string::npos, encodeCtlRequest(Req).find("n="));

  // Unknown keys, missing cmd, and nonempty bodies are rejected.
  EXPECT_FALSE(decodeCtlRequest("dra-ctl-v1\nbogus=1\nbody=0\n", Out));
  EXPECT_FALSE(decodeCtlRequest("dra-ctl-v1\nbody=0\n", Out));
  EXPECT_FALSE(
      decodeCtlRequest("dra-ctl-v1\ncmd=stats\nbody=3\nabc", Out));
  EXPECT_FALSE(decodeCtlRequest("dra-req-v1\ncmd=stats\nbody=0\n", Out));
}

TEST(CompileServer, ControlRequestsAnswerWithoutCompiling) {
  MetricsRegistry Metrics;
  ServerOptions SO;
  SO.SocketPath = "server_test_ctl.sock";
  SO.Workers = 1;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  int Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);

  // One compile so stats have something to show.
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(transact(Fd, tinyRequest(), Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);

  CtlRequest Ctl;
  Ctl.Cmd = "health";
  ASSERT_TRUE(transactCtl(Fd, Ctl, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("none", Resp.Tier);
  JsonValue Health;
  ASSERT_TRUE(parseJson(Resp.Body, Health, &Err)) << Err;
  EXPECT_EQ("ok", Health.field("status")->Str);
  EXPECT_GT(Health.field("pid")->Num, 0);

  Ctl.Cmd = "stats";
  ASSERT_TRUE(transactCtl(Fd, Ctl, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  MetricsFileData Stats = loadStats(Resp.Body);
  EXPECT_EQ(1.0, Stats.Counters["server.requests"]); // ctl is not one
  EXPECT_GE(Stats.Counters["server.ctl_requests"], 2.0);
  ASSERT_EQ(1u, Stats.Counters.count("trace.dropped_spans"));
  EXPECT_EQ(0.0, Stats.Counters["trace.dropped_spans"]);
  std::vector<std::string> LatencySeries;
  for (const auto &[Key, H] : Stats.Histograms)
    if (Key.rfind("server.latency_us", 0) == 0)
      LatencySeries.push_back(Key);
  ASSERT_EQ(std::vector<std::string>{"server.latency_us{tier=miss}"},
            LatencySeries);
  EXPECT_EQ(1.0, Stats.Histograms["server.latency_us{tier=miss}"].Count);

  Ctl.Cmd = "recent";
  Ctl.RecentN = 8;
  ASSERT_TRUE(transactCtl(Fd, Ctl, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  JsonValue Recent;
  ASSERT_TRUE(parseJson(Resp.Body, Recent, &Err)) << Err;
  const JsonValue *Records = Recent.field("records");
  ASSERT_NE(nullptr, Records);
  ASSERT_EQ(1u, Records->Arr.size());
  EXPECT_EQ("ok", Records->Arr[0].field("outcome")->Str);
  EXPECT_EQ("miss", Records->Arr[0].field("tier")->Str);
  EXPECT_EQ(16u, Records->Arr[0].field("traceid")->Str.size());

  // An unknown command is a structured error that counts as one.
  Ctl.Cmd = "explode";
  ASSERT_TRUE(transactCtl(Fd, Ctl, Resp, &Err)) << Err;
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  EXPECT_NE(std::string::npos, Resp.Body.find("explode"));

  close(Fd);
  Server.stop();
  EXPECT_EQ(1u, Server.serverMetrics().Requests.load());
  EXPECT_EQ(4u, Server.serverMetrics().CtlRequests.load());
}

TEST(CompileServer, StatsIsTheRegistryDocument) {
  // The stats body is the registry --metrics-out writes, so series that
  // other layers observe (here the cache's probe times) appear in it.
  MetricsRegistry Metrics;
  ResultCache Cache;
  Cache.setMetrics(&Metrics);
  ServerOptions SO;
  SO.SocketPath = "server_test_stats_doc.sock"; // unused: direct calls
  SO.Workers = 1;
  SO.Cache = &Cache;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  const std::string Payload = encodeRequest(tinyRequest());
  ASSERT_EQ("miss", Server.handleRequest(Payload).Tier);
  ASSERT_EQ("hit_mem", Server.handleRequest(Payload).Tier);

  CtlRequest Ctl;
  Ctl.Cmd = "stats";
  CompileResponse Resp = Server.handleRequest(encodeCtlRequest(Ctl));
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  std::ostringstream Direct;
  Metrics.writeJson(Direct);
  EXPECT_EQ(Direct.str(), Resp.Body);

  MetricsFileData Stats = loadStats(Resp.Body);
  ASSERT_EQ(1u, Stats.Histograms.count("cache.hit_us{tier=mem}"));
  EXPECT_EQ(1.0, Stats.Histograms["cache.hit_us{tier=mem}"].Count);
  EXPECT_EQ(1.0, Stats.Histograms["server.latency_us{tier=hit_mem}"].Count);
  EXPECT_EQ(1.0, Stats.Counters["cache.hits_mem"]);
  EXPECT_EQ(1.0, Stats.Counters["server.index_hits"]);
  EXPECT_EQ(1.0, Stats.Gauges["server.workers"]);
  EXPECT_EQ(double(SO.FlightRecorderSize),
            Stats.Gauges["trace.flight_capacity"]);
  EXPECT_EQ(2.0, Stats.Gauges["trace.flight_recorded"]);
  EXPECT_EQ(double(SO.SlowRequestUs), Stats.Gauges["trace.slow_threshold_us"]);
}

TEST(CompileServer, StatsWithoutARegistryAnswersTheSnapshot) {
  ServerOptions SO;
  SO.SocketPath = "server_test_stats_local.sock"; // unused: direct calls
  SO.Workers = 1;
  CompileServer Server(SO);
  ASSERT_EQ(ResponseStatus::Ok,
            Server.handleRequest(encodeRequest(tinyRequest())).Status);

  CtlRequest Ctl;
  Ctl.Cmd = "stats";
  CompileResponse Resp = Server.handleRequest(encodeCtlRequest(Ctl));
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  MetricsFileData Stats = loadStats(Resp.Body);
  EXPECT_EQ(1.0, Stats.Counters["server.requests"]);
  EXPECT_EQ(1.0, Stats.Counters["server.ctl_requests"]);
  EXPECT_EQ(1.0, Stats.Gauges["trace.flight_recorded"]);
  EXPECT_TRUE(Stats.Histograms.empty()); // nothing observes without one
}

TEST(CompileServer, TracedRequestEchoesSpanSummary) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_traced.sock";
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  int Fd = connectUnixSocket(SO.SocketPath);
  ASSERT_GE(Fd, 0);

  // An untraced request gets no trace attachments even though the flight
  // recorder collects spans server-side.
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(transact(Fd, tinyRequest(), Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ(0u, Resp.TraceId);
  EXPECT_TRUE(Resp.Spans.empty());

  auto SpanCount = [&](const char *Name, unsigned Depth) {
    unsigned N = 0;
    for (const WireSpan &S : Resp.Spans)
      N += S.Name == Name && S.Depth == Depth;
    return N;
  };
  // The whole-request span contains every other span in time.
  auto ExpectContained = [&] {
    const WireSpan *Request = nullptr;
    for (const WireSpan &S : Resp.Spans)
      if (S.Name == "request")
        Request = &S;
    ASSERT_NE(nullptr, Request);
    for (const WireSpan &S : Resp.Spans) {
      EXPECT_GE(S.BeginNs, Request->BeginNs);
      EXPECT_LE(S.BeginNs + S.DurNs, Request->BeginNs + Request->DurNs);
    }
  };

  // A traced one echoes the id and the span tree. It repeats the first
  // request's bytes, so the request index answers it on the connection
  // thread: no parse, no queue wait, no compile.
  CompileRequest Req = tinyRequest();
  Req.TraceId = deriveTraceId(11, 7);
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("hit_mem", Resp.Tier); // same body as the first request
  EXPECT_EQ(Req.TraceId, Resp.TraceId);
  EXPECT_GT(Resp.ServerPid, 0u);
  ASSERT_FALSE(Resp.Spans.empty());
  EXPECT_EQ(1u, SpanCount("request", 0));
  EXPECT_EQ(0u, SpanCount("parse", 1));
  EXPECT_EQ(1u, SpanCount("cache.hit_mem", 2));
  EXPECT_EQ(0u, SpanCount("queue_wait", 1));
  EXPECT_EQ(0u, SpanCount("compile", 1));
  EXPECT_FALSE(Resp.ThreadNames.empty());
  ExpectContained();

  // A first-seen body (the function renamed) takes the full path: one
  // parse, then a hit through the content key.
  Req.Body = renamed(TinyFunc, "tiny_traced");
  Req.TraceId = deriveTraceId(11, 9);
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("hit_mem", Resp.Tier);
  EXPECT_EQ(1u, SpanCount("request", 0));
  EXPECT_EQ(1u, SpanCount("parse", 1));
  EXPECT_EQ(1u, SpanCount("cache.hit_mem", 2));
  ExpectContained();

  // A traced miss probes once, waits for a worker once, compiles once.
  Req.Body = TinyFunc;
  Req.S = Scheme::Select;
  Req.TraceId = deriveTraceId(11, 8);
  ASSERT_TRUE(transact(Fd, Req, Resp, &Err)) << Err;
  ASSERT_EQ(ResponseStatus::Ok, Resp.Status);
  EXPECT_EQ("miss", Resp.Tier);
  EXPECT_EQ(1u, SpanCount("request", 0));
  EXPECT_EQ(1u, SpanCount("cache.miss", 2));
  EXPECT_EQ(1u, SpanCount("queue_wait", 1));
  EXPECT_EQ(1u, SpanCount("compile", 1));
  EXPECT_EQ(1u, SpanCount("cache.store", 2));
  ExpectContained();

  close(Fd);
  Server.stop();
  EXPECT_EQ(3u, Server.serverMetrics().TracedRequests.load());
  EXPECT_EQ(0u, Server.serverMetrics().TraceDropped.load());
}

TEST(CompileServer, ErrorAndShedResponsesLandInLatencyTiers) {
  // Shed tier: a zero-depth queue sheds everything.
  {
    MetricsRegistry Metrics;
    ServerOptions SO;
    SO.SocketPath = "server_test_tier_shed.sock"; // unused: direct calls
    SO.Workers = 1;
    SO.QueueDepth = 0;
    SO.Metrics = &Metrics;
    CompileServer Server(SO);
    CompileResponse Resp =
        Server.handleRequest(encodeRequest(tinyRequest()));
    EXPECT_EQ(ResponseStatus::Shed, Resp.Status);
    Server.flushMetrics();
    bool SawShedTier = false;
    for (const auto &H : Metrics.histograms()) {
      if (H.Name != "server.latency_us")
        continue;
      for (const auto &[K, V] : H.Labels.entries())
        SawShedTier = SawShedTier || V == "shed";
    }
    EXPECT_TRUE(SawShedTier);
  }
  // Error tier: a payload that fails to decode.
  MetricsRegistry Metrics;
  ServerOptions SO;
  SO.SocketPath = "server_test_tier_error.sock";
  SO.Workers = 1;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  CompileResponse Resp = Server.handleRequest("not a request");
  EXPECT_EQ(ResponseStatus::Error, Resp.Status);
  Server.flushMetrics();
  bool SawErrorTier = false, SawTraceCounters = false;
  for (const auto &H : Metrics.histograms()) {
    if (H.Name != "server.latency_us")
      continue;
    for (const auto &[K, V] : H.Labels.entries())
      SawErrorTier = SawErrorTier || V == "error";
  }
  // trace.* counters flush zeros-included, so CI can gate dropped_spans
  // at 0 without special-casing its absence.
  for (const auto &C : Metrics.counters())
    if (C.Name == "trace.dropped_spans") {
      SawTraceCounters = true;
      EXPECT_EQ(0, C.Value);
    }
  EXPECT_TRUE(SawErrorTier);
  EXPECT_TRUE(SawTraceCounters);
}

TEST(CompileServer, FlightRecorderCapturesOutcomesAndSlowDetail) {
  ServerOptions SO;
  SO.SocketPath = "server_test_recorder.sock"; // unused: direct calls
  SO.Workers = 1;
  SO.FlightRecorderSize = 32;
  SO.SlowRequestUs = 0; // everything is "slow": span detail always kept
  CompileServer Server(SO);

  EXPECT_EQ(ResponseStatus::Ok,
            Server.handleRequest(encodeRequest(tinyRequest()), 1).Status);
  EXPECT_EQ(ResponseStatus::Error,
            Server.handleRequest("garbage", 2).Status);

  const FlightRecorder &FR = Server.flightRecorder();
  EXPECT_EQ(2u, FR.recorded());
  EXPECT_EQ(2u, FR.slowCount());
  std::vector<RequestRecord> R = FR.recent(10);
  ASSERT_EQ(2u, R.size());
  // Newest first: the error.
  EXPECT_EQ("error", R[0].Outcome);
  EXPECT_EQ("error", R[0].Tier);
  EXPECT_EQ("?", R[0].Scheme); // never decoded
  EXPECT_FALSE(R[0].Error.empty());
  EXPECT_EQ(2u, R[0].ConnId);
  EXPECT_TRUE(R[0].Slow);
  EXPECT_FALSE(R[0].Spans.empty()); // slow: detail kept

  EXPECT_EQ("ok", R[1].Outcome);
  EXPECT_EQ("miss", R[1].Tier);
  EXPECT_EQ("coalesce", R[1].Scheme);
  EXPECT_GT(R[1].TotalUs, 0);
  EXPECT_GE(R[1].TotalUs, R[1].CompileUs);
  EXPECT_NE(0u, R[1].TraceId); // server-derived id, never zero
  EXPECT_FALSE(R[1].ClientTraced);

  // With recording disabled (capacity 0) and no client trace id, requests
  // take the null-context fast path and leave nothing behind.
  ServerOptions SO2;
  SO2.SocketPath = "server_test_recorder_off.sock";
  SO2.Workers = 1;
  SO2.FlightRecorderSize = 0;
  CompileServer Server2(SO2);
  EXPECT_EQ(ResponseStatus::Ok,
            Server2.handleRequest(encodeRequest(tinyRequest())).Status);
  EXPECT_FALSE(Server2.flightRecorder().enabled());
  EXPECT_TRUE(Server2.flightRecorder().recent(10).empty());
  EXPECT_EQ(0u, Server2.serverMetrics().TraceSpans.load());
}

//===----------------------------------------------------------------------===//
// Request index
//===----------------------------------------------------------------------===//

TEST(RequestIndex, DigestCoversCompileFieldsAndBodyButNotTraceId) {
  RequestIndex Index;
  const CompileRequest Base = tinyRequest();
  const Hash128 D = Index.digest(Base);
  EXPECT_EQ(D, Index.digest(Base)); // deterministic within one index

  CompileRequest Traced = Base;
  Traced.TraceId = deriveTraceId(1, 2);
  EXPECT_EQ(D, Index.digest(Traced));

  std::vector<CompileRequest> Variants(8, Base);
  Variants[0].S = Scheme::Select;
  Variants[1].Auto = true;
  Variants[2].BaselineK = 7;
  Variants[3].RegN = 13;
  Variants[4].DiffN = 9;
  Variants[5].DiffW = 4;
  Variants[6].RemapStarts = 9;
  Variants[7].Body += " "; // one trailing byte
  for (const CompileRequest &V : Variants)
    EXPECT_FALSE(D == Index.digest(V));
}

TEST(RequestIndex, CapacityIsFixedAndConflictsReplace) {
  RequestIndex Index;
  EXPECT_EQ(0u, Index.size());
  // Synthetic, well-spread digests: nothing here depends on the digest key.
  Rng R(7);
  // A warm service's few hundred bodies all stay. (A direct-mapped table
  // of the same size loses 6 of these 320 to collisions.)
  std::vector<Hash128> Warm(320);
  for (size_t I = 0; I != Warm.size(); ++I) {
    Warm[I] = {R.next(), R.next()};
    Index.insert(Warm[I], I);
  }
  for (size_t I = 0; I != Warm.size(); ++I) {
    uint64_t Key = ~0ull;
    EXPECT_TRUE(Index.lookup(Warm[I], Key) && Key == I) << I;
  }
  EXPECT_EQ(Warm.size(), Index.size());

  std::vector<Hash128> Ds(10 * RequestIndex::Capacity);
  for (Hash128 &D : Ds)
    D = {R.next(), R.next()};
  for (size_t I = 0; I != Ds.size(); ++I) {
    Index.insert(Ds[I], I);
    ASSERT_LE(Index.size(), RequestIndex::Capacity);
  }
  size_t Hits = 0;
  for (size_t I = 0; I != Ds.size(); ++I) {
    uint64_t Key = ~0ull;
    if (Index.lookup(Ds[I], Key)) {
      ++Hits;
      EXPECT_EQ(I, Key);
    }
  }
  EXPECT_LE(Hits, RequestIndex::Capacity);
  EXPECT_GE(Ds.size() - Hits, 9 * RequestIndex::Capacity);

  // Insert fresh digests until one replaces the first: from then on the
  // first misses and the replacement hits.
  RequestIndex Fresh;
  const Hash128 First = {R.next(), R.next()};
  Fresh.insert(First, 1);
  uint64_t Key = 0;
  Hash128 Other;
  for (uint64_t I = 2; Fresh.lookup(First, Key); ++I) {
    Other = {R.next(), R.next()};
    Fresh.insert(Other, I);
    ASSERT_LT(I, 100 * RequestIndex::Capacity);
  }
  EXPECT_TRUE(Fresh.lookup(Other, Key));
  EXPECT_FALSE(Fresh.lookup(First, Key));
}

namespace {

/// Counter \p Name from \p Server's flushed metrics (-1 when absent).
double flushedCount(CompileServer &Server, MetricsRegistry &M,
                    const char *Name) {
  Server.flushMetrics();
  for (const auto &C : M.counters())
    if (C.Name == Name)
      return C.Value;
  return -1;
}

} // namespace

TEST(CompileServer, IndexHitBytesMatchFullPathAndLocalCompile) {
  ResultCache Cache;
  MetricsRegistry Metrics;
  ServerOptions SO;
  SO.SocketPath = "server_test_index_parity.sock"; // never started
  SO.Workers = 2;
  SO.Cache = &Cache;
  SO.Metrics = &Metrics;
  SO.Portfolio = PortfolioMode::Race;
  SO.PortfolioJobs = 2;
  CompileServer Server(SO);

  std::string Err;
  auto F = parseFunction(TinyFunc, &Err);
  ASSERT_TRUE(F.has_value()) << Err;
  const Scheme Schemes[] = {Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                            Scheme::Select, Scheme::Coalesce};
  std::vector<CompileRequest> Reqs;
  for (Scheme S : Schemes) {
    Reqs.push_back(tinyRequest());
    Reqs.back().S = S;
  }
  Reqs.push_back(tinyRequest());
  Reqs.back().Auto = true;

  uint64_t Expected = 0;
  for (const CompileRequest &Req : Reqs) {
    PipelineConfig C = Req.toConfig();
    std::string Local;
    if (Req.Auto) {
      C.Portfolio.Mode = PortfolioMode::Race;
      C.Portfolio.Jobs = 2;
      Local = ResultCache::serializeResult(runPortfolio(*F, C));
    } else {
      Local = ResultCache::serializeResult(runPipeline(*F, C));
    }
    const char *Name = Req.Auto ? "auto" : wireSchemeName(Req.S);

    CompileResponse Miss = Server.handleRequest(encodeRequest(Req));
    ASSERT_EQ(ResponseStatus::Ok, Miss.Status) << Name << ": " << Miss.Body;
    EXPECT_EQ("miss", Miss.Tier) << Name;
    EXPECT_EQ(Local, Miss.Body) << Name;

    CompileRequest Renamed = Req;
    Renamed.Body = renamed(TinyFunc, "tiny_renamed");
    CompileResponse FullHit = Server.handleRequest(encodeRequest(Renamed));
    EXPECT_EQ("hit_mem", FullHit.Tier) << Name;
    EXPECT_EQ(Local, FullHit.Body) << Name;

    CompileResponse IndexHit = Server.handleRequest(encodeRequest(Req));
    EXPECT_EQ("hit_mem", IndexHit.Tier) << Name;
    EXPECT_EQ(Local, IndexHit.Body) << Name;
    ++Expected;
    EXPECT_EQ(Expected, Server.serverMetrics().IndexHits.load()) << Name;
  }
  EXPECT_EQ(2 * Reqs.size(), Server.serverMetrics().IndexMisses.load());
  EXPECT_EQ(0u, Server.serverMetrics().IndexMismatches.load());
  EXPECT_EQ(double(Reqs.size()),
            flushedCount(Server, Metrics, "server.index_hits"));
  EXPECT_EQ(double(2 * Reqs.size()),
            flushedCount(Server, Metrics, "server.index_misses"));
  EXPECT_EQ(0.0, flushedCount(Server, Metrics, "server.index_mismatches"));
}

TEST(CompileServer, NewBytesForKnownContentHitThroughTheContentKey) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_index_content.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);
  const ServerMetrics &SM = Server.serverMetrics();

  CompileResponse First = Server.handleRequest(encodeRequest(tinyRequest()));
  ASSERT_EQ("miss", First.Tier);
  const std::string Commented = std::string(TinyFunc) + "; trailing note\n";
  for (const std::string &Body :
       {renamed(TinyFunc, "tiny_again"), Commented}) {
    CompileRequest Req = tinyRequest();
    Req.Body = Body;
    const uint64_t Misses = SM.IndexMisses.load();
    const uint64_t Hits = SM.IndexHits.load();
    // First sight of these bytes: the full path, a hit by content key.
    CompileResponse R = Server.handleRequest(encodeRequest(Req));
    EXPECT_EQ("hit_mem", R.Tier);
    EXPECT_EQ(First.Body, R.Body);
    EXPECT_EQ(Misses + 1, SM.IndexMisses.load());
    EXPECT_EQ(Hits, SM.IndexHits.load());
    // Second sight: the index answers.
    R = Server.handleRequest(encodeRequest(Req));
    EXPECT_EQ("hit_mem", R.Tier);
    EXPECT_EQ(First.Body, R.Body);
    EXPECT_EQ(Misses + 1, SM.IndexMisses.load());
    EXPECT_EQ(Hits + 1, SM.IndexHits.load());
  }
  EXPECT_EQ(1u, Server.queue().admitted());
  EXPECT_EQ(1u, Cache.stats().Misses);
}

TEST(CompileServer, BodiesThatFailParseOrVerifyNeverEnterTheIndex) {
  ResultCache Cache;
  ServerOptions SO;
  SO.SocketPath = "server_test_index_errors.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  CompileRequest Unparsable = tinyRequest();
  Unparsable.Body = "func broken\n  this is not IR\n";
  CompileRequest Unverifiable = tinyRequest();
  Unverifiable.Body = "func open regs=8 mem=8 spills=0\nbb0:\n  movi r0, 3\n";
  for (int Round = 0; Round != 2; ++Round) {
    CompileResponse R = Server.handleRequest(encodeRequest(Unparsable));
    EXPECT_EQ(ResponseStatus::Error, R.Status);
    EXPECT_NE(std::string::npos, R.Body.find("parse error")) << R.Body;
    R = Server.handleRequest(encodeRequest(Unverifiable));
    EXPECT_EQ(ResponseStatus::Error, R.Status);
    EXPECT_NE(std::string::npos, R.Body.find("invalid function")) << R.Body;
  }
  EXPECT_EQ(0u, Server.requestIndex().size());
  EXPECT_EQ(0u, Server.serverMetrics().IndexHits.load());
  EXPECT_EQ(4u, Server.serverMetrics().IndexMisses.load());
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(0u, CS.Hits + CS.Misses); // errors never reach the probe
}

TEST(CompileServer, EvictedIndexEntryRecompilesOnceWithOneMiss) {
  // A one-byte memory tier keeps nothing and there is no disk tier, so
  // every stored result is gone by the next request.
  ResultCacheOptions CO;
  CO.MemBudgetBytes = 1;
  CO.Shards = 1;
  ResultCache Cache(CO);
  ServerOptions SO;
  SO.SocketPath = "server_test_index_evicted.sock"; // never started
  SO.Workers = 1;
  SO.Cache = &Cache;
  CompileServer Server(SO);

  const std::string Payload = encodeRequest(tinyRequest());
  CompileResponse First = Server.handleRequest(Payload);
  ASSERT_EQ("miss", First.Tier);
  EXPECT_EQ(1u, Server.requestIndex().size()); // a compile that stored

  CompileResponse Again = Server.handleRequest(Payload);
  EXPECT_EQ(ResponseStatus::Ok, Again.Status);
  EXPECT_EQ("miss", Again.Tier);
  EXPECT_EQ(First.Body, Again.Body);
  ResultCacheStats CS = Cache.stats();
  EXPECT_EQ(2u, CS.Misses); // one per request: the index path's probe
  EXPECT_EQ(0u, CS.Hits);
  EXPECT_EQ(2u, CS.Stores);
  EXPECT_EQ(2u, Server.queue().admitted()); // recompiled exactly once
  EXPECT_EQ(0u, Server.serverMetrics().IndexHits.load());
  EXPECT_EQ(2u, Server.serverMetrics().IndexMisses.load());
  EXPECT_EQ(0u, Server.serverMetrics().IndexMismatches.load());
}

TEST(CompileServer, ClosedConnectionThreadsAreJoined) {
  MetricsRegistry Metrics;
  ServerOptions SO;
  SO.SocketPath = "server_test_reap.sock";
  SO.Workers = 1;
  SO.Metrics = &Metrics;
  CompileServer Server(SO);
  ASSERT_TRUE(Server.start());

  for (int I = 0; I != 100; ++I) {
    int Fd = connectUnixSocket(SO.SocketPath);
    ASSERT_GE(Fd, 0);
    close(Fd);
  }
  // Each accept joins the connections that finished before it, so a
  // stats query soon sees only itself.
  double Open = -1;
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    int Fd = connectUnixSocket(SO.SocketPath);
    ASSERT_GE(Fd, 0);
    CtlRequest Ctl;
    Ctl.Cmd = "stats";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(transactCtl(Fd, Ctl, Resp, &Err)) << Err;
    close(Fd);
    MetricsFileData Stats = loadStats(Resp.Body);
    ASSERT_EQ(1u, Stats.Gauges.count("server.connections_open"));
    Open = Stats.Gauges["server.connections_open"];
    if (Open > 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (Open > 1 && std::chrono::steady_clock::now() < Deadline);
  EXPECT_LE(Open, 1.0);
  EXPECT_GE(Server.serverMetrics().Connections.load(), 101u);

  Server.stop();
  EXPECT_EQ(0u, Server.serverMetrics().ConnectionsOpen.load());
  bool SawGauge = false;
  for (const auto &G : Metrics.gauges())
    SawGauge = SawGauge || G.Name == "server.connections_open";
  EXPECT_TRUE(SawGauge);
}
