//===- server/Protocol.cpp - Compile-service wire protocol ----------------===//

#include "server/Protocol.h"

#include "driver/Trace.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dra;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

const char *dra::frameStatusName(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::BadMagic:
    return "bad-magic";
  case FrameStatus::Oversize:
    return "oversize";
  case FrameStatus::Truncated:
    return "truncated";
  case FrameStatus::IoError:
    return "io-error";
  }
  return "unknown";
}

namespace {

/// Reads exactly \p Len bytes. Returns Ok, or Truncated/IoError; \p SawAny
/// reports whether any byte arrived (distinguishes clean EOF from a
/// mid-frame close).
FrameStatus recvExact(int Fd, void *Buf, size_t Len, bool &SawAny) {
  char *P = static_cast<char *>(Buf);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(Fd, P + Got, Len - Got, 0);
    if (N > 0) {
      SawAny = true;
      Got += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return FrameStatus::Truncated;
    if (errno == EINTR)
      continue;
    return FrameStatus::IoError;
  }
  return FrameStatus::Ok;
}

uint32_t loadLe32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

void storeLe32(unsigned char *P, uint32_t V) {
  P[0] = static_cast<unsigned char>(V);
  P[1] = static_cast<unsigned char>(V >> 8);
  P[2] = static_cast<unsigned char>(V >> 16);
  P[3] = static_cast<unsigned char>(V >> 24);
}

} // namespace

FrameStatus dra::readFrame(int Fd, std::string &Payload, size_t MaxBytes) {
  unsigned char Header[8];
  bool SawAny = false;
  FrameStatus St = recvExact(Fd, Header, sizeof Header, SawAny);
  if (St != FrameStatus::Ok)
    return St == FrameStatus::Truncated && !SawAny ? FrameStatus::Eof : St;
  if (loadLe32(Header) != FrameMagic)
    return FrameStatus::BadMagic;
  uint32_t Len = loadLe32(Header + 4);
  if (Len > MaxBytes)
    return FrameStatus::Oversize; // rejected before any allocation
  Payload.resize(Len);
  if (Len == 0)
    return FrameStatus::Ok;
  return recvExact(Fd, Payload.data(), Len, SawAny);
}

bool dra::writeFrame(int Fd, const std::string &Payload) {
  unsigned char Header[8];
  storeLe32(Header, FrameMagic);
  storeLe32(Header + 4, static_cast<uint32_t>(Payload.size()));
  // Header and payload leave in one sendmsg: a separate send of the
  // header would wake the reader for 8 bytes, and on a busy CPU it would
  // then block again waiting for the payload.
  iovec Iov[2] = {{Header, sizeof Header},
                  {const_cast<char *>(Payload.data()), Payload.size()}};
  msghdr Msg{};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = 2;
  size_t Left = sizeof Header + Payload.size();
  while (Left) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response surfaces as
    // EPIPE (-> false) instead of killing the process with SIGPIPE.
    ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    // A partial send: skip the iovecs it finished, trim the one it split.
    size_t Sent = static_cast<size_t>(N);
    Left -= Sent;
    while (Sent && Sent >= Msg.msg_iov->iov_len) {
      Sent -= Msg.msg_iov->iov_len;
      ++Msg.msg_iov;
      --Msg.msg_iovlen;
    }
    if (Sent) {
      Msg.msg_iov->iov_base = static_cast<char *>(Msg.msg_iov->iov_base) + Sent;
      Msg.msg_iov->iov_len -= Sent;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Request / response payloads
//===----------------------------------------------------------------------===//

PipelineConfig CompileRequest::toConfig() const {
  PipelineConfig C;
  C.S = S;
  C.BaselineK = BaselineK;
  C.Enc.RegN = RegN;
  C.Enc.DiffN = DiffN;
  C.Enc.DiffW = DiffW;
  C.Remap.NumStarts = RemapStarts;
  return C;
}

namespace {

bool setError(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// Parses an unsigned decimal; rejects empty, non-digit, and > 32-bit.
bool parseU32(const std::string &S, uint32_t &Out) {
  if (S.empty() || S.size() > 10)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  if (V > 0xffffffffull)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// Parses an unsigned decimal up to 64 bits (span timestamps/durations in
/// nanoseconds overflow parseU32). Rejects empty, non-digit, overflow.
bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 20)
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (0xffffffffffffffffull - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

/// Shared header walker: checks the version line, then hands each
/// key=value line to \p OnKey until the terminating `body=<N>` line, and
/// finally slices the N-byte body (trailing bytes are an error).
template <typename KeyFn>
bool parseDocument(const std::string &Payload, const char *Version,
                   KeyFn &&OnKey, std::string &Body, std::string *Err) {
  size_t Pos = 0;
  auto NextLine = [&](std::string &Line) {
    if (Pos >= Payload.size())
      return false;
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos)
      return false; // header lines must be newline-terminated
    Line.assign(Payload, Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  };

  std::string Line;
  if (!NextLine(Line) || Line != Version)
    return setError(Err, std::string("missing '") + Version +
                             "' version tag");
  for (;;) {
    if (!NextLine(Line))
      return setError(Err, "header ended without a body=<N> line");
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos || Eq == 0)
      return setError(Err, "malformed header line '" + Line + "'");
    std::string Key = Line.substr(0, Eq);
    std::string Value = Line.substr(Eq + 1);
    if (Key == "body") {
      uint32_t Len = 0;
      if (!parseU32(Value, Len))
        return setError(Err, "bad body length '" + Value + "'");
      if (Payload.size() - Pos != Len)
        return setError(Err, "body length " + std::to_string(Len) +
                                 " does not match remaining " +
                                 std::to_string(Payload.size() - Pos) +
                                 " byte(s)");
      Body.assign(Payload, Pos, Len);
      return true;
    }
    if (!OnKey(Key, Value, Err))
      return false;
  }
}

} // namespace

std::string dra::encodeRequest(const CompileRequest &Req) {
  std::string Out = "dra-req-v1\n";
  Out += "scheme=";
  Out += Req.Auto ? "auto" : wireSchemeName(Req.S);
  Out += "\nbaselinek=" + std::to_string(Req.BaselineK);
  Out += "\nregn=" + std::to_string(Req.RegN);
  Out += "\ndiffn=" + std::to_string(Req.DiffN);
  Out += "\ndiffw=" + std::to_string(Req.DiffW);
  Out += "\nremapstarts=" + std::to_string(Req.RemapStarts);
  if (Req.TraceId)
    Out += "\ntraceid=" + traceIdToHex(Req.TraceId);
  Out += "\nbody=" + std::to_string(Req.Body.size()) + "\n";
  Out += Req.Body;
  return Out;
}

bool dra::decodeRequest(const std::string &Payload, CompileRequest &Out,
                        std::string *Err) {
  CompileRequest Req;
  auto OnKey = [&](const std::string &Key, const std::string &Value,
                   std::string *E) {
    if (Key == "scheme") {
      // "auto" delegates scheme choice to the server's portfolio. S
      // keeps its default (Coalesce) so config validation — encoding
      // parameters etc. — applies unchanged.
      if (Value == "auto") {
        Req.Auto = true;
        return true;
      }
      if (!parseSchemeName(Value, Req.S))
        return setError(E, "unknown scheme '" + Value + "'");
      return true;
    }
    if (Key == "traceid") {
      if (!traceIdFromHex(Value, Req.TraceId) || Req.TraceId == 0)
        return setError(E, "bad traceid '" + Value + "'");
      return true;
    }
    uint32_t V = 0;
    if (!parseU32(Value, V))
      return setError(E, "bad value for '" + Key + "'");
    auto Bounded = [&](unsigned &Field, unsigned Max) {
      if (V > Max)
        return setError(E, "'" + Key + "' is " + Value + ", above its " +
                               "bound of " + std::to_string(Max));
      Field = V;
      return true;
    };
    if (Key == "baselinek")
      return Bounded(Req.BaselineK, MaxWireBaselineK);
    if (Key == "regn")
      return Bounded(Req.RegN, MaxWireRegN);
    if (Key == "remapstarts")
      return Bounded(Req.RemapStarts, MaxWireRemapStarts);
    if (Key == "diffn")
      Req.DiffN = V;
    else if (Key == "diffw")
      Req.DiffW = V;
    else
      return setError(E, "unknown request key '" + Key + "'");
    return true;
  };
  if (!parseDocument(Payload, "dra-req-v1", OnKey, Req.Body, Err))
    return false;
  const uint64_t Work = uint64_t(Req.RegN) * Req.RegN * Req.RemapStarts;
  if (Work > MaxWireRemapWork)
    return setError(Err, "'regn' " + std::to_string(Req.RegN) +
                             " squared times 'remapstarts' " +
                             std::to_string(Req.RemapStarts) + " is " +
                             std::to_string(Work) +
                             ", above the work bound of " +
                             std::to_string(MaxWireRemapWork));
  Out = std::move(Req);
  return true;
}

namespace {

const char *statusNameOf(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::Shed:
    return "shed";
  case ResponseStatus::Error:
    return "error";
  }
  return "error";
}

} // namespace

std::string dra::encodeResponse(const CompileResponse &Resp) {
  std::string Out = "dra-resp-v1\n";
  Out += "status=";
  Out += statusNameOf(Resp.Status);
  Out += "\ntier=" + Resp.Tier;
  if (Resp.TraceId) {
    // The inline span summary: header lines only, never the body, so a
    // traced ok-response body stays byte-identical to an untraced one.
    Out += "\ntraceid=" + traceIdToHex(Resp.TraceId);
    Out += "\npid=" + std::to_string(Resp.ServerPid);
    for (const auto &[Tid, Name] : Resp.ThreadNames)
      Out += "\ntname=" + std::to_string(Tid) + ";" + Name;
    for (const WireSpan &S : Resp.Spans)
      Out += "\nspan=" + std::to_string(S.Tid) + ";" +
             std::to_string(S.Depth) + ";" + std::to_string(S.BeginNs) +
             ";" + std::to_string(S.DurNs) + ";" + S.Name;
  }
  Out += "\nbody=" + std::to_string(Resp.Body.size()) + "\n";
  Out += Resp.Body;
  return Out;
}

namespace {

/// Splits `<tid>;<depth>;<begin_ns>;<dur_ns>;<name>` (name last, so it is
/// the only field allowed to contain ';').
bool parseWireSpan(const std::string &Value, WireSpan &Out) {
  size_t Pos = 0;
  auto NextField = [&](std::string &Field) {
    size_t Semi = Value.find(';', Pos);
    if (Semi == std::string::npos)
      return false;
    Field.assign(Value, Pos, Semi - Pos);
    Pos = Semi + 1;
    return true;
  };
  std::string Tid, Depth, Begin, Dur;
  uint32_t D = 0;
  if (!NextField(Tid) || !NextField(Depth) || !NextField(Begin) ||
      !NextField(Dur))
    return false;
  if (!parseU64(Tid, Out.Tid) || !parseU32(Depth, D) ||
      !parseU64(Begin, Out.BeginNs) || !parseU64(Dur, Out.DurNs))
    return false;
  Out.Depth = D;
  Out.Name.assign(Value, Pos, Value.size() - Pos);
  return !Out.Name.empty();
}

} // namespace

bool dra::decodeResponse(const std::string &Payload, CompileResponse &Out,
                         std::string *Err) {
  CompileResponse Resp;
  bool HaveStatus = false;
  auto OnKey = [&](const std::string &Key, const std::string &Value,
                   std::string *E) {
    if (Key == "status") {
      if (Value == "ok")
        Resp.Status = ResponseStatus::Ok;
      else if (Value == "shed")
        Resp.Status = ResponseStatus::Shed;
      else if (Value == "error")
        Resp.Status = ResponseStatus::Error;
      else
        return setError(E, "unknown status '" + Value + "'");
      HaveStatus = true;
      return true;
    }
    if (Key == "tier") {
      if (Value != "hit_mem" && Value != "hit_disk" && Value != "miss" &&
          Value != "none")
        return setError(E, "unknown tier '" + Value + "'");
      Resp.Tier = Value;
      return true;
    }
    if (Key == "traceid") {
      if (!traceIdFromHex(Value, Resp.TraceId) || Resp.TraceId == 0)
        return setError(E, "bad traceid '" + Value + "'");
      return true;
    }
    if (Key == "pid") {
      if (!parseU64(Value, Resp.ServerPid))
        return setError(E, "bad pid '" + Value + "'");
      return true;
    }
    if (Key == "tname") {
      size_t Semi = Value.find(';');
      uint64_t Tid = 0;
      if (Semi == std::string::npos ||
          !parseU64(Value.substr(0, Semi), Tid))
        return setError(E, "bad tname '" + Value + "'");
      Resp.ThreadNames.emplace_back(Tid, Value.substr(Semi + 1));
      return true;
    }
    if (Key == "span") {
      WireSpan S;
      if (!parseWireSpan(Value, S))
        return setError(E, "bad span '" + Value + "'");
      Resp.Spans.push_back(std::move(S));
      return true;
    }
    return setError(E, "unknown response key '" + Key + "'");
  };
  if (!parseDocument(Payload, "dra-resp-v1", OnKey, Resp.Body, Err))
    return false;
  if (!HaveStatus)
    return setError(Err, "response is missing a status line");
  Out = std::move(Resp);
  return true;
}

//===----------------------------------------------------------------------===//
// Control requests (dra-ctl-v1)
//===----------------------------------------------------------------------===//

bool dra::isCtlPayload(const std::string &Payload) {
  size_t TagLen = std::strlen(CtlVersionTag);
  return Payload.size() > TagLen &&
         Payload.compare(0, TagLen, CtlVersionTag) == 0 &&
         Payload[TagLen] == '\n';
}

std::string dra::encodeCtlRequest(const CtlRequest &Req) {
  std::string Out = std::string(CtlVersionTag) + "\n";
  Out += "cmd=" + Req.Cmd;
  if (Req.Cmd == "recent")
    Out += "\nn=" + std::to_string(Req.RecentN);
  Out += "\nbody=0\n";
  return Out;
}

bool dra::decodeCtlRequest(const std::string &Payload, CtlRequest &Out,
                           std::string *Err) {
  CtlRequest Req;
  bool HaveCmd = false;
  auto OnKey = [&](const std::string &Key, const std::string &Value,
                   std::string *E) {
    if (Key == "cmd") {
      if (Value.empty())
        return setError(E, "empty cmd");
      Req.Cmd = Value;
      HaveCmd = true;
      return true;
    }
    if (Key == "n") {
      uint32_t V = 0;
      if (!parseU32(Value, V) || V == 0)
        return setError(E, "bad value for 'n'");
      Req.RecentN = V;
      return true;
    }
    return setError(E, "unknown control key '" + Key + "'");
  };
  std::string Body;
  if (!parseDocument(Payload, CtlVersionTag, OnKey, Body, Err))
    return false;
  if (!HaveCmd)
    return setError(Err, "control request is missing a cmd line");
  if (!Body.empty())
    return setError(Err, "control requests carry no body");
  Out = std::move(Req);
  return true;
}

//===----------------------------------------------------------------------===//
// Unix-socket helpers
//===----------------------------------------------------------------------===//

namespace {

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Err) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return setError(Err, "socket path '" + Path +
                             "' is empty or too long for sockaddr_un");
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

int dra::listenUnixSocket(const std::string &Path, int Backlog,
                          std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  ::unlink(Path.c_str()); // a stale socket file from a dead server
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0 ||
      ::listen(Fd, Backlog) < 0) {
    setError(Err, "bind/listen '" + Path + "': " + std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int dra::connectUnixSocket(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    setError(Err, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0) {
    setError(Err, "connect '" + Path + "': " + std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool dra::transact(int Fd, const CompileRequest &Req, CompileResponse &Resp,
                   std::string *Err) {
  if (!writeFrame(Fd, encodeRequest(Req)))
    return setError(Err, "send failed");
  std::string Payload;
  FrameStatus St = readFrame(Fd, Payload);
  if (St != FrameStatus::Ok)
    return setError(Err, std::string("response frame: ") +
                             frameStatusName(St));
  return decodeResponse(Payload, Resp, Err);
}

bool dra::transactCtl(int Fd, const CtlRequest &Req, CompileResponse &Resp,
                      std::string *Err) {
  if (!writeFrame(Fd, encodeCtlRequest(Req)))
    return setError(Err, "send failed");
  std::string Payload;
  FrameStatus St = readFrame(Fd, Payload);
  if (St != FrameStatus::Ok)
    return setError(Err, std::string("response frame: ") +
                             frameStatusName(St));
  return decodeResponse(Payload, Resp, Err);
}
