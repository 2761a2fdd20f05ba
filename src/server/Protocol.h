//===- server/Protocol.h - Compile-service wire protocol --------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between `dra-server` and its clients (`dra-loadgen`,
/// tests). Two layers, both deliberately boring:
///
/// **Framing.** Every message is one frame on a stream socket:
///
///   [4-byte magic "DRAS"] [4-byte little-endian payload length] [payload]
///
/// `readFrame` classifies every way a frame can go wrong — clean EOF at a
/// frame boundary, bad magic (stream desync), an oversize length prefix
/// (rejected *before* any allocation, so a hostile 4 GiB prefix cannot
/// balloon the server), and truncation mid-frame (peer died) — so the
/// connection loop can answer a structured error or drop the connection,
/// never crash.
///
/// **Payloads.** Text documents with a version tag on the first line, in
/// the spirit of the repro and cache file formats:
///
///   dra-req-v1                      dra-resp-v1
///   scheme=coalesce|auto            status=ok|shed|error
///   baselinek=8                     tier=hit_mem|hit_disk|miss|none
///   regn=12                         [traceid=<16 hex>]
///   diffn=8                         [pid=<server pid>]
///   diffw=3                         [tname=<tid>;<name>]...
///   remapstarts=200                 [span=<tid>;<depth>;<begin>;<dur>;<name>]...
///   [traceid=<16 hex>]              body=<N>
///   body=<N>                        <N bytes>
///   <N bytes of .dra function text>
///
/// The `body=<N>` line terminates the header; exactly N payload bytes
/// follow its newline. An `ok` response body is the
/// ResultCache::serializeResult encoding of the PipelineResult — the same
/// canonical byte string the content-addressed cache stores and verifies,
/// so "server response == local recompile" is a byte comparison. A `shed`
/// response (admission control) has an empty body; an `error` response
/// carries the diagnostic as its body.
///
/// **Tracing (optional, off by default).** A request carrying `traceid=`
/// opts into request-scoped tracing: the server echoes the id back and
/// attaches an inline span summary — its pid, `tname=` thread-name lines,
/// and one `span=` line per recorded span (timestamps are absolute
/// steadyClockNs(), durations ns; the name is the last `;`-separated
/// field, so names may contain `;`-free text only on the other fields).
/// The response *body* is byte-identical to the untraced response — all
/// trace data rides in header lines — so `--verify` byte comparison is
/// unaffected. Servers never attach spans unsolicited; old clients never
/// see the new keys.
///
/// **Control documents (`dra-ctl-v1`).** A client can ask the live server
/// for introspection data without compiling anything:
///
///   dra-ctl-v1
///   cmd=stats|recent|health
///   [n=<count>]        (recent: how many records, newest first)
///   body=0
///
/// The server answers with a dra-resp-v1 whose body is a JSON document
/// (see DESIGN.md "Request tracing & flight recorder" for the schemas):
/// `stats` = the server's metrics registry as dra-metrics-v1, the same
/// document `--metrics-out` writes (server/ServerMetrics.h lists its
/// series; read it with loadMetricsJson), `recent` = the flight
/// recorder's last-N request records (full span detail for slow
/// requests), `health` = a liveness probe with the pid and uptime.
/// Control requests do not count as compile requests and are never shed.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVER_PROTOCOL_H
#define DRA_SERVER_PROTOCOL_H

#include "core/Pipeline.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dra {

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Frame magic, on the wire as the bytes "DRAS".
constexpr uint32_t FrameMagic = 0x53415244u; // 'D' 'R' 'A' 'S' little-endian

/// Default cap on a single frame payload (header lengths above the cap
/// are rejected without allocating).
constexpr size_t DefaultMaxFrameBytes = 16u << 20;

/// Everything readFrame can observe on the wire.
enum class FrameStatus : uint8_t {
  Ok,        ///< A complete frame was read into the payload.
  Eof,       ///< Clean close at a frame boundary (no bytes of a new frame).
  BadMagic,  ///< First 4 bytes are not "DRAS": stream desync or garbage.
  Oversize,  ///< Length prefix exceeds the cap; payload not read.
  Truncated, ///< Peer closed mid-frame (header or payload incomplete).
  IoError,   ///< recv/send failed (connection reset, ...).
};

/// Human-readable name of \p S ("ok", "eof", "bad-magic", ...).
const char *frameStatusName(FrameStatus S);

/// Reads one frame from stream socket \p Fd into \p Payload. Retries
/// short reads and EINTR; never throws.
FrameStatus readFrame(int Fd, std::string &Payload,
                      size_t MaxBytes = DefaultMaxFrameBytes);

/// Writes one frame (magic + length + \p Payload) to stream socket \p Fd
/// with one sendmsg, looping on partial sends; returns false on any send
/// failure (the peer disconnecting mid-response must not raise SIGPIPE
/// or throw).
bool writeFrame(int Fd, const std::string &Payload);

//===----------------------------------------------------------------------===//
// Request / response payloads
//===----------------------------------------------------------------------===//

/// Upper bounds decodeRequest enforces on the three knobs whose compile
/// time or memory grows with their value. A request above one is a
/// `bad request` error naming the key, answered before the request is
/// digested, parsed or admitted. `regn` and `baselinek` allow 4x the
/// paper's largest register file (64); `remapstarts` allows 10x the
/// paper's 1000 restarts. Measured worst single requests at the bounds
/// are in DESIGN.md (Compilation service, wire protocol).
constexpr unsigned MaxWireRegN = 256;
constexpr unsigned MaxWireBaselineK = 256;
constexpr unsigned MaxWireRemapStarts = 10000;

/// Upper bound on `regn`² × `remapstarts`, the remap search's work, under
/// every scheme: the largest product the per-key bounds allow with the
/// other knob at its default (256² × 200 restarts). decodeRequest checks
/// it after reading every key, like the per-key bounds, and names both
/// keys when a request exceeds it.
constexpr uint64_t MaxWireRemapWork =
    uint64_t(MaxWireRegN) * MaxWireRegN * 200;

/// One compile request: the knobs dra-batch exposes per run, plus the
/// function body in the textual IR syntax.
struct CompileRequest {
  Scheme S = Scheme::Coalesce;
  /// True for `scheme=auto`: the client delegates scheme selection to the
  /// server's portfolio (race or chooser, per --portfolio). S is ignored
  /// on the wire when set. A server running --portfolio=off answers
  /// auto requests with a structured error rather than guessing.
  bool Auto = false;
  unsigned BaselineK = 8;
  unsigned RegN = 12;
  unsigned DiffN = 8;
  unsigned DiffW = 3;
  unsigned RemapStarts = 200;
  /// 0 = untraced (the default). Nonzero opts this request into
  /// request-scoped tracing; the wire form is traceIdToHex.
  uint64_t TraceId = 0;
  std::string Body; ///< Function text (ir/Parser syntax).

  /// The equivalent PipelineConfig (Cache/Metrics left null; the server
  /// wires its own).
  PipelineConfig toConfig() const;
};

enum class ResponseStatus : uint8_t {
  Ok,    ///< Body is the serialized PipelineResult.
  Shed,  ///< Admission control refused the request; retry later.
  Error, ///< Body is a diagnostic message.
};

/// One span of a response's inline trace summary: the wire form of a
/// driver/Trace.h TraceRecord (begin absolute steadyClockNs, duration ns).
struct WireSpan {
  std::string Name;
  uint64_t Tid = 0;
  unsigned Depth = 0;
  uint64_t BeginNs = 0;
  uint64_t DurNs = 0;
};

/// Server response tier labels; also the `tier` label of the server's
/// latency histograms.
struct CompileResponse {
  ResponseStatus Status = ResponseStatus::Error;
  /// "hit_mem" | "hit_disk" | "miss" for ok; "none" otherwise.
  std::string Tier = "none";
  std::string Body;

  /// Inline trace summary, present only when the request carried a
  /// traceid (all default/empty otherwise — the wire bytes are then
  /// identical to a pre-tracing response).
  uint64_t TraceId = 0;
  uint64_t ServerPid = 0;
  std::vector<WireSpan> Spans;
  std::vector<std::pair<uint64_t, std::string>> ThreadNames;
};

std::string encodeRequest(const CompileRequest &Req);

/// Strict inverse of encodeRequest: unknown keys, a bad version tag, a
/// missing/oversized body count, trailing bytes, or a `regn`,
/// `baselinek` or `remapstarts` above its MaxWire* bound all fail with a
/// diagnostic. Never throws, never crashes on garbage.
bool decodeRequest(const std::string &Payload, CompileRequest &Out,
                   std::string *Err = nullptr);

std::string encodeResponse(const CompileResponse &Resp);

bool decodeResponse(const std::string &Payload, CompileResponse &Out,
                    std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Control requests (dra-ctl-v1)
//===----------------------------------------------------------------------===//

constexpr const char *CtlVersionTag = "dra-ctl-v1";

/// One introspection request (see the file comment for the document).
struct CtlRequest {
  std::string Cmd = "health"; ///< "stats" | "recent" | "health".
  unsigned RecentN = 32;      ///< `recent` only: records, newest first.
};

/// True when \p Payload's first line is the dra-ctl-v1 tag — the server's
/// cheap dispatch test, run before any real decode.
bool isCtlPayload(const std::string &Payload);

std::string encodeCtlRequest(const CtlRequest &Req);

/// Strict, like decodeRequest: unknown commands or keys fail. (The
/// command vocabulary is validated by the *server* dispatch, not here, so
/// a future client can probe for commands this build does not know.)
bool decodeCtlRequest(const std::string &Payload, CtlRequest &Out,
                      std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Unix-socket helpers
//===----------------------------------------------------------------------===//

/// Binds and listens on a unix stream socket at \p Path (unlinking any
/// stale socket file first). Returns the listening fd, or -1 with a
/// diagnostic in \p Err.
int listenUnixSocket(const std::string &Path, int Backlog,
                     std::string *Err = nullptr);

/// Connects to the unix stream socket at \p Path. Returns the fd, or -1.
int connectUnixSocket(const std::string &Path, std::string *Err = nullptr);

///// Client convenience: one request/response exchange on \p Fd. Returns
/// false (with a diagnostic) on any framing or decode failure.
bool transact(int Fd, const CompileRequest &Req, CompileResponse &Resp,
              std::string *Err = nullptr);

/// Like transact, for a control request. The response body carries the
/// JSON answer (or the diagnostic on status=error).
bool transactCtl(int Fd, const CtlRequest &Req, CompileResponse &Resp,
                 std::string *Err = nullptr);

} // namespace dra

#endif // DRA_SERVER_PROTOCOL_H
