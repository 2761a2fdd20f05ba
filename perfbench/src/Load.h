//===- perfbench/src/Load.h - Closed-loop load over the wire ----*- C++ -*-===//
//
// Drives a running dra-server from several client connections over the
// public connectUnixSocket/transact calls. Each connection sends its next
// request only after the previous response arrived (a closed loop). The
// loop records outcome, tier and latency per request and keeps selected
// response bodies; it checks nothing, so verification never runs inside
// a timed phase.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOAD_H
#define PERFBENCH_LOAD_H

#include "server/Protocol.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

enum class Outcome : uint8_t { Ok, Shed, Error, Protocol };
enum class Tier : uint8_t { None, HitMem, HitDisk, Miss };

/// One request as the client saw it.
struct Sample {
  uint32_t Key = 0; ///< Index into the request table.
  Outcome Out = Outcome::Protocol;
  Tier T = Tier::None;
  double LatencyUs = 0;
};

struct KeptBody {
  uint32_t Key = 0;
  std::string Body;
};

struct PhaseResult {
  std::vector<Sample> Samples;
  std::vector<KeptBody> Bodies;
  double Seconds = 0; ///< Wall time from start to the last response.
  std::vector<std::string> Errors; ///< Connection-level failures.
  std::vector<std::string> ErrorBodies; ///< First few error responses.
};

/// Key index of connection \p Conn's \p I-th request, or -1 to stop.
using NextKeyFn = std::function<int64_t(unsigned Conn, uint64_t I)>;
/// Whether to keep the body of that request's response.
using KeepBodyFn =
    std::function<bool(unsigned Conn, uint64_t I, uint32_t Key)>;

/// Runs \p Conns connections until every one's NextKey returns -1 or, when
/// \p DeadlineS > 0, until nowSeconds() passes it. A connection stops at
/// its first transport or protocol failure.
PhaseResult runPhase(const std::string &Socket,
                     const std::vector<dra::CompileRequest> &Requests,
                     unsigned Conns, const NextKeyFn &NextKey,
                     const KeepBodyFn &KeepBody, double DeadlineS = 0);

/// Percentile \p Q (0..100) of \p Sorted by linear interpolation between
/// closest ranks.
double percentile(const std::vector<double> &Sorted, double Q);

/// Zipf(s) popularity over ranks 0..N-1: weight 1/(rank+1)^s.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S);
  /// Maps a uniform draw in [0, 1) to a rank.
  size_t rank(double U) const;

private:
  std::vector<double> Cdf;
};

} // namespace perfbench

#endif // PERFBENCH_LOAD_H
