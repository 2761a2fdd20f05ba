//===- perfbench/src/Load.cpp - Closed-loop load over the wire ------------===//

#include "Load.h"
#include "ServerProcess.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include <unistd.h>

using namespace dra;

namespace perfbench {

namespace {

Tier tierOf(const std::string &T) {
  if (T == "hit_mem")
    return Tier::HitMem;
  if (T == "hit_disk")
    return Tier::HitDisk;
  if (T == "miss")
    return Tier::Miss;
  return Tier::None;
}

struct ConnState {
  std::vector<Sample> Samples;
  std::vector<KeptBody> Bodies;
  std::vector<std::string> ErrorBodies;
  std::string Error;
  double EndS = 0;
};

void driveConnection(unsigned Conn, const std::string &Socket,
                     const std::vector<CompileRequest> &Requests,
                     const NextKeyFn &NextKey, const KeepBodyFn &KeepBody,
                     double DeadlineS, ConnState &St) {
  std::string Err;
  const int Fd = connectUnixSocket(Socket, &Err);
  if (Fd < 0) {
    St.Error = "connect: " + Err;
    St.EndS = nowSeconds();
    return;
  }
  for (uint64_t I = 0;; ++I) {
    if (DeadlineS > 0 && nowSeconds() >= DeadlineS)
      break;
    const int64_t Key = NextKey(Conn, I);
    if (Key < 0)
      break;
    CompileResponse Resp;
    Sample S;
    S.Key = static_cast<uint32_t>(Key);
    const double T0 = nowSeconds();
    const bool Ok = transact(Fd, Requests[Key], Resp, &Err);
    S.LatencyUs = (nowSeconds() - T0) * 1e6;
    if (!Ok) {
      S.Out = Outcome::Protocol;
      St.Samples.push_back(S);
      St.Error = "transact: " + Err;
      break;
    }
    S.T = tierOf(Resp.Tier);
    switch (Resp.Status) {
    case ResponseStatus::Ok:
      S.Out = Outcome::Ok;
      if (KeepBody(Conn, I, S.Key))
        St.Bodies.push_back({S.Key, std::move(Resp.Body)});
      break;
    case ResponseStatus::Shed:
      S.Out = Outcome::Shed;
      break;
    case ResponseStatus::Error:
      S.Out = Outcome::Error;
      if (St.ErrorBodies.size() < 4)
        St.ErrorBodies.push_back(std::move(Resp.Body));
      break;
    }
    St.Samples.push_back(S);
  }
  St.EndS = nowSeconds();
  ::close(Fd);
}

} // namespace

PhaseResult runPhase(const std::string &Socket,
                     const std::vector<CompileRequest> &Requests,
                     unsigned Conns, const NextKeyFn &NextKey,
                     const KeepBodyFn &KeepBody, double DeadlineS) {
  std::vector<ConnState> States(Conns);
  for (ConnState &St : States)
    St.Samples.reserve(1 << 16);
  const double T0 = nowSeconds();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Conns; ++C)
    Threads.emplace_back([&, C] {
      driveConnection(C, Socket, Requests, NextKey, KeepBody, DeadlineS,
                      States[C]);
    });
  for (std::thread &T : Threads)
    T.join();

  PhaseResult R;
  double EndS = T0;
  for (ConnState &St : States) {
    EndS = std::max(EndS, St.EndS);
    R.Samples.insert(R.Samples.end(), St.Samples.begin(), St.Samples.end());
    for (KeptBody &B : St.Bodies)
      R.Bodies.push_back(std::move(B));
    for (std::string &E : St.ErrorBodies)
      R.ErrorBodies.push_back(std::move(E));
    if (!St.Error.empty())
      R.Errors.push_back(St.Error);
  }
  R.Seconds = EndS - T0;
  return R;
}

double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  const double Pos = Q / 100.0 * double(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Pos - double(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

ZipfSampler::ZipfSampler(size_t N, double S) : Cdf(N) {
  double Total = 0;
  for (size_t I = 0; I != N; ++I) {
    Total += std::pow(double(I + 1), -S);
    Cdf[I] = Total;
  }
  for (double &C : Cdf)
    C /= Total;
}

size_t ZipfSampler::rank(double U) const {
  size_t R = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
  return std::min(R, Cdf.size() - 1);
}

} // namespace perfbench
