//===- perfbench/src/ServerProcess.h - A spawned dra-server -----*- C++ -*-===//
//
// Spawns dra-server, times spawn-to-accepting, reads its CPU time and peak
// resident memory from /proc, and stops it with SIGTERM. Also samples the
// machine's load average and CPU steal counters.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVERPROCESS_H
#define PERFBENCH_SERVERPROCESS_H

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess(); ///< Kills and reaps a server that was not stopped.
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Spawns \p Bin with \p Args and retries connecting to its socket,
  /// yielding the CPU between tries, until a connect succeeds. False (with
  /// \p Err) if the server exits or is not accepting after 10 s.
  bool start(const std::string &Bin, const std::string &Socket,
             const std::vector<std::string> &Args, std::string &Err);

  /// Seconds from fork to the first successful connect.
  double readySeconds() const { return ReadyS; }

  /// SIGTERM, then waits for the exit. False (with \p Err) unless the
  /// server drained and exited with status 0.
  bool stop(std::string &Err);

  /// User + system CPU seconds of the live server, all threads.
  double cpuSeconds() const;

  /// Peak resident set (VmHWM) of the live server, in MiB.
  double peakRssMb() const;

private:
  pid_t Pid = -1;
  double ReadyS = 0;
};

/// Monotonic seconds.
double nowSeconds();

/// Machine-wide CPU counters from /proc/stat's aggregate line.
struct CpuSample {
  uint64_t Busy = 0, Idle = 0, Steal = 0;
};
CpuSample sampleCpu();

/// Steal share of all non-idle time between two samples.
double stealShare(const CpuSample &A, const CpuSample &B);

/// The 1-minute load average.
double loadAverage();

} // namespace perfbench

#endif // PERFBENCH_SERVERPROCESS_H
