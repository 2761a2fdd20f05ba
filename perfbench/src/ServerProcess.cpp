//===- perfbench/src/ServerProcess.cpp - A spawned dra-server -------------===//

#include "ServerProcess.h"

#include "server/Protocol.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServerProcess::~ServerProcess() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
}

bool ServerProcess::start(const std::string &Bin, const std::string &Socket,
                          const std::vector<std::string> &Args,
                          std::string &Err) {
  std::vector<std::string> Argv = {Bin, "--socket=" + Socket};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  std::vector<char *> CArgv;
  for (std::string &A : Argv)
    CArgv.push_back(A.data());
  CArgv.push_back(nullptr);

  const std::string LogPath = Socket + ".log";
  const double T0 = nowSeconds();
  Pid = ::fork();
  if (Pid < 0) {
    Err = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    // The server's notes go to a log beside its socket; the benchmark's
    // stdout carries only its result line.
    const int Log =
        ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (Log >= 0) {
      ::dup2(Log, STDOUT_FILENO);
      ::dup2(Log, STDERR_FILENO);
    }
    ::execv(CArgv[0], CArgv.data());
    _exit(127);
  }
  for (;;) {
    int Fd = dra::connectUnixSocket(Socket);
    if (Fd >= 0) {
      ReadyS = nowSeconds() - T0;
      ::close(Fd);
      return true;
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Err = "dra-server exited before accepting connections";
      return false;
    }
    if (nowSeconds() - T0 > 10) {
      Err = "dra-server not accepting after 10 s";
      return false;
    }
    std::this_thread::yield();
  }
}

bool ServerProcess::stop(std::string &Err) {
  if (Pid <= 0)
    return true;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  pid_t R;
  do
    R = ::waitpid(Pid, &Status, 0);
  while (R < 0 && errno == EINTR);
  Pid = -1;
  if (R < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Err = "dra-server did not exit cleanly";
    return false;
  }
  return true;
}

double ServerProcess::cpuSeconds() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream SS(Line.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && SS >> Field; ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return double(UTime + STime) / double(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

CpuSample sampleCpu() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t V[8] = {};
  In >> Cpu;
  for (uint64_t &X : V)
    In >> X;
  // user nice system idle iowait irq softirq steal
  CpuSample S;
  S.Idle = V[3] + V[4];
  S.Steal = V[7];
  S.Busy = V[0] + V[1] + V[2] + V[5] + V[6];
  return S;
}

double stealShare(const CpuSample &A, const CpuSample &B) {
  const double Steal = double(B.Steal - A.Steal);
  const double Busy = double(B.Busy - A.Busy) + Steal;
  return Busy > 0 ? Steal / Busy : 0;
}

double loadAverage() {
  std::ifstream In("/proc/loadavg");
  double L = 0;
  In >> L;
  return L;
}

} // namespace perfbench
