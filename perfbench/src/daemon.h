// Lifecycle of one grafics_served process: launch, readiness, peak memory,
// SIGTERM. The daemon is driven only through flags that name models, ports,
// directories, --threads and the ingest fold trigger, so later changes to
// its tuning flags cannot break the benchmark.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

struct DaemonConfig {
  /// Path of the grafics_served binary.
  std::string binary;
  /// (name, artifact path) per served model.
  std::vector<std::pair<std::string, std::string>> models;
  /// Holds the port file and the daemon's log; journal/ and store/ live
  /// inside it, so a relaunch on the same directory restores the model.
  std::string dir;
  std::size_t threads = 1;
};

/// One running daemon. The constructor launches it and returns once a Ping
/// is answered; the destructor kills it if Stop was not called.
class Daemon {
 public:
  explicit Daemon(const DaemonConfig& config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  /// Launch until the first answered Ping.
  Clock::time_point launched() const { return launched_; }
  Clock::time_point ready() const { return ready_; }
  /// Peak resident set (VmHWM) so far, in MiB.
  double PeakRssMb() const;
  /// The vector backend the daemon logged at startup, or "unreported".
  std::string SimdBackend() const;
  /// SIGTERM, then waits for a clean exit (throws on any other exit).
  void Stop();

 private:
  DaemonConfig config_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  Clock::time_point launched_;
  Clock::time_point ready_;
};

/// Opens a TCP connection to the daemon on localhost (TCP_NODELAY).
int ConnectLocal(std::uint16_t port);

}  // namespace perfbench
