// hc-net process bootstrap: which transport this process uses and, when it
// was started by hcmpi_launch, where it sits in the multi-process job.
//
// Three configurations fall out of (mode, launch env):
//   * thread            — the historical default: every rank is a thread in
//                         this process, delivery is a direct endpoint call.
//   * socket, launched  — hcmpi_launch set HCMPI_PROC/HCMPI_NPROCS: this
//                         process hosts a contiguous block of ranks and
//                         talks to its siblings over one Fabric.
//   * socket, loopback  — --transport=socket (or HCMPI_TRANSPORT=socket)
//                         without the launch env: every rank still lives in
//                         this process but gets its OWN Fabric, so all
//                         cross-rank traffic crosses real sockets. This is
//                         how tests, TSan and the bench harness exercise the
//                         wire without fork/exec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace support {
class Flags;
}

namespace net {

enum class Mode { kThread, kSocket };

// Process-wide transport mode. Seeded from HCMPI_TRANSPORT at startup;
// --transport (via support::Observe / net::configure) overrides it.
Mode mode();
void set_mode(Mode m);
bool parse_mode(const std::string& s, Mode* out);

// Applies --transport=thread|socket (absent flag leaves the mode alone).
void configure(const support::Flags& flags);

// The launch-time environment, parsed once. `launched` is true only under
// hcmpi_launch (HCMPI_PROC present); the tunables below it apply to every
// fabric either way and come from HCMPI_NET_* variables.
struct ProcEnv {
  bool launched = false;
  int proc = 0;    // this process's id in [0, nprocs)
  int nprocs = 1;  // processes in the job
  int ranks_per_proc = 0;  // 0 = derive from world size at World creation
  std::string session;     // rendezvous directory for UDS paths

  std::uint32_t heartbeat_ms = 50;
  std::uint32_t death_timeout_ms = 3000;
  std::uint32_t connect_window_ms = 10000;
  std::uint32_t rto_ms = 40;
  std::size_t sendq_cap = 1024;
  std::uint32_t shutdown_timeout_ms = 5000;
};

const ProcEnv& proc_env();
// Re-reads the environment; for tests that fork or mutate HCMPI_* vars.
void reload_proc_env();

}  // namespace net
