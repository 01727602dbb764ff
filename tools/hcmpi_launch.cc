// hcmpi_launch: multi-process launcher for the socket transport.
//
//   hcmpi_launch -n <procs> [-rpp <ranks-per-proc>] -- <program> [args...]
//
// Forks <procs> copies of <program>, wiring each one's rank-block through
// the environment (HCMPI_PROC / HCMPI_NPROCS / HCMPI_RANKS_PER_PROC /
// HCMPI_SESSION / HCMPI_TRANSPORT=socket), so existing examples and tests
// run unmodified: a World of N ranks started under `hcmpi_launch -n P`
// hosts ranks [proc*N/P, ...) locally and reaches the rest over the wire.
//
// The session directory (Unix-socket rendezvous) is a fresh mkdtemp unless
// HCMPI_SESSION is already set; it is removed on exit when we created it.
// Exit status is the worst child status: the max exit code, or 128+signal
// if any child died on a signal — so CI sees one red launcher, not a hang.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -n <procs> [-rpp <ranks-per-proc>] "
               "-- <program> [args...]\n",
               argv0);
}

// Best-effort cleanup of the session dir we created (sockets + dir).
void remove_session(const std::string& dir) {
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int nprocs = 0;
  int rpp = 0;
  int prog_at = -1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--") {
      prog_at = i + 1;
      break;
    } else if ((a == "-n" || a == "--nprocs") && i + 1 < argc) {
      nprocs = std::atoi(argv[++i]);
    } else if ((a == "-rpp" || a == "--ranks-per-proc") && i + 1 < argc) {
      rpp = std::atoi(argv[++i]);
    } else if (a == "-h" || a == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "hcmpi_launch: unknown option '%s'\n", a.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (nprocs < 1 || prog_at < 0 || prog_at >= argc) {
    usage(argv[0]);
    return 2;
  }

  // Rendezvous directory for the Unix-socket mesh.
  std::string session;
  bool own_session = false;
  if (const char* s = std::getenv("HCMPI_SESSION"); s != nullptr && *s) {
    session = s;
  } else {
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(tmp != nullptr && *tmp ? tmp : "/tmp") + "/hcmpi.XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (mkdtemp(buf.data()) == nullptr) {
      std::perror("hcmpi_launch: mkdtemp");
      return 1;
    }
    session = buf.data();
    own_session = true;
  }

  std::vector<pid_t> pids(std::size_t(nprocs), -1);
  for (int p = 0; p < nprocs; ++p) {
    pid_t pid = fork();
    if (pid < 0) {
      std::perror("hcmpi_launch: fork");
      for (int q = 0; q < p; ++q) kill(pids[std::size_t(q)], SIGKILL);
      if (own_session) remove_session(session);
      return 1;
    }
    if (pid == 0) {
      setenv("HCMPI_TRANSPORT", "socket", 1);
      setenv("HCMPI_PROC", std::to_string(p).c_str(), 1);
      setenv("HCMPI_NPROCS", std::to_string(nprocs).c_str(), 1);
      if (rpp > 0) {
        setenv("HCMPI_RANKS_PER_PROC", std::to_string(rpp).c_str(), 1);
      }
      setenv("HCMPI_SESSION", session.c_str(), 1);
      execvp(argv[prog_at], argv + prog_at);
      std::fprintf(stderr, "hcmpi_launch: exec %s: %s\n", argv[prog_at],
                   std::strerror(errno));
      _exit(127);
    }
    pids[std::size_t(p)] = pid;
  }

  int worst = 0;
  for (int p = 0; p < nprocs; ++p) {
    int status = 0;
    if (waitpid(pids[std::size_t(p)], &status, 0) < 0) {
      std::perror("hcmpi_launch: waitpid");
      worst = worst > 1 ? worst : 1;
      continue;
    }
    int code = 0;
    if (WIFEXITED(status)) {
      code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      code = 128 + WTERMSIG(status);
      std::fprintf(stderr, "hcmpi_launch: proc %d killed by signal %d\n", p,
                   WTERMSIG(status));
    }
    if (code != 0) {
      std::fprintf(stderr, "hcmpi_launch: proc %d exited with %d\n", p, code);
    }
    if (code > worst) worst = code;
  }

  if (own_session) remove_session(session);
  return worst;
}
