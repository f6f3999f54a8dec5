#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/client.h"

namespace perfbench {

namespace {

constexpr auto kReadyTimeout = std::chrono::seconds(120);
constexpr auto kStopTimeout = std::chrono::seconds(120);

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string LogTail(const std::string& dir) {
  const std::string log = ReadFile(dir + "/daemon.log");
  return log.size() > 2000 ? log.substr(log.size() - 2000) : log;
}

}  // namespace

int ConnectLocal(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string reason = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             ": " + reason);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Daemon::Daemon(const DaemonConfig& config) : config_(config) {
  namespace fs = std::filesystem;
  fs::create_directories(config_.dir);
  const std::string port_file = config_.dir + "/port";
  fs::remove(port_file);
  std::vector<std::string> args = {
      config_.binary,
      "--port", "0",
      "--port-file", port_file,
      "--threads", std::to_string(config_.threads),
      "--journal-dir", config_.dir + "/journal",
      "--store-dir", config_.dir + "/store",
      "--ingest-batch", std::to_string(kFoldRecords),
      "--ingest-max-delay-ms", "600000",
      "--compact-every-n-folds", std::to_string(kCompactEveryFolds),
  };
  for (const auto& [name, path] : config_.models) {
    args.push_back("--model");
    args.push_back(name + "=" + path);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string log_path = config_.dir + "/daemon.log";

  launched_ = Clock::now();
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork: " + std::string(strerror(errno)));
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec. The daemon dies with
    // the benchmark, so a killed run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  const Clock::time_point deadline = launched_ + kReadyTimeout;
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during startup:\n" +
                               LogTail(config_.dir));
    }
    if (Clock::now() > deadline) {
      throw std::runtime_error("daemon not ready in time:\n" +
                               LogTail(config_.dir));
    }
    if (port_ == 0) {
      const std::string text = ReadFile(port_file);
      if (!text.empty() && text.back() == '\n') {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
      }
    }
    if (port_ != 0) {
      try {
        grafics::serve::Client client("127.0.0.1", port_);
        if (client.Ping().ok) break;
      } catch (const std::exception&) {
        // Not accepting yet.
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ready_ = Clock::now();
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM for the daemon");
}

std::string Daemon::SimdBackend() const {
  const std::string log = ReadFile(config_.dir + "/daemon.log");
  const std::string key = "simd backend = ";
  const std::size_t at = log.rfind(key);
  if (at == std::string::npos) return "unreported";
  const std::size_t from = at + key.size();
  return log.substr(from, log.find('\n', from) - from);
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + kStopTimeout;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (Clock::now() > deadline) {
      throw std::runtime_error("daemon ignored SIGTERM");  // dtor kills it
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("daemon exited uncleanly on SIGTERM:\n" +
                             LogTail(config_.dir));
  }
}

}  // namespace perfbench
