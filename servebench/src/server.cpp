#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace servebench {

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error{"pipe failed"};
  std::vector<std::string> argv_text{binary};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error{"fork failed"};
  if (pid_ == 0) {
    // Die with the servebench process, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
}

std::optional<std::uint16_t> ServerProcess::wait_for_port(std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string text;
  constexpr std::string_view kPrefix = "listening on 127.0.0.1:";
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{.fd = stdout_fd_, .events = POLLIN};
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (::poll(&pfd, 1, static_cast<int>(std::max<long>(left.count(), 1))) <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    text.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = text.find(kPrefix);
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      unsigned port = 0;
      const char* first = text.data() + at + kPrefix.size();
      if (std::from_chars(first, text.data() + eol, port).ec != std::errc{}) return std::nullopt;
      return static_cast<std::uint16_t>(port);
    }
  }
  return std::nullopt;
}

double ServerProcess::cpu_us() const {
  std::ifstream file{"/proc/" + std::to_string(pid_) + "/stat"};
  std::string stat((std::istreambuf_iterator<char>(file)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  std::istringstream fields{stat.substr(stat.rfind(')') + 2)};
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mib() const {
  std::ifstream file{"/proc/" + std::to_string(pid_) + "/status"};
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

void ServerProcess::stop() {
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  pid_ = -1;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error{"socket failed"};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error{std::string{"connect failed: "} + std::strerror(errno)};
  }
  return fd;
}

void write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error{"write to the server failed"};
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

std::string_view FrameReader::next() {
  constexpr std::string_view kEnd = "\nend\n";
  while (true) {
    const std::string_view filled{buffer_.data(), end_};
    const std::size_t at = filled.find(kEnd, std::max(scan_, start_));
    if (at != std::string_view::npos) {
      const std::size_t begin = start_;
      start_ = scan_ = at + kEnd.size();
      return filled.substr(begin, start_ - begin);
    }
    // A terminator may straddle the next read: rescan its possible start.
    scan_ = end_ >= kEnd.size() ? end_ - kEnd.size() + 1 : 0;
    if (start_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + start_, end_ - start_);
      end_ -= start_;
      scan_ -= std::min(scan_, start_);
      start_ = 0;
    }
    if (buffer_.size() - end_ < 16384) buffer_.resize(std::max<std::size_t>(65536, 2 * buffer_.size()));
    ssize_t n = 0;
    do {
      n = ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) throw std::runtime_error{"the server closed the connection"};
    end_ += static_cast<std::size_t>(n);
  }
}

std::uint64_t reply_id(std::string_view frame) {
  constexpr std::string_view kPrefix = "response v2 ";
  if (frame.substr(0, kPrefix.size()) != kPrefix) return 0;
  std::uint64_t id = 0;
  std::from_chars(frame.data() + kPrefix.size(), frame.data() + frame.size(), id);
  return id;
}

}  // namespace servebench
