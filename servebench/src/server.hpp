// The spivar_serve child process and the loopback client plumbing the load
// phase drives it with.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// A spivar_serve child. The constructor starts it; stop() (or the
/// destructor) ends it and waits for it, so no run leaves a process behind.
/// The child is also killed if the servebench process dies first.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServerProcess() { stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Reads the child's stdout until it prints `listening on 127.0.0.1:P`;
  /// nullopt when it exits or stays silent past `timeout`.
  [[nodiscard]] std::optional<std::uint16_t> wait_for_port(std::chrono::seconds timeout);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// User plus system CPU time the child has used, in microseconds.
  [[nodiscard]] double cpu_us() const;
  /// The child's peak resident set (VmHWM), in MiB.
  [[nodiscard]] double peak_rss_mib() const;

  /// SIGTERM, a grace period, then SIGKILL; always reaps the child.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// Connects to 127.0.0.1:`port`; throws on failure.
[[nodiscard]] int connect_loopback(std::uint16_t port);

/// Writes all of `bytes`; throws on failure.
void write_all(int fd, std::string_view bytes);

/// Splits the bytes read from a socket into `end`-terminated frames.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// The next whole frame (valid until the next call); throws when the
  /// peer closes or the read fails.
  [[nodiscard]] std::string_view next();

 private:
  int fd_;
  std::vector<char> buffer_;
  std::size_t start_ = 0;  ///< first byte of the next frame
  std::size_t end_ = 0;    ///< bytes of buffer_ holding data
  std::size_t scan_ = 0;   ///< where the terminator search resumes
};

/// The frame id of a `response v2 <id> ...` header, 0 when absent.
[[nodiscard]] std::uint64_t reply_id(std::string_view frame);

}  // namespace servebench
