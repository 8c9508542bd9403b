// Typed value-or-diagnostics results for the api session boundary.
//
// Every api::Session operation returns Result<T>: either a value (possibly
// accompanied by warnings/notes) or a DiagnosticList explaining the failure.
// No exception crosses the session boundary — parse errors, model errors and
// unexpected failures are all converted into diagnostics with stable codes
// (api::diag). Accessing value() on a failed result is the one programmer
// error that still throws, exactly like std::optional::value().
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "support/diagnostics.hpp"

namespace spivar::api {

/// Diagnostic codes emitted by the session layer itself (subsystem passes
/// keep their own codes; session failures use these).
namespace diag {
inline constexpr const char* kUnknownModel = "api-unknown-model";
inline constexpr const char* kUnknownBuiltin = "api-unknown-builtin";
inline constexpr const char* kParseError = "api-parse-error";
inline constexpr const char* kModelError = "api-model-error";
inline constexpr const char* kIoError = "api-io-error";
inline constexpr const char* kInternalError = "api-internal-error";
inline constexpr const char* kEmptyProblem = "api-empty-problem";
inline constexpr const char* kBadOption = "api-bad-option";
inline constexpr const char* kCancelled = "api-cancelled";
inline constexpr const char* kWireError = "api-wire-error";
inline constexpr const char* kOverload = "api-overload";
inline constexpr const char* kQuotaExceeded = "api-quota-exceeded";
}  // namespace diag

template <typename T>
class [[nodiscard]] Result {
 public:
  using value_type = T;

  /// Successful result; `notes` may carry non-fatal findings.
  static Result success(T value, support::DiagnosticList notes = {}) {
    Result r;
    r.value_ = std::move(value);
    r.diagnostics_ = std::move(notes);
    return r;
  }

  static Result failure(support::DiagnosticList diagnostics) {
    Result r;
    r.diagnostics_ = std::move(diagnostics);
    return r;
  }

  static Result failure(std::string code, std::string message) {
    support::DiagnosticList diagnostics;
    diagnostics.error(std::move(code), std::move(message));
    return failure(std::move(diagnostics));
  }

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] explicit operator bool() const noexcept { return ok(); }

  /// The payload. Calling this on a failed result is a programming error and
  /// throws ModelError (the only throw in the api layer).
  [[nodiscard]] const T& value() const& {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return *std::move(value_);
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  /// Failure diagnostics, or non-fatal notes on success.
  [[nodiscard]] const support::DiagnosticList& diagnostics() const noexcept {
    return diagnostics_;
  }

  /// One-line rendering of the first error (empty when ok).
  [[nodiscard]] std::string error_summary() const {
    for (const auto& d : diagnostics_.items()) {
      if (d.severity == support::Severity::kError) return d.code + ": " + d.message;
    }
    return ok() ? std::string{} : std::string{"unknown failure"};
  }

 private:
  Result() = default;
  void require_ok() const {
    if (!ok()) throw support::ModelError("Result::value() on failed result (" + error_summary() + ")");
  }

  std::optional<T> value_;
  support::DiagnosticList diagnostics_;
};

}  // namespace spivar::api
