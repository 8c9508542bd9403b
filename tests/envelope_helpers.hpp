// Helpers for tests that drive the session's AnyRequest envelope surface
// (call_batch / submit): wrap typed requests into envelopes, reach a slot's
// typed response, and render a whole batch for bit-identical comparisons.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "api/api.hpp"

namespace spivar {

/// One envelope per typed request, every slot scheduled with `options`. A
/// braced list of designated initializers defaults to simulate requests.
template <typename Request = api::SimulateRequest>
std::vector<api::AnyRequest> envelopes(const std::vector<Request>& requests,
                                       api::SubmitOptions options = {}) {
  std::vector<api::AnyRequest> out;
  out.reserve(requests.size());
  for (const Request& request : requests) {
    out.emplace_back().payload = request;
    out.back().options = options;
  }
  return out;
}

/// The typed response carried by an ok envelope slot.
template <typename Response>
const Response& response_of(const api::Result<api::AnyResponse>& result) {
  return std::get<Response>(result.value());
}

/// Renders every batch slot (or its diagnostics) into one string — the
/// bit-identical comparison covers names, costs, mappings and orderings.
template <typename T>
std::string render_batch(const std::vector<api::Result<T>>& results) {
  std::string out;
  for (const auto& result : results) {
    out += result.ok() ? api::render(result.value())
                       : api::render_diagnostics(result.diagnostics());
    out += "\n---\n";
  }
  return out;
}

}  // namespace spivar
