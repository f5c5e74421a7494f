// HTTP/1.1 wire serialization (RFC 9112).
//
// The simulator times transfers from wire sizes; these serializers are the
// reference that tests hold wire_size() accounting to for fully
// materialized bodies.
#pragma once

#include <string>

#include "http/message.h"

namespace catalyst::http {

/// Serializes a request in origin-form ("GET /path HTTP/1.1").
std::string serialize(const Request& request);

/// Serializes a response. The actual body is emitted; when the declared
/// wire size exceeds the materialized body, the remainder is represented
/// by the Content-Length header only (the simulation's timing authority).
std::string serialize(const Response& response);

}  // namespace catalyst::http
