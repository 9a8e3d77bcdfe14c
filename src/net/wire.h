// akb::net wire protocol v1 — the length-prefixed binary framing the
// network front door speaks.
//
// Every message is one frame: a little-endian u32 payload length followed
// by that many payload bytes. Frames bigger than the receiver's
// max-frame budget are a protocol error (the connection is closed), so a
// hostile or confused peer can't make the server buffer unbounded input.
//
// Request payload:
//   u8  version        (kWireVersion)
//   u8  type           (1 = pattern, 2 = BGP join, 3 = ping)
//   u64 request_id     (echoed verbatim in the response; responses to
//                       pipelined requests may arrive out of order)
//   u64 deadline_nanos (time budget measured from server receipt;
//                       0 = no deadline. Shipping a relative budget
//                       instead of an absolute timestamp keeps the
//                       protocol clock-skew-free.)
//   body:
//     pattern: u32 s, u32 p, u32 o      (0 = kInvalidTermId = wildcard)
//     bgp:     u8 num_patterns, then per pattern 3 x {u8 is_var,
//              u32 term-id-or-var-slot}, then u64 row_limit
//     ping:    empty
//
// Response payload:
//   u8  version
//   u8  type           (echoes the request)
//   u64 request_id
//   u8  status_code    (StatusCode numeric value)
//   u8  flags          (bit 0: served from the join cache — never set
//                       for a single pattern, which is not cached;
//                       bit 1: coalesced — this response was fanned out
//                       from another request's execution)
//   u64 retry_after_nanos  (backoff hint; nonzero only on kUnavailable)
//   u32 message_len, bytes (status message; empty when OK)
//   body (present only when status is OK):
//     pattern: u64 num_matches, then num_matches x u64 distinct-triple
//              indices into the served snapshot — exactly the vector a
//              direct QueryEngine::Execute returns, in the same order
//     bgp:     u16 num_vars, per var {u16 len, bytes}; u64 num_rows,
//              then num_rows x num_vars x u32 term ids (row-major,
//              canonical column order — the BgpRows layout)
//     ping:    empty
//
// Decode errors are typed: kParseError for malformed bytes (bad version,
// unknown type, truncated or oversize body, trailing garbage) — the
// server answers what it can and closes the connection.
#ifndef AKB_NET_WIRE_H_
#define AKB_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/triple_store.h"

namespace akb::net {

inline constexpr uint8_t kWireVersion = 1;

/// Frames bigger than this are rejected by default (both sides).
inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;

enum class MsgType : uint8_t {
  kPattern = 1,
  kBgp = 2,
  kPing = 3,
};

/// One position of a wire BGP pattern: a bound term id or a variable
/// slot (slots are dense from 0; equal slots join).
struct WireBgpTerm {
  bool is_var = false;
  uint32_t value = 0;  ///< TermId when bound, variable slot when is_var
};

struct WireBgpPattern {
  WireBgpTerm s, p, o;
};

struct WireRequest {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  /// Time budget from server receipt, 0 = none.
  int64_t deadline_nanos = 0;
  /// kPattern body.
  rdf::TriplePattern pattern;
  /// kBgp body.
  std::vector<WireBgpPattern> bgp_patterns;
  uint64_t row_limit = 100'000;
};

struct WireResponse {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  Status status;
  bool cache_hit = false;
  bool coalesced = false;
  int64_t retry_after_nanos = 0;
  /// kPattern body: distinct-triple indices, engine order.
  std::vector<uint64_t> matches;
  /// kBgp body: canonical column names + row-major term ids.
  std::vector<std::string> vars;
  std::vector<rdf::TermId> rows;
  uint64_t num_rows = 0;
};

/// Appends one whole frame (length prefix + payload) for `request`.
void EncodeRequest(const WireRequest& request, std::string* out);

/// Appends one whole frame for `response`.
void EncodeResponse(const WireResponse& response, std::string* out);

/// Decodes a request payload (the bytes after the length prefix).
Status DecodeRequest(std::string_view payload, WireRequest* out);

/// Decodes a response payload.
Status DecodeResponse(std::string_view payload, WireResponse* out);

/// Frame extraction from a streaming read buffer. Returns the total bytes
/// (prefix + payload) the complete first frame occupies and points
/// `payload` at it, 0 when `buffer` does not yet hold a complete frame,
/// or kParseError when the declared payload length exceeds `max_frame`.
Result<size_t> ExtractFrame(std::string_view buffer, size_t max_frame,
                            std::string_view* payload);

}  // namespace akb::net

#endif  // AKB_NET_WIRE_H_
