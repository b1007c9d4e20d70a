// Request/response body encodings for the CoREC RPC protocol. Bodies
// reuse the staging/wire field encodings (little-endian fixed-width via
// BufferWriter/BufferReader) — the RPC layer adds framing and routing,
// not a second serialization scheme.
//
// Put and get bodies keep the payload as the *trailing* section of the
// frame body, after a fixed-order metadata prefix. The receiver decodes
// the prefix with a BufferReader and then slice()s the payload straight
// out of the frame body's refcounted backing store: a client's get
// result is the bytes the socket was read into, and the server copies
// a put payload out of that slice only in the pass that verifies its
// CRC (see server.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.hpp"
#include "common/status.hpp"
#include "staging/object.hpp"
#include "staging/object_store.hpp"
#include "staging/thread_fabric.hpp"

namespace corec::rpc {

/// Operation selector carried in FrameHeader::opcode.
enum class OpCode : std::uint8_t {
  kPing = 0,   // liveness probe; empty body both ways
  kPut = 1,    // store one object
  kGet = 2,    // fetch one object by descriptor
  kQuery = 3,  // directory query (exact or latest-version)
  kErase = 4,  // remove one object
  kStat = 5,   // server + fabric counters
};

const char* to_string(OpCode op);
bool valid_opcode(std::uint8_t raw);

/// Renders a Status into the FrameHeader::code field of a response
/// (the StatusCode enum value; 0 == OK) and back.
std::uint16_t status_to_wire(const Status& status);
Status status_from_wire(std::uint16_t code, const char* context);

// ---- put -----------------------------------------------------------------
// Request body: descriptor, u8 stored-kind, u32 payload CRC32C,
// u64 logical size, then the raw payload bytes to the end of the body.
// Response body: empty; header.code carries the Status.

struct PutRequest {
  staging::ObjectDescriptor desc;
  staging::StoredKind kind = staging::StoredKind::kPrimary;
  std::uint32_t checksum = 0;
  std::uint64_t logical_size = 0;
  PayloadBuffer payload;  // view into the frame body (zero-copy)
};

/// Encodes the metadata prefix of a put request; the payload itself is
/// shipped as a separate write segment (see OutFrame) so the sender
/// never concatenates metadata and payload into one buffer.
Bytes encode_put_prefix(const PutRequest& req);

/// Decodes a put request from a frame body. The returned payload is a
/// slice of `body` (shares its backing store).
StatusOr<PutRequest> decode_put_request(const PayloadBuffer& body);

// ---- get -----------------------------------------------------------------
// Request body: descriptor.
// Response body: u8 stored-kind, u32 checksum, u64 logical size, then
// the payload bytes to the end of the body. header.code carries the
// Status; error responses have an empty body.

struct GetResponse {
  staging::StoredKind kind = staging::StoredKind::kPrimary;
  std::uint32_t checksum = 0;
  std::uint64_t logical_size = 0;
  PayloadBuffer payload;  // view into the frame body (zero-copy)
};

Bytes encode_get_request(const staging::ObjectDescriptor& desc);
StatusOr<staging::ObjectDescriptor> decode_get_request(
    const PayloadBuffer& body);

Bytes encode_get_response_prefix(const staging::StoredObject& stored);
StatusOr<GetResponse> decode_get_response(const PayloadBuffer& body);

// ---- query ---------------------------------------------------------------
// Request body: u32 var, u32 version, u8 latest-flag, box.
// Response body: u32 count, then that many descriptors.

struct QueryRequest {
  VarId var = 0;
  Version version = 0;
  bool latest = true;  // query_latest vs exact-version query
  geom::BoundingBox region;
};

Bytes encode_query_request(const QueryRequest& req);
StatusOr<QueryRequest> decode_query_request(const PayloadBuffer& body);

Bytes encode_query_response(
    const std::vector<staging::ObjectDescriptor>& descs);
StatusOr<std::vector<staging::ObjectDescriptor>> decode_query_response(
    const PayloadBuffer& body);

// ---- erase ---------------------------------------------------------------
// Request body: descriptor. Response body: u8 removed-flag.

Bytes encode_erase_request(const staging::ObjectDescriptor& desc);
StatusOr<staging::ObjectDescriptor> decode_erase_request(
    const PayloadBuffer& body);

Bytes encode_erase_response(bool removed);
StatusOr<bool> decode_erase_response(const PayloadBuffer& body);

// ---- stat ----------------------------------------------------------------
// Request body: empty. Response body: fixed-order u64 counters.

struct StatResponse {
  std::uint64_t num_servers = 0;
  std::uint64_t total_objects = 0;
  std::uint64_t total_bytes = 0;
  staging::FabricStatsSnapshot fabric;
};

Bytes encode_stat_response(const StatResponse& s);
StatusOr<StatResponse> decode_stat_response(const PayloadBuffer& body);

}  // namespace corec::rpc
