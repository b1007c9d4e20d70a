#include "rpc/protocol.hpp"

#include <utility>

#include "staging/wire.hpp"

namespace corec::rpc {

using staging::ObjectDescriptor;
using staging::StoredKind;

const char* to_string(OpCode op) {
  switch (op) {
    case OpCode::kPing: return "ping";
    case OpCode::kPut: return "put";
    case OpCode::kGet: return "get";
    case OpCode::kQuery: return "query";
    case OpCode::kErase: return "erase";
    case OpCode::kStat: return "stat";
  }
  return "?";
}

bool valid_opcode(std::uint8_t raw) {
  return raw <= static_cast<std::uint8_t>(OpCode::kStat);
}

std::uint16_t status_to_wire(const Status& status) {
  return static_cast<std::uint16_t>(status.code());
}

Status status_from_wire(std::uint16_t code, const char* context) {
  if (code == 0) return Status::Ok();
  if (code > static_cast<std::uint16_t>(StatusCode::kInternal)) {
    return Status::Internal(std::string("unknown wire status code from ") +
                            context);
  }
  return {static_cast<StatusCode>(code), context};
}

namespace {

Status check_drained(const BufferReader& r, const char* what) {
  if (r.remaining() != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes in body");
  }
  return Status::Ok();
}

// Decodes the common "metadata prefix + payload tail" shape: reads the
// prefix with `r`, then slices the declared payload out of `body`.
StatusOr<PayloadBuffer> take_payload_tail(const PayloadBuffer& body,
                                          BufferReader* r,
                                          std::uint64_t logical_size) {
  if (r->remaining() != logical_size) {
    return Status::InvalidArgument("payload length mismatch in body");
  }
  const std::size_t offset = body.size() - r->remaining();
  return body.slice(offset, logical_size);
}

}  // namespace

// ---- put -----------------------------------------------------------------

Bytes encode_put_prefix(const PutRequest& req) {
  Bytes out;
  BufferWriter w(&out);
  staging::encode_descriptor(req.desc, &w);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.kind));
  w.put<std::uint32_t>(req.checksum);
  w.put<std::uint64_t>(req.logical_size);
  return out;
}

StatusOr<PutRequest> decode_put_request(const PayloadBuffer& body) {
  BufferReader r(body.span());
  PutRequest req;
  COREC_ASSIGN_OR_RETURN(req.desc, staging::decode_descriptor(&r));
  std::uint8_t kind = 0;
  COREC_RETURN_IF_ERROR(r.get(&kind));
  if (kind > static_cast<std::uint8_t>(StoredKind::kParity)) {
    return Status::InvalidArgument("bad stored-kind in put request");
  }
  req.kind = static_cast<StoredKind>(kind);
  COREC_RETURN_IF_ERROR(r.get(&req.checksum));
  COREC_RETURN_IF_ERROR(r.get(&req.logical_size));
  COREC_ASSIGN_OR_RETURN(req.payload,
                         take_payload_tail(body, &r, req.logical_size));
  return req;
}

// ---- get -----------------------------------------------------------------

Bytes encode_get_request(const ObjectDescriptor& desc) {
  Bytes out;
  BufferWriter w(&out);
  staging::encode_descriptor(desc, &w);
  return out;
}

StatusOr<ObjectDescriptor> decode_get_request(const PayloadBuffer& body) {
  BufferReader r(body.span());
  COREC_ASSIGN_OR_RETURN(ObjectDescriptor desc,
                         staging::decode_descriptor(&r));
  COREC_RETURN_IF_ERROR(check_drained(r, "get request"));
  return desc;
}

Bytes encode_get_response_prefix(const staging::StoredObject& stored) {
  Bytes out;
  BufferWriter w(&out);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(stored.kind));
  w.put<std::uint32_t>(stored.object.checksum);
  // data.size(), not logical_size: the frame carries the bytes that
  // actually exist (phantom objects have none).
  w.put<std::uint64_t>(stored.object.data.size());
  return out;
}

StatusOr<GetResponse> decode_get_response(const PayloadBuffer& body) {
  BufferReader r(body.span());
  GetResponse resp;
  std::uint8_t kind = 0;
  COREC_RETURN_IF_ERROR(r.get(&kind));
  if (kind > static_cast<std::uint8_t>(StoredKind::kParity)) {
    return Status::InvalidArgument("bad stored-kind in get response");
  }
  resp.kind = static_cast<StoredKind>(kind);
  COREC_RETURN_IF_ERROR(r.get(&resp.checksum));
  COREC_RETURN_IF_ERROR(r.get(&resp.logical_size));
  COREC_ASSIGN_OR_RETURN(resp.payload,
                         take_payload_tail(body, &r, resp.logical_size));
  return resp;
}

// ---- query ---------------------------------------------------------------

Bytes encode_query_request(const QueryRequest& req) {
  Bytes out;
  BufferWriter w(&out);
  w.put<VarId>(req.var);
  w.put<Version>(req.version);
  w.put<std::uint8_t>(req.latest ? 1 : 0);
  staging::encode_box(req.region, &w);
  return out;
}

StatusOr<QueryRequest> decode_query_request(const PayloadBuffer& body) {
  BufferReader r(body.span());
  QueryRequest req;
  COREC_RETURN_IF_ERROR(r.get(&req.var));
  COREC_RETURN_IF_ERROR(r.get(&req.version));
  std::uint8_t latest = 0;
  COREC_RETURN_IF_ERROR(r.get(&latest));
  req.latest = latest != 0;
  COREC_ASSIGN_OR_RETURN(req.region, staging::decode_box(&r));
  COREC_RETURN_IF_ERROR(check_drained(r, "query request"));
  return req;
}

Bytes encode_query_response(const std::vector<ObjectDescriptor>& descs) {
  Bytes out;
  BufferWriter w(&out);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(descs.size()));
  for (const auto& d : descs) staging::encode_descriptor(d, &w);
  return out;
}

StatusOr<std::vector<ObjectDescriptor>> decode_query_response(
    const PayloadBuffer& body) {
  BufferReader r(body.span());
  std::uint32_t n = 0;
  COREC_RETURN_IF_ERROR(r.get(&n));
  // Every descriptor encodes to well over 16 bytes; a count the
  // remaining bytes cannot possibly hold is a corrupt frame, not a
  // reason to allocate.
  if (n > r.remaining() / 16) {
    return Status::InvalidArgument("query response count exceeds body");
  }
  std::vector<ObjectDescriptor> descs;
  descs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    COREC_ASSIGN_OR_RETURN(ObjectDescriptor d,
                           staging::decode_descriptor(&r));
    descs.push_back(d);
  }
  COREC_RETURN_IF_ERROR(check_drained(r, "query response"));
  return descs;
}

// ---- erase ---------------------------------------------------------------

Bytes encode_erase_request(const ObjectDescriptor& desc) {
  return encode_get_request(desc);
}

StatusOr<ObjectDescriptor> decode_erase_request(const PayloadBuffer& body) {
  return decode_get_request(body);
}

Bytes encode_erase_response(bool removed) {
  Bytes out;
  BufferWriter w(&out);
  w.put<std::uint8_t>(removed ? 1 : 0);
  return out;
}

StatusOr<bool> decode_erase_response(const PayloadBuffer& body) {
  BufferReader r(body.span());
  std::uint8_t removed = 0;
  COREC_RETURN_IF_ERROR(r.get(&removed));
  COREC_RETURN_IF_ERROR(check_drained(r, "erase response"));
  return removed != 0;
}

// ---- stat ----------------------------------------------------------------

Bytes encode_stat_response(const StatResponse& s) {
  Bytes out;
  BufferWriter w(&out);
  w.put<std::uint64_t>(s.num_servers);
  w.put<std::uint64_t>(s.total_objects);
  w.put<std::uint64_t>(s.total_bytes);
  w.put<std::uint64_t>(s.fabric.puts);
  w.put<std::uint64_t>(s.fabric.gets);
  w.put<std::uint64_t>(s.fabric.erases);
  w.put<std::uint64_t>(s.fabric.put_failures);
  w.put<std::uint64_t>(s.fabric.get_misses);
  return out;
}

StatusOr<StatResponse> decode_stat_response(const PayloadBuffer& body) {
  BufferReader r(body.span());
  StatResponse s;
  COREC_RETURN_IF_ERROR(r.get(&s.num_servers));
  COREC_RETURN_IF_ERROR(r.get(&s.total_objects));
  COREC_RETURN_IF_ERROR(r.get(&s.total_bytes));
  COREC_RETURN_IF_ERROR(r.get(&s.fabric.puts));
  COREC_RETURN_IF_ERROR(r.get(&s.fabric.gets));
  COREC_RETURN_IF_ERROR(r.get(&s.fabric.erases));
  COREC_RETURN_IF_ERROR(r.get(&s.fabric.put_failures));
  COREC_RETURN_IF_ERROR(r.get(&s.fabric.get_misses));
  COREC_RETURN_IF_ERROR(check_drained(r, "stat response"));
  return s;
}

}  // namespace corec::rpc
