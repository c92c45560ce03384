#include "service/protocol.h"

#include <array>

namespace anmat {

namespace {

/// The codes a response can carry, by their StatusCodeToString names.
constexpr std::array<StatusCode, 8> kCodes = {
    StatusCode::kInvalidArgument, StatusCode::kParseError,
    StatusCode::kNotFound,        StatusCode::kOutOfRange,
    StatusCode::kAlreadyExists,   StatusCode::kIoError,
    StatusCode::kNotImplemented,  StatusCode::kInternal,
};

StatusCode CodeFromName(const std::string& name) {
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  // An unrecognized code (newer server?) still surfaces as an error.
  return StatusCode::kInternal;
}

}  // namespace

Result<ServiceRequest> ParseServiceRequest(std::string_view payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) {
    return Status::ParseError("request is not valid JSON: " +
                              parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::ParseError("request must be a JSON object");
  }
  ServiceRequest request;
  if (const JsonValue* id = parsed->Get("id");
      id != nullptr && id->is_number()) {
    ANMAT_ASSIGN_OR_RETURN(const int64_t value, id->CheckedInt("id"));
    if (value >= 0) request.id = static_cast<uint64_t>(value);
  }
  const JsonValue* verb = parsed->Get("verb");
  if (verb == nullptr || !verb->is_string() || verb->as_string().empty()) {
    return Status::ParseError("request missing string \"verb\"");
  }
  request.verb = verb->as_string();
  if (const JsonValue* params = parsed->Get("params"); params != nullptr) {
    if (!params->is_object()) {
      return Status::ParseError("request \"params\" must be an object");
    }
    request.params = *params;
  } else {
    request.params = JsonValue::Object();
  }
  return request;
}

std::string SerializeServiceRequest(uint64_t id, const std::string& verb,
                                    JsonValue params) {
  JsonValue root = JsonValue::Object();
  root.Set("id", JsonValue::Int(static_cast<int64_t>(id)));
  root.Set("verb", JsonValue::String(verb));
  root.Set("params", std::move(params));
  return root.Dump();
}

std::string SerializeServiceOk(uint64_t id, JsonValue result,
                               const std::string& text) {
  JsonValue root = JsonValue::Object();
  root.Set("id", JsonValue::Int(static_cast<int64_t>(id)));
  root.Set("ok", JsonValue::Bool(true));
  root.Set("result", std::move(result));
  if (!text.empty()) root.Set("text", JsonValue::String(text));
  return root.Dump();
}

std::string SerializeServiceError(uint64_t id, const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeToString(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  JsonValue root = JsonValue::Object();
  root.Set("id", JsonValue::Int(static_cast<int64_t>(id)));
  root.Set("ok", JsonValue::Bool(false));
  root.Set("error", std::move(error));
  return root.Dump();
}

Result<ServiceResponse> ParseServiceResponse(std::string_view payload) {
  auto parsed = ParseJson(payload);
  if (!parsed.ok()) {
    return Status::ParseError("response is not valid JSON: " +
                              parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::ParseError("response must be a JSON object");
  }
  ServiceResponse response;
  if (const JsonValue* id = parsed->Get("id");
      id != nullptr && id->is_number()) {
    ANMAT_ASSIGN_OR_RETURN(const int64_t value, id->CheckedInt("id"));
    if (value >= 0) response.id = static_cast<uint64_t>(value);
  }
  ANMAT_ASSIGN_OR_RETURN(response.ok, parsed->GetBool("ok"));
  if (response.ok) {
    const JsonValue* result = parsed->Get("result");
    if (result == nullptr) {
      return Status::ParseError("ok response missing \"result\"");
    }
    response.result = *result;
    if (const JsonValue* text = parsed->Get("text");
        text != nullptr && text->is_string()) {
      response.text = text->as_string();
    }
    return response;
  }
  const JsonValue* error = parsed->Get("error");
  if (error == nullptr || !error->is_object()) {
    return Status::ParseError("error response missing \"error\" object");
  }
  ANMAT_ASSIGN_OR_RETURN(std::string code, error->GetString("code"));
  ANMAT_ASSIGN_OR_RETURN(std::string message, error->GetString("message"));
  response.error = Status(CodeFromName(code), std::move(message));
  return response;
}

}  // namespace anmat
