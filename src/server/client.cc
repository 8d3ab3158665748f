#include "server/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace payg::server {

namespace {

Result<int> ConnectFd(int domain, const sockaddr* addr, socklen_t len,
                      const std::string& what) {
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int rc;
  do {
    rc = ::connect(fd, addr, len);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int saved = errno;
    ::close(fd);
    return Status::IOError("connect " + what + ": " + std::strerror(saved));
  }
  return fd;
}

Status StatusFromCode(wire::Code code, const std::string& message) {
  switch (code) {
    case wire::Code::kOk:
      return Status::OK();
    case wire::Code::kOverloaded:
      return Status::ResourceExhausted("server overloaded: " + message);
    case wire::Code::kShedDeadline:
      return Status::DeadlineExceeded("shed in admission queue: " + message);
    case wire::Code::kBadRequest:
      return Status::InvalidArgument("bad request: " + message);
    default:
      break;
  }
  // Codes < 100 mirror StatusCode one to one.
  const auto sc = static_cast<StatusCode>(static_cast<int>(code));
  switch (sc) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnsupported:
      return Status::Unsupported(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    default:
      return Status::Internal(message);
  }
}

}  // namespace

Result<std::unique_ptr<Client>> Client::ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    return Status::InvalidArgument("unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  PAYG_ASSIGN_OR_RETURN(
      int fd, ConnectFd(AF_UNIX, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr, path));
  return std::unique_ptr<Client>(new Client(fd));
}

Result<std::unique_ptr<Client>> Client::ConnectTcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  PAYG_ASSIGN_OR_RETURN(
      int fd, ConnectFd(AF_INET, reinterpret_cast<sockaddr*>(&addr),
                        sizeof addr, "127.0.0.1:" + std::to_string(port)));
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<wire::Response> Client::Call(const wire::Request& req) {
  PAYG_RETURN_IF_ERROR(wire::WriteFrame(fd_, wire::EncodeRequest(req)));
  std::string payload;
  PAYG_RETURN_IF_ERROR(wire::ReadFrame(fd_, &payload));
  wire::Response resp;
  PAYG_RETURN_IF_ERROR(wire::DecodeResponse(req.op, payload, &resp));
  last_code_ = resp.code;
  last_query_id_ = resp.query_id;
  if (resp.code != wire::Code::kOk) {
    return StatusFromCode(resp.code, resp.message);
  }
  return resp;
}

Status Client::Ping() { return Call({.op = wire::Op::kPing}).status(); }

Status Client::DumpStats() {
  return Call({.op = wire::Op::kDumpStats}).status();
}

Result<QueryResult> Client::SelectByValue(
    const std::string& table, const std::string& column, const Value& value,
    const std::vector<std::string>& select_columns, uint64_t deadline_us) {
  PAYG_ASSIGN_OR_RETURN(wire::Response resp,
                        Call({.op = wire::Op::kSelectByValue,
                              .deadline_us = deadline_us,
                              .table = table,
                              .column = column,
                              .value = value,
                              .select_columns = select_columns}));
  return std::move(resp.result);
}

Result<uint64_t> Client::CountByValue(const std::string& table,
                                      const std::string& column,
                                      const Value& value,
                                      uint64_t deadline_us) {
  PAYG_ASSIGN_OR_RETURN(wire::Response resp,
                        Call({.op = wire::Op::kCountByValue,
                              .deadline_us = deadline_us,
                              .table = table,
                              .column = column,
                              .value = value}));
  return resp.count;
}

}  // namespace payg::server
