#ifndef PAYG_SERVER_CLIENT_H_
#define PAYG_SERVER_CLIENT_H_

// Blocking client of the S25 wire protocol: one connection, one in-flight
// request (the protocol is a strict request/response alternation). Not
// thread-safe — benches give every closed-loop thread its own Client.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/wire.h"

namespace payg::server {

class Client {
 public:
  static Result<std::unique_ptr<Client>> ConnectUnix(const std::string& path);
  static Result<std::unique_ptr<Client>> ConnectTcp(int port);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends `req` and reads its response, recording last_code/last_query_id.
  // `req.deadline_us` is a per-request budget in microseconds (0 = none),
  // measured by the server from receipt. Errors come back as the engine
  // Status for codes < 100; server-shell codes map to ResourceExhausted
  // (kOverloaded), DeadlineExceeded (kShedDeadline) and InvalidArgument
  // (kBadRequest) — last_code() keeps the exact wire code for callers that
  // need to tell them apart. The response's Answer field named by
  // wire::AggregateOf(req.op) holds the result.
  Result<wire::Response> Call(const wire::Request& req);

  Status Ping();
  // Asks the server to export metrics.json/.prom into its stats dir.
  Status DumpStats();

  // Point lookups, the shapes the server batches.
  Result<QueryResult> SelectByValue(const std::string& table,
                                    const std::string& column,
                                    const Value& value,
                                    const std::vector<std::string>&
                                        select_columns,
                                    uint64_t deadline_us = 0);
  Result<uint64_t> CountByValue(const std::string& table,
                                const std::string& column, const Value& value,
                                uint64_t deadline_us = 0);

  // Wire code and server query id of the most recent round trip.
  wire::Code last_code() const { return last_code_; }
  uint64_t last_query_id() const { return last_query_id_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_;
  wire::Code last_code_ = wire::Code::kOk;
  uint64_t last_query_id_ = 0;
};

}  // namespace payg::server

#endif  // PAYG_SERVER_CLIENT_H_
