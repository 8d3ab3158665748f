#ifndef PAYG_SERVER_SERVER_H_
#define PAYG_SERVER_SERVER_H_

// Network front door (S25): a multi-client TCP/unix-socket server in front
// of one ColumnStore. Architecture:
//
//   acceptor thread ── one session thread per connection
//        │                       │  parse frame, admin ops inline
//        │                       ▼
//        │              bounded admission queue  ── full → shed (kOverloaded)
//        │                       │
//        │                       ▼
//        └──────────── worker pool (worker_threads)
//                                │  deadline-expired in queue → kShedDeadline
//                                │  batchable same-key neighbours → one
//                                │  Table::RunBatch executor task
//                                ▼
//                       session thread writes the response frame
//
// Lock order: a worker never holds queue_mu_ while executing a query (the
// executor takes its own locks); per-request mu is leaf-level. sessions_mu_
// and queue_mu_ are never held together.

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/column_store.h"
#include "exec/exec_context.h"
#include "obs/metrics.h"
#include "server/wire.h"

namespace payg::server {

// Knobs, each with a PAYG_SERVER_* env override (see FromEnv).
struct ServerOptions {
  // Non-empty: listen on this unix socket path (unlinked and re-created).
  // Empty: listen on 127.0.0.1:tcp_port (0 = kernel-assigned; read the
  // resolved port from Server::port() after Start).
  std::string unix_path;
  int tcp_port = 0;
  // Admission control.
  uint32_t max_sessions = 64;     // concurrent connections before reject
  uint32_t queue_capacity = 256;  // queued requests before kOverloaded shed
  uint32_t worker_threads = 4;    // executor-facing consumers
  // Batching stage.
  uint32_t max_batch = 64;       // probes coalesced per executor task; 1
                                 // disables batching entirely
  uint32_t batch_window_us = 0;  // extra wait for batch mates after the
                                 // first batchable request is popped; 0 =
                                 // opportunistic only (coalesce what is
                                 // already queued, never delay)
  // Target directory of the kDumpStats admin op (metrics.json/.prom).
  std::string stats_dir = "payg_stats";

  // Reads PAYG_SERVER_SOCKET, PAYG_SERVER_PORT, PAYG_SERVER_MAX_SESSIONS,
  // PAYG_SERVER_QUEUE, PAYG_SERVER_WORKERS, PAYG_SERVER_MAX_BATCH,
  // PAYG_SERVER_BATCH_WINDOW_US and PAYG_STATS_DIR over the defaults above.
  static ServerOptions FromEnv();
};

class Server {
 public:
  // `store` must outlive the server. Does not listen yet.
  Server(ColumnStore* store, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts acceptor + workers. Also arms StatsDumper
  // from the environment (idempotent) so a server process exports metrics
  // without an embedding ColumnStore::Open having done it.
  Status Start();

  // Stops accepting, drains the queue (queued requests are completed or
  // shed, never lost), closes every session and joins all threads.
  // Idempotent.
  void Stop();

  // Resolved listen address, valid after Start().
  int port() const { return port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  const ServerOptions& options() const { return options_; }

 private:
  // One queued query request. The session thread blocks on `cv` until a
  // worker (or the shed path) publishes `resp` and flips `done`.
  struct Pending {
    wire::Request req;
    ExecContext::Clock::time_point arrival;
    ExecContext::Clock::time_point deadline;  // max() = none
    Mutex mu;
    CondVar cv;
    bool done GUARDED_BY(mu) = false;
    wire::Response resp GUARDED_BY(mu);
  };

  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  Status Listen();
  void AcceptLoop();
  void SessionLoop(Session* session);
  void WorkerLoop();

  // Handles one decoded request on the session thread: admin ops inline,
  // query ops through the queue. Returns the response to frame back.
  wire::Response Dispatch(const wire::Request& req);

  // Executes one non-batchable request against the store as one
  // Table::Run of wire::ToQuery(req). `deadline` is the request's absolute
  // deadline (max() = none), already queue-checked.
  wire::Response ExecuteSingle(const wire::Request& req,
                               ExecContext::Clock::time_point deadline);

  // Pulls every queued request sharing the lead's batch key into `batch`,
  // up to options_.max_batch, preserving queue order for the rest.
  void CollectBatchLocked(const wire::Request& lead,
                          std::vector<Pending*>* batch) REQUIRES(queue_mu_);

  // Executes a batch of batchable requests sharing one key (op, table,
  // column, select_columns) as one Table::RunBatch call and completes every
  // member. A member that fails Table::Validate fails alone.
  void ExecuteBatch(std::vector<Pending*>& batch);

  void Complete(Pending* p, wire::Response resp);

  // True when `b` can join a batch led by `a`.
  static bool SameBatchKey(const wire::Request& a, const wire::Request& b);

  ColumnStore* const store_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;

  Mutex queue_mu_;
  CondVar queue_cv_ /* signalled on push and on stop */;
  std::deque<Pending*> queue_ GUARDED_BY(queue_mu_);
  bool stopping_ GUARDED_BY(queue_mu_) = false;

  Mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_ GUARDED_BY(sessions_mu_);

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_accept_{false};

  // server.* metric family (resolved once; registry pointers are stable).
  obs::Counter* accepted_;
  obs::Counter* rejected_sessions_;
  obs::Gauge* active_sessions_;
  obs::Counter* requests_;
  obs::Gauge* queue_depth_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* request_latency_us_;
  obs::Counter* batches_;
  obs::Histogram* batch_size_;
  obs::Counter* shed_;
  obs::Counter* shed_overload_;
  obs::Counter* shed_deadline_;
};

}  // namespace payg::server

#endif  // PAYG_SERVER_SERVER_H_
