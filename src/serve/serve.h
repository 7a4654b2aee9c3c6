#ifndef ADJ_SERVE_SERVE_H_
#define ADJ_SERVE_SERVE_H_

/// The async serving layer — include this one header to run a server
/// (see docs/SERVING.md for the full semantics):
///
///   api::Database db = *api::Database::OpenBuiltin("LJ", 0.2);
///   serve::ServerOptions options;
///   options.worker_threads = 8;
///   options.queue_capacity = 128;
///   serve::Server server(std::move(db), options);
///
///   auto future = server.Submit("G(a,b) G(b,c) G(a,c)",
///                               {.deadline_seconds = 0.5});
///   if (future.ok()) api::Result r = future->get();
///
/// One Server owns one api::Database and serves many clients: requests
/// are admitted onto a bounded two-lane queue (reject-with-backpressure
/// when full, round-robin fairness between the single-query and batch
/// lanes), executed by a dist::ThreadPool, and answered from a bounded
/// LRU cache of prepared plans keyed by normalized query text — the
/// first request for a query pays planning, repeats run the cached
/// ExecutionContext at O(query) cost until a write bumps the version
/// of a relation the plan reads and invalidates the entry.
#include "serve/admission_queue.h"
#include "serve/prepared_query_cache.h"
#include "serve/server.h"

#endif  // ADJ_SERVE_SERVE_H_
