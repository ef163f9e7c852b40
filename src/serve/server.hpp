// Campaign server: netlist-in, statistics-out daemon.
//
// Wire protocol (line-delimited JSON over a unix-domain or local TCP
// socket): each inbound line is one campaign request (serve/request.hpp
// schema); the server answers with a stream of frames (serve/stream.hpp
// schemas) -- progress every stream_every samples, optional KDE snapshots,
// then exactly one final or error frame -- and keeps the connection open
// for the next request.  Try it:
//
//   echo '{"deck":"...","measure":{"probes":["out"]}}' | nc -U /tmp/vsstat.sock
//
// Concurrency model: one handler thread per connection; concurrent
// campaigns share the process-wide util::ThreadPool, interleaving at chunk
// granularity (the stream_every chunks of mc::runCampaign), and lease
// worker sessions from the multi-tenant SessionCache -- a repeat
// topology+options request goes warm.  The protocol core (handleLine) is
// socket-free so tests and benches drive it in-process.
#ifndef VSSTAT_SERVE_SERVER_HPP
#define VSSTAT_SERVE_SERVER_HPP

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/session_cache.hpp"

namespace vsstat::serve {

class CampaignServer {
 public:
  struct Options {
    /// Session-cache capacity (distinct warm topology+options entries).
    std::size_t cacheCapacity = 8;
  };

  CampaignServer();
  explicit CampaignServer(Options options);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Protocol core, socket-free: handles one request line, emitting every
  /// response frame (no trailing newline) through `emit` on this thread.
  /// Blank lines are ignored; all failures become error frames -- this
  /// never throws on bad input.  Thread-safe: concurrent calls run
  /// concurrent campaigns against the shared cache.
  void handleLine(const std::string& line, const FrameSink& emit);

  /// Binds a unix-domain listening socket at `path` (an existing socket
  /// file is replaced).  Call serve() afterwards.
  void listenUnix(const std::string& path);

  /// Binds a TCP listening socket on 127.0.0.1 (loopback only); port 0
  /// picks an ephemeral port.  Returns the bound port.
  int listenTcp(int port);

  /// Accept loop: serves connections until stop() is called from another
  /// thread.  One thread per connection.
  void serve();

  /// Stops the accept loop and shuts down every live connection; serve()
  /// returns and joins its handler threads.  Idempotent and sticky: a
  /// stop() before serve() makes serve() return at once.
  void stop();

  [[nodiscard]] SessionCache& cache() noexcept { return cache_; }

 private:
  void handleConnection(int fd);

  SessionCache cache_;
  int listenFd_ = -1;
  std::mutex mutex_;  ///< guards stopped_, connections_ and threads_
  bool stopped_ = false;  ///< set by stop(), never cleared
  std::vector<int> connections_;
  std::vector<std::thread> threads_;
};

}  // namespace vsstat::serve

#endif  // VSSTAT_SERVE_SERVER_HPP
