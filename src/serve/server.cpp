#include "serve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>

#include "spice/netlist.hpp"

namespace vsstat::serve {

namespace {

/// Writes the whole buffer, retrying on partial writes and EINTR.  Returns
/// false when the peer is gone (the campaign keeps running; its frames are
/// simply dropped -- a disconnect must not abort shared-pool work).
bool writeAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data, size, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

CampaignServer::CampaignServer() = default;

CampaignServer::~CampaignServer() {
  stop();
  if (listenFd_ >= 0) ::close(listenFd_);
}

void CampaignServer::handleLine(const std::string& line,
                                const FrameSink& emit) {
  if (line.find_first_not_of(" \t\r") == std::string::npos) return;
  std::string id;
  try {
    const JsonValue doc = parseJson(line);
    // Best-effort id echo for error frames emitted after this point.
    if (const JsonValue* idValue = doc.find("id");
        idValue != nullptr && idValue->kind == JsonValue::Kind::string)
      id = idValue->string;
    CampaignRequest request = parseCampaignRequest(doc);
    // Warm path: the deck-plan cache skips the deck parse, the pool cache
    // skips the session builds -- a repeat topology goes straight to its
    // first chunk.  A cold one hashes and parses its deck text once here,
    // and its workers instantiate the parsed Deck.
    std::shared_ptr<const DeckPlan> deck = cache_.deckPlan(request.deck);
    const CampaignPlan plan(std::move(request), std::move(deck));
    const SessionCache::Acquired acquired = cache_.acquire(plan);
    (void)plan.run(*acquired.pool, emit, acquired.warm);
  } catch (const JsonParseError& e) {
    emit(errorFrame(id, RequestError::badJson, e.what()));
  } catch (const spice::NetlistParseError& e) {
    emit(errorFrame(id, RequestError::deckError, e.message(), e.line()));
  } catch (const RequestValidationError& e) {
    emit(errorFrame(id, e.code(), e.what()));
  } catch (const std::exception& e) {
    emit(errorFrame(id, RequestError::campaignError, e.what()));
  }
}

void CampaignServer::listenUnix(const std::string& path) {
  require(listenFd_ < 0, "CampaignServer: already listening");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof(addr.sun_path),
          "CampaignServer: socket path too long");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "CampaignServer: socket() failed");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    require(false, "CampaignServer: bind/listen on '" + path + "' failed");
  }
  listenFd_ = fd;
}

int CampaignServer::listenTcp(int port) {
  require(listenFd_ < 0, "CampaignServer: already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd >= 0, "CampaignServer: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    require(false, "CampaignServer: bind/listen on 127.0.0.1:" +
                       std::to_string(port) + " failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listenFd_ = fd;
  return static_cast<int>(ntohs(bound.sin_port));
}

void CampaignServer::serve() {
  require(listenFd_ >= 0, "CampaignServer: listen before serve");
  // stop() is sticky: one that landed before this call returns it at once.
  // A later stop() shuts the listening socket down, which fails the
  // blocked accept().
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) break;
    }
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listening socket shut down by stop()
    }
    joinFinishedHandlers();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      ::close(fd);
      break;
    }
    connections_.push_back(fd);
    Handler& handler = handlers_.emplace_back();
    handler.thread =
        std::thread([this, fd, &handler] { handleConnection(fd, handler); });
  }
  // Drain handler threads so serve() returns with everything quiesced.
  std::list<Handler> handlers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    handlers.swap(handlers_);
  }
  for (Handler& h : handlers) h.thread.join();
}

void CampaignServer::joinFinishedHandlers() {
  // A finished handler has made its last access to its node, so the node
  // can leave the list (splice relocates nothing) and be joined unlocked.
  std::list<Handler> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = handlers_.begin(); it != handlers_.end();) {
      const auto next = std::next(it);
      if (it->finished) finished.splice(finished.end(), handlers_, it);
      it = next;
    }
  }
  for (Handler& h : finished) h.thread.join();
}

void CampaignServer::stop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stopped_ = true;
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  for (const int fd : connections_) ::shutdown(fd, SHUT_RDWR);
}

void CampaignServer::handleConnection(int fd, Handler& self) {
  const FrameSink emit = [fd](const std::string& frame) {
    const std::string line = frame + "\n";
    writeAll(fd, line.data(), line.size());
  };

  // Framing: each recv'd chunk is searched for newlines once, and the
  // current line collects the bytes before them.  A line that outgrows
  // kMaxRequestLineBytes is answered with one error frame at once; its
  // remaining bytes are dropped up to its newline.
  std::string line;
  bool overLong = false;
  std::vector<char> chunk(std::size_t{64} << 10);
  while (true) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const char* p = chunk.data();
    const char* const end = p + n;
    while (p != end) {
      const auto* newline = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      const char* const stop = newline != nullptr ? newline : end;
      const auto bytes = static_cast<std::size_t>(stop - p);
      if (!overLong && bytes > kMaxRequestLineBytes - line.size()) {
        overLong = true;
        std::string().swap(line);
        emit(errorFrame("", RequestError::badRequest,
                        "request line longer than " +
                            std::to_string(kMaxRequestLineBytes) +
                            " bytes"));
      }
      if (!overLong) line.append(p, bytes);
      if (newline == nullptr) break;
      if (!overLong) handleLine(line, emit);
      line.clear();
      overLong = false;
      p = newline + 1;
    }
  }
  // Unregister before closing: once closed, accept() may hand the same fd
  // number to a new client, whose entry the erase would then remove too.
  // Marking the handler finished here, before the peer can see the close,
  // lets the next accepted connection join it.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), fd),
        connections_.end());
    self.finished = true;
  }
  ::close(fd);
}

}  // namespace vsstat::serve
