#include "serve/service.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/query.h"

namespace bgpolicy::serve {

namespace {

Frame error_frame(const Frame& request, std::string_view message) {
  Frame response;
  response.kind = static_cast<std::uint16_t>(request.kind | kResponseBit);
  response.request_id = request.request_id;
  response.payload = error_response(message);
  return response;
}

}  // namespace

QueryService::QueryService(SnapshotRegistry& registry, ServiceConfig config)
    : registry_(&registry), config_(config) {
  if (config_.threads == 0) {
    config_.threads = std::thread::hardware_concurrency();
    if (config_.threads == 0) config_.threads = 1;
  }
}

QueryService::~QueryService() { stop(); }

void QueryService::start() {
  if (running()) throw std::runtime_error("QueryService already started");
  listen_.emplace(config_.port);
  loops_.clear();
  loops_.reserve(config_.threads);
  for (std::size_t i = 0; i < config_.threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(
        listen_->fd(), [this](const Frame& request) { return handle(request); },
        config_.loop));
  }
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
}

void QueryService::stop() {
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  if (!loops_.empty()) final_stats_ = stats();
  threads_.clear();
  loops_.clear();
  listen_.reset();
}

std::uint16_t QueryService::port() const {
  if (!listen_) throw std::runtime_error("QueryService not started");
  return listen_->port();
}

EventLoopStats QueryService::stats() const {
  if (loops_.empty()) return final_stats_;
  EventLoopStats total;
  for (const auto& loop : loops_) {
    const EventLoopStats s = loop->stats();
    total.accepted += s.accepted;
    total.closed += s.closed;
    total.frames_in += s.frames_in;
    total.frames_out += s.frames_out;
    total.malformed_closes += s.malformed_closes;
    total.read_pauses += s.read_pauses;
    total.accept_pauses += s.accept_pauses;
  }
  return total;
}

Frame QueryService::handle(const Frame& request) const {
  if (!known_kind(request.kind)) {
    return error_frame(request, "unknown query kind");
  }
  // ONE registry load per request: the whole answer reads a single
  // snapshot even if a refresh publishes a newer one mid-evaluation.
  const std::shared_ptr<const Snapshot> snapshot = registry_->current();
  if (!snapshot) {
    return error_frame(request, "no snapshot published yet");
  }
  Frame response;
  response.kind = static_cast<std::uint16_t>(request.kind | kResponseBit);
  response.request_id = request.request_id;
  response.payload = answer(static_cast<QueryKind>(request.kind),
                            request.payload, *snapshot);
  return response;
}

}  // namespace bgpolicy::serve
