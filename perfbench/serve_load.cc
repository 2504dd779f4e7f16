// The serving workloads: a self-hosted serve::QueryService on loopback,
// driven by a single-threaded open-loop generator.
//
//   serve_light  only microsecond query kinds: latency at one fixed
//                offered rate, then a rate ladder for capacity.
//   serve_mixed  one fixed offered rate with a seeded share of heavy
//                kinds, while a refresher republishes the snapshot from
//                the artifact store at a fixed cadence.
//
// Shape: one event-loop thread, so the kernel's assignment of connections
// to loops cannot change results, plus one generator thread — two threads
// however many CPUs the host has (the refresher is a third, in
// serve_mixed only); the generator has a CPU of its own (CpuSplit).
// Every reply is checked byte for byte against
// serve::answer computed once per distinct request on a separate snapshot
// instance, so the served snapshot's what-if cache starts cold as it does
// in a fresh daemon.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "core/artifact_store.h"
#include "serve/frame.h"
#include "serve/query.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bgpolicy;

namespace {

// Fixed load shape: parent and child commits are offered identical load.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kConnections = 16;
/// serve_light: the fixed offered rate for p50/p99, and the capacity ladder
/// with its p99 latency limit.  At a quarter to a third of capacity the
/// loop rarely sleeps between requests; at 8000/s its p50 followed how fast
/// the host woke an idle CPU (quartile spread 0.24 over five seeds), while
/// six runs at this rate stayed within 5% of each other.
constexpr double kLightRate = 30000.0;
/// Rung k of the ladder offers kLadderBase * kLadderStep^k requests/s.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderStep = 1.1;
constexpr int kLadderRungs = 64;
/// Loose enough that the millisecond stalls of a shared virtualised host
/// pass.  A rung also fails when more than this much offered work is still
/// unanswered as its last request is sent (a growing backlog).
constexpr double kLightLimitMs = 20.0;
constexpr double kRungSeconds = 0.25;
/// Capacity is the best of this many searches, each after one part of the
/// fixed-rate phase: one search's rung follows the host's load during its
/// two seconds.
constexpr int kCapacitySearches = 8;
/// serve_mixed: offered rate, heavy share (every kHeavyEvery-th request,
/// about 3 a second), and the refresher's cadence.
constexpr double kMixedRate = 400.0;
constexpr std::size_t kHeavyEvery = 128;
constexpr double kRefreshEverySeconds = 4.0;
/// Catalog sizes.
constexpr std::size_t kHomingPrefixes = 32;
constexpr std::size_t kRerunVariants = 2;
constexpr std::size_t kWhatIfRequests = 8;
constexpr std::size_t kWhatIfPrefixes = 64;
/// Seconds the generator waits for outstanding replies after the last
/// request was due; replies still missing then count as failed.
constexpr double kDrainSeconds = 10.0;
/// The generator busy-waits for requests due within this many seconds.
constexpr double kSpinSeconds = 0.002;

// ---------------------------------------------------------------- catalog --

struct Request {
  serve::QueryKind kind = serve::QueryKind::kServerInfo;
  bool heavy = false;
  std::vector<std::uint8_t> payload;
  /// serve::answer on the reference instance; server_info is checked
  /// structurally instead (its body carries the snapshot version).
  std::vector<std::uint8_t> expected;
  /// The direct serve::answer time on the reference instance.
  double answer_s = 0.0;
};

struct Catalog {
  std::vector<Request> requests;
  std::vector<std::size_t> light;
  /// Heavy requests by kind: path_availability, rerun_infer, what_if.
  std::array<std::vector<std::size_t>, 3> heavy;
  std::string analyses_digest;
  std::string scenario_key;
};

Catalog build_catalog(const serve::Snapshot& reference, const Options& options,
                      Tracer* tracer, Record& record) {
  Catalog catalog;
  catalog.analyses_digest = reference.analyses_digest;
  catalog.scenario_key = reference.scenario_key;
  util::Rng rng(options.seed ^ 0x5e17e5eedULL);
  const auto add = [&](serve::QueryKind kind, std::vector<std::uint8_t> payload,
                       int heavy_slot) {
    Request request;
    request.kind = kind;
    request.heavy = heavy_slot >= 0;
    request.payload = std::move(payload);
    const std::size_t index = catalog.requests.size();
    (heavy_slot >= 0 ? catalog.heavy[heavy_slot] : catalog.light)
        .push_back(index);
    catalog.requests.push_back(std::move(request));
  };

  add(serve::QueryKind::kServerInfo, serve::encode_server_info_request(), -1);
  std::vector<util::AsNumber> looking_glasses;
  for (const core::VantageAnalysis& vantage : reference.analyses.vantages) {
    add(serve::QueryKind::kSaPrevalence,
        serve::encode_as_request(vantage.vantage), -1);
    add(serve::QueryKind::kCauses, serve::encode_as_request(vantage.vantage),
        -1);
    if (vantage.looking_glass) looking_glasses.push_back(vantage.vantage);
  }
  const core::PathIndex& paths = reference.observations.paths;
  std::unordered_set<bgp::Prefix> homing;
  for (std::size_t i = 0; i < 4 * kHomingPrefixes && paths.path_count() > 0 &&
                          homing.size() < kHomingPrefixes;
       ++i) {
    const bgp::Prefix prefix = paths.prefix_at(rng.index(paths.path_count()));
    if (homing.insert(prefix).second) {
      add(serve::QueryKind::kHoming, serve::encode_prefix_request(prefix), -1);
    }
  }

  // The Tier-1 looking glasses are left out of path_availability: each of
  // their answers takes 0.2-0.7 s, so whether the seed draws one would
  // decide the mix's tail on its own.
  const std::vector<std::uint32_t> tier1 = core::Scenario::focus_tier1();
  for (const util::AsNumber vantage : looking_glasses) {
    if (std::find(tier1.begin(), tier1.end(), vantage.value()) !=
        tier1.end()) {
      continue;
    }
    add(serve::QueryKind::kPathAvailability, serve::encode_as_request(vantage),
        0);
  }
  for (std::size_t i = 0; i < kRerunVariants; ++i) {
    asrel::GaoParams params;
    params.peer_degree_ratio = 40.0 + static_cast<double>(rng.index(41));
    params.sibling_balance = 0.4 + 0.05 * static_cast<double>(rng.index(5));
    add(serve::QueryKind::kRerunInfer, serve::encode_infer_request(params), 1);
  }
  const core::GroundTruth& truth = *reference.truth;
  const auto edges = truth.topo.graph.edges();
  for (std::size_t i = 0; i < kWhatIfRequests && !looking_glasses.empty();
       ++i) {
    const util::AsNumber vantage =
        looking_glasses[rng.index(looking_glasses.size())];
    const topo::EdgeRecord& edge = edges[rng.index(edges.size())];
    const std::vector<std::pair<util::AsNumber, util::AsNumber>> failed = {
        {edge.a, edge.b}};
    std::vector<bgp::Prefix> filter;
    for (std::size_t k = 0; k < kWhatIfPrefixes; ++k) {
      const bgp::Prefix prefix =
          truth.originations[rng.index(truth.originations.size())].prefix;
      if (std::find(filter.begin(), filter.end(), prefix) == filter.end()) {
        filter.push_back(prefix);
      }
    }
    add(serve::QueryKind::kWhatIfFailure,
        serve::encode_what_if_request(vantage, failed, filter), 2);
  }

  // Expected replies, once per distinct request, outside any timed window.
  for (Request& request : catalog.requests) {
    const auto start = Clock::now();
    {
      Tracer::Scope span(
          tracer, std::string("serve.answer.") + serve::to_string(request.kind),
          "serve");
      request.expected = serve::answer(request.kind, request.payload, reference);
    }
    request.answer_s = seconds_since(start);
    const auto view = serve::split_response(request.expected);
    record.check(view && view->status == serve::QueryStatus::kOk,
                 std::string("reference answer is an error for ") +
                     serve::to_string(request.kind));
  }
  return catalog;
}

bool reply_ok(const Catalog& catalog, const Request& request,
              const serve::Frame& reply) {
  if (reply.kind !=
      (static_cast<std::uint16_t>(request.kind) | serve::kResponseBit)) {
    return false;
  }
  if (request.kind != serve::QueryKind::kServerInfo) {
    return reply.payload == request.expected;
  }
  const auto view = serve::split_response(reply.payload);
  if (!view || view->status != serve::QueryStatus::kOk) return false;
  const auto info = serve::decode_server_info(view->body);
  return info && info->version >= 1 &&
         info->analyses_digest == catalog.analyses_digest &&
         info->scenario_key == catalog.scenario_key;
}

// -------------------------------------------------------------- generator --

struct Outcome {
  std::size_t request = 0;
  double latency_ms = 0.0;  ///< reply time minus due time
  double late_ms = 0.0;     ///< send time minus due time
  bool ok = false;
  Clock::time_point due;
  Clock::time_point done;
};

struct Phase {
  std::vector<Outcome> outcomes;
  /// Replies per second from the first due time to the last reply.
  double achieved_qps = 0.0;
  /// Requests unanswered when the last request fell due.
  std::size_t backlog_at_last_due = 0;
  /// Replies per second within the send window (first to last due time).
  double kept_up_qps = 0.0;
  std::uint64_t failed = 0;
};

timespec to_timespec(Clock::time_point t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  return timespec{static_cast<time_t>(ns / 1'000'000'000),
                  static_cast<long>(ns % 1'000'000'000)};
}

// ------------------------------------------------------------ CPU split --

/// The generator runs on the first CPU this process may use, and the
/// service's event loop and the refresher on the others, so the spinning
/// generator never shares a CPU with the loop.  Left to the scheduler, the
/// woken loop thread sometimes ran beside the generator, and a run's p50
/// and capacity then followed where it landed.
struct CpuSplit {
  cpu_set_t generator;
  cpu_set_t service;
};

const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    CpuSplit s;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      throw std::runtime_error("sched_getaffinity");
    }
    CPU_ZERO(&s.generator);
    s.service = allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        CPU_SET(cpu, &s.generator);
        CPU_CLR(cpu, &s.service);
        break;
      }
    }
    if (CPU_COUNT(&s.service) == 0) {
      throw std::runtime_error("the generator and the event loop need 2 CPUs");
    }
    return s;
  }();
  return split;
}

/// Restricts the calling thread to `cpus` for the scope; threads it starts
/// meanwhile inherit the restriction.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const cpu_set_t& cpus) {
    if (::pthread_getaffinity_np(::pthread_self(), sizeof saved_, &saved_) !=
            0 ||
        ::pthread_setaffinity_np(::pthread_self(), sizeof cpus, &cpus) != 0) {
      throw std::runtime_error("pthread_setaffinity_np");
    }
  }
  ~ScopedAffinity() {
    ::pthread_setaffinity_np(::pthread_self(), sizeof saved_, &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  cpu_set_t saved_;
};

/// Open-loop load generator on the calling thread: requests are sent when
/// due whatever the replies do and timed from their due time.  Each
/// connection carries one request at a time, as serve::BlockingClient and
/// the daemon's tools use a connection; a request due while every
/// connection is busy waits in the generator, its latency still counting
/// from its due time.
class Generator {
 public:
  Generator(std::uint16_t port, std::size_t connections) {
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epoll_ < 0 || timer_ < 0) throw std::runtime_error("epoll/timerfd");
    watch(timer_, EPOLLIN, kTimerTag);
    conns_.resize(connections);
    for (std::size_t i = 0; i < connections; ++i) {
      Conn& c = conns_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 ||
          ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("connect to query service failed");
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) {
        throw std::runtime_error("O_NONBLOCK");
      }
      watch(c.fd, EPOLLIN, i);
    }
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (timer_ >= 0) ::close(timer_);
    if (epoll_ >= 0) ::close(epoll_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Offers schedule[i] at start + i / rate and collects every reply (or
  /// gives up kDrainSeconds after the last one was due).  With a tracer,
  /// each reply records its request's span (due time to reply) under
  /// `parent` as it arrives.
  Phase run(const Catalog& catalog, const std::vector<std::size_t>& schedule,
            double rate, Tracer* tracer = nullptr, std::uint64_t parent = 0) {
    const ScopedAffinity pinned(cpu_split().generator);
    const std::size_t n = schedule.size();
    Phase phase;
    phase.outcomes.resize(n);
    std::vector<Clock::time_point> due(n);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(i) / rate));
      phase.outcomes[i].request = schedule[i];
      phase.outcomes[i].due = due[i];
    }
    const auto give_up =
        (n ? due[n - 1] : start) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kDrainSeconds));
    const std::uint64_t first_id = next_id_;
    std::vector<bool> answered(n, false);
    std::size_t sent = 0;
    std::size_t received = 0;
    std::array<epoll_event, 64> events{};
    bool past_last_due = false;
    while (received < n) {
      auto now = Clock::now();
      if (!past_last_due && n > 0 && now >= due[n - 1]) {
        past_last_due = true;
        phase.backlog_at_last_due = n - received;
      }
      while (sent < n && due[sent] <= now) {
        Conn* c = idle();
        if (c == nullptr) break;  // every connection busy
        const Request& request = catalog.requests[schedule[sent]];
        serve::Frame frame;
        frame.kind = static_cast<std::uint16_t>(request.kind);
        frame.request_id = next_id_++;
        frame.payload = request.payload;
        serve::append_frame(c->out, frame);
        c->busy = true;
        phase.outcomes[sent].late_ms = seconds_between(due[sent], now) * 1e3;
        ++sent;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) flush(i);
      if (now >= give_up) break;
      // Spin while a request is due within kSpinSeconds (or waits for a
      // connection): a sleeping generator wakes late on a virtualised
      // host, and that lateness would be charged to the service.
      const Clock::time_point wake = sent < n ? due[sent] : give_up;
      const bool spin = seconds_between(now, wake) < kSpinSeconds;
      if (!spin) {
        itimerspec spec{};
        spec.it_value = to_timespec(wake - std::chrono::duration_cast<
                                               Clock::duration>(
                                               std::chrono::duration<double>(
                                                   kSpinSeconds / 2)));
        ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
      }
      const int ready = ::epoll_wait(epoll_, events.data(),
                                     static_cast<int>(events.size()),
                                     spin ? 0 : -1);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("epoll_wait");
      for (int e = 0; e < ready; ++e) {
        const std::uint64_t tag = events[e].data.u64;
        if (tag == kTimerTag) {
          std::uint64_t expirations = 0;
          (void)!::read(timer_, &expirations, sizeof expirations);
          continue;
        }
        Conn& c = conns_[tag];
        if (events[e].events & EPOLLOUT) flush(tag);
        if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
        for (;;) {
          const ssize_t got = ::read(c.fd, buffer_.data(), buffer_.size());
          if (got <= 0) break;
          const auto arrived = Clock::now();
          c.reader.feed(
              std::span(buffer_.data(), static_cast<std::size_t>(got)));
          while (auto reply = c.reader.next()) {
            const std::uint64_t index = reply->request_id - first_id;
            if (reply->request_id < first_id || index >= sent ||
                answered[index]) {
              ++phase.failed;  // a reply nobody asked for
              continue;
            }
            answered[index] = true;
            c.busy = false;
            ++received;
            Outcome& outcome = phase.outcomes[index];
            outcome.done = arrived;
            outcome.latency_ms = seconds_between(outcome.due, arrived) * 1e3;
            outcome.ok = reply_ok(catalog,
                                  catalog.requests[outcome.request], *reply);
            if (tracer != nullptr) {
              tracer->add("serve.request", "serve", outcome.due, arrived,
                          parent, index + 1);
            }
          }
          if (c.reader.malformed()) throw std::runtime_error("malformed reply");
        }
      }
    }
    Clock::time_point last = start;
    for (std::size_t i = 0; i < n; ++i) {
      if (!answered[i]) {
        phase.outcomes[i].ok = false;
        phase.outcomes[i].latency_ms = kDrainSeconds * 1e3;
      } else {
        last = std::max(last, phase.outcomes[i].done);
      }
    }
    for (const Outcome& outcome : phase.outcomes) {
      if (!outcome.ok) ++phase.failed;
    }
    if (!past_last_due) phase.backlog_at_last_due = n - received;
    const double span = n ? seconds_between(due[0], last) : 0.0;
    phase.achieved_qps =
        span > 0 ? static_cast<double>(received) / span : 0.0;
    const double window = n > 1 ? seconds_between(due[0], due[n - 1]) : 0.0;
    phase.kept_up_qps =
        window > 0 ? static_cast<double>(n - phase.backlog_at_last_due) /
                         window
                   : 0.0;
    // A phase that gave up on a reply must not leave its connection busy
    // for the next; the late reply is then a failure of the next phase.
    for (Conn& c : conns_) c.busy = false;
    return phase;
  }

 private:
  static constexpr std::uint64_t kTimerTag = ~0ULL;

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_pos = 0;
    bool want_write = false;
    bool busy = false;  ///< a request sent, its reply not yet read
    serve::FrameReader reader;
  };

  void watch(int fd, std::uint32_t events, std::uint64_t tag) {
    epoll_event event{};
    event.events = events;
    event.data.u64 = tag;
    if (::epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &event) != 0) {
      throw std::runtime_error("epoll_ctl");
    }
  }

  /// The first idle connection; null when every one is busy.
  Conn* idle() {
    for (Conn& c : conns_) {
      if (!c.busy) return &c;
    }
    return nullptr;
  }

  void flush(std::size_t i) {
    Conn& c = conns_[i];
    while (c.out_pos < c.out.size()) {
      const ssize_t put = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (put <= 0) break;
      c.out_pos += static_cast<std::size_t>(put);
    }
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
    const bool want = c.out_pos < c.out.size();
    if (want != c.want_write) {
      epoll_event event{};
      event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      event.data.u64 = i;
      ::epoll_ctl(epoll_, EPOLL_CTL_MOD, c.fd, &event);
      c.want_write = want;
    }
  }

  int epoll_ = -1;
  int timer_ = -1;
  std::vector<Conn> conns_;
  std::vector<std::uint8_t> buffer_ = std::vector<std::uint8_t>(64 * 1024);
  std::uint64_t next_id_ = 1;
};


// ------------------------------------------------------------------ server --

core::RunOptions build_options(core::ArtifactStore* store,
                               std::size_t threads) {
  core::RunOptions run;
  run.threads = threads;
  run.store = store;
  return run;
}

/// The served side: a registry and a one-loop service over it.
struct Server {
  serve::SnapshotRegistry registry;
  std::unique_ptr<serve::QueryService> service;
};

/// Set-up as a fresh daemon pays it: a cold snapshot build (which also
/// fills the store the refresher and the reference instance decode from)
/// plus service start.  Returns the seconds taken.
double set_up(const Options& options, const core::Scenario& scenario,
              const fs::path& store_dir, std::unique_ptr<Server>& server,
              Tracer* tracer, Record& record) {
  server.reset();
  fs::remove_all(store_dir);
  core::ArtifactStore store(store_dir);
  const auto start = Clock::now();
  auto fresh = std::make_unique<Server>();
  {
    const auto t0 = Clock::now();
    Tracer::Scope span(tracer, "serve.build_snapshot", "serve");
    fresh->registry.publish(serve::build_snapshot(
        scenario, build_options(&store, options.nproc)));
    if (tracer) record.add("serve.snapshot_build_s", seconds_since(t0), "s");
  }
  {
    Tracer::Scope span(tracer, "serve.service_start", "serve");
    serve::ServiceConfig config;
    config.threads = 1;
    fresh->service =
        std::make_unique<serve::QueryService>(fresh->registry, config);
    const ScopedAffinity away(cpu_split().service);
    fresh->service->start();
  }
  const double seconds = seconds_since(start);
  server = std::move(fresh);
  return seconds;
}

/// Republishes the snapshot from the store every kRefreshEverySeconds, as
/// `policy_queryd --refresh` does, on its own thread.
class Refresher {
 public:
  Refresher(const core::Scenario& scenario, fs::path store_dir,
            serve::SnapshotRegistry& registry, Tracer* tracer,
            std::uint64_t parent_span)
      : scenario_(scenario),
        store_dir_(std::move(store_dir)),
        registry_(registry),
        tracer_(tracer),
        parent_span_(parent_span),
        thread_([this] { loop(); }) {}
  ~Refresher() { stop(); }
  Refresher(const Refresher&) = delete;
  Refresher& operator=(const Refresher&) = delete;

  void stop() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const std::vector<double>& seconds() const { return seconds_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void loop() {
    try {
      const ScopedAffinity away(cpu_split().service);
      core::ArtifactStore store(store_dir_);
      auto next = Clock::now();
      for (;;) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kRefreshEverySeconds));
        {
          std::unique_lock lock(mutex_);
          if (wake_.wait_until(lock, next, [this] { return stopping_; })) {
            return;
          }
        }
        const auto start = Clock::now();
        registry_.publish(
            serve::build_snapshot(scenario_, build_options(&store, 1)));
        const auto end = Clock::now();
        seconds_.push_back(seconds_between(start, end));
        if (tracer_) {
          tracer_->add("serve.refresh", "serve", start, end, parent_span_);
        }
      }
    } catch (const std::exception& failure) {
      error_ = failure.what();
    }
  }

  const core::Scenario& scenario_;
  fs::path store_dir_;
  serve::SnapshotRegistry& registry_;
  Tracer* tracer_;
  std::uint64_t parent_span_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by mutex_
  std::vector<double> seconds_;
  std::string error_;
  std::thread thread_;  // last: starts after every member it uses
};

// --------------------------------------------------------------- schedules --

std::vector<std::size_t> light_schedule(const Catalog& catalog, std::size_t n,
                                        util::Rng& rng) {
  std::vector<std::size_t> schedule(n);
  for (std::size_t& slot : schedule) {
    slot = catalog.light[rng.index(catalog.light.size())];
  }
  return schedule;
}

/// Every kHeavyEvery-th request is heavy, its kind cycling through
/// path_availability, rerun_infer and what_if_failure; which request of
/// that kind, and every light request, is drawn from the seed.
std::vector<std::size_t> mixed_schedule(const Catalog& catalog, std::size_t n,
                                        util::Rng& rng) {
  std::vector<std::size_t> schedule = light_schedule(catalog, n, rng);
  for (std::size_t i = kHeavyEvery - 1; i < n; i += kHeavyEvery) {
    const auto& pool = catalog.heavy[(i / kHeavyEvery) % catalog.heavy.size()];
    if (!pool.empty()) schedule[i] = pool[rng.index(pool.size())];
  }
  return schedule;
}

std::size_t count_for(double rate, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
}

void tally(const Phase& phase, Record& record) {
  record.attempted += phase.outcomes.size();
  record.failed += phase.failed;
  if (phase.failed > 0 && record.failures.size() < 8) {
    record.failures.push_back(std::to_string(phase.failed) +
                              " serve replies missing or not equal to "
                              "serve::answer");
  }
}

std::vector<double> latencies(const Phase& phase, const Catalog& catalog,
                              int heavy /* -1 any, 0 light, 1 heavy */) {
  std::vector<double> out;
  for (const Outcome& outcome : phase.outcomes) {
    const bool is_heavy = catalog.requests[outcome.request].heavy;
    if (heavy < 0 || (heavy == 1) == is_heavy) out.push_back(outcome.latency_ms);
  }
  return out;
}

double max_late_ms(const Phase& phase) {
  double late = 0.0;
  for (const Outcome& outcome : phase.outcomes) {
    late = std::max(late, outcome.late_ms);
  }
  return late;
}

/// The smoke test's negative control: one expected reply made wrong.
void corrupt_one(Catalog& catalog) {
  for (const std::size_t index : catalog.light) {
    Request& request = catalog.requests[index];
    if (request.kind != serve::QueryKind::kServerInfo &&
        !request.expected.empty()) {
      request.expected.back() ^= 0x5a;
      return;
    }
  }
}

/// Capacity: the highest ladder rate whose p99 stays under the limit with
/// every reply correct and no growing backlog, reported as the replies per
/// second that rung completed within its send window.  The rung is found by
/// bisection over the ladder; a failing rung is tried once more before it
/// counts, so one stall of the host cannot cut the search short.
double capacity(Generator& generator, const Catalog& catalog, util::Rng& rng,
                double rung_seconds, Record& record) {
  const auto passes = [&](double rate, double& kept_up) {
    const Phase phase = generator.run(
        catalog, light_schedule(catalog, count_for(rate, rung_seconds), rng),
        rate);
    tally(phase, record);
    kept_up = phase.kept_up_qps;
    return phase.failed == 0 &&
           percentile(latencies(phase, catalog, -1), 0.99) <= kLightLimitMs &&
           static_cast<double>(phase.backlog_at_last_due) <=
               rate * kLightLimitMs / 1e3;
  };
  int passing = -1;
  int failing = kLadderRungs;
  double best = 0.0;
  while (failing - passing > 1) {
    const int rung = (passing + failing) / 2;
    const double rate = kLadderBase * std::pow(kLadderStep, rung);
    double kept_up = 0.0;
    if (passes(rate, kept_up) || passes(rate, kept_up)) {
      passing = rung;
      best = kept_up;
    } else {
      failing = rung;
    }
  }
  return best;
}

}  // namespace

void serve_workload(const Options& options, bool mixed, Record& record) {
  const core::Scenario scenario = options.scenario();
  const fs::path store_dir = options.work_dir / "serve-store";
  std::unique_ptr<Server> server;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup.push_back(
        set_up(options, scenario, store_dir, server, nullptr, record));
  }

  // The reference instance: decoded from the store, separate from the
  // served snapshot, so serving starts with a cold what-if cache.
  core::ArtifactStore store(store_dir);
  const std::shared_ptr<serve::Snapshot> reference =
      serve::build_snapshot(scenario, build_options(&store, options.nproc));
  Catalog catalog = build_catalog(*reference, options, nullptr, record);
  if (options.corrupt_expected) corrupt_one(catalog);

  util::Rng rng(options.seed);
  Generator generator(server->service->port(), kConnections);
  tally(generator.run(catalog,
                      light_schedule(catalog, count_for(kLightRate, 0.5), rng),
                      kLightRate),
        record);

  double late = 0.0;
  if (!mixed) {
    // The fixed-rate phase is cut into one part before each capacity
    // search, so its latencies sample the whole run, not a few seconds.
    // The end-to-end figures are each the best part or search: the host's
    // other tenants slow a microsecond round trip by a quarter for seconds
    // at a time, so a median over the run follows their load.
    std::vector<double> all;
    std::vector<double> part_p50;
    std::vector<double> achieved;
    std::vector<double> searches;
    for (int i = 0; i < kCapacitySearches; ++i) {
      const Phase fixed = generator.run(
          catalog,
          light_schedule(catalog,
                         count_for(kLightRate, 0.4 * options.seconds /
                                                   kCapacitySearches),
                         rng),
          kLightRate);
      tally(fixed, record);
      const std::vector<double> part = latencies(fixed, catalog, -1);
      part_p50.push_back(percentile(part, 0.50));
      all.insert(all.end(), part.begin(), part.end());
      achieved.push_back(fixed.achieved_qps);
      late = std::max(late, max_late_ms(fixed));
      searches.push_back(capacity(
          generator, catalog, rng,
          std::min(kRungSeconds, 0.1 * options.seconds), record));
    }
    record.add("p50_ms", percentile(part_p50, 0.0), "ms");
    record.add("p90_ms", percentile(all, 0.90), "ms");
    record.add("p99_ms", percentile(all, 0.99), "ms");
    record.add("achieved_qps", median(achieved), "1/s");
    record.add("offered_qps", kLightRate, "1/s");
    record.add("capacity_qps", percentile(searches, 1.0), "1/s");
  } else {
    Phase phase;
    std::vector<double> refreshes;
    {
      Refresher refresher(scenario, store_dir, server->registry, nullptr, 0);
      phase = generator.run(
          catalog,
          mixed_schedule(catalog, count_for(kMixedRate, options.seconds), rng),
          kMixedRate);
      refresher.stop();
      record.check(refresher.error().empty(),
                   "refresh failed: " + refresher.error());
      refreshes = refresher.seconds();
    }
    tally(phase, record);
    const std::vector<double> all = latencies(phase, catalog, -1);
    record.add("p50_ms", percentile(all, 0.50), "ms");
    record.add("p99_ms", percentile(all, 0.99), "ms");
    const std::vector<double> light = latencies(phase, catalog, 0);
    record.add("p90_ms", percentile(all, 0.90), "ms");
    record.add("light_p90_ms", percentile(light, 0.90), "ms");
    record.add("light_p99_ms", percentile(light, 0.99), "ms");
    record.add("heavy_p50_ms", median(latencies(phase, catalog, 1)), "ms");
    record.add("achieved_qps", phase.achieved_qps, "1/s");
    record.add("offered_qps", kMixedRate, "1/s");
    record.add("publishes", static_cast<double>(refreshes.size()), "count");
    late = max_late_ms(phase);
  }
  record.add("setup_s", median(setup), "s");
  record.add("generator_late_ms.max", late, "ms");
  server->service->stop();
  record.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void serve_traced(const Options& options, Tracer& tracer, Record& record) {
  const core::Scenario scenario = options.scenario();
  const fs::path store_dir = options.work_dir / "serve-store";
  std::unique_ptr<Server> server;
  std::vector<double> refreshes;
  {
    Tracer::Scope setup(&tracer, "serve.setup", "bench");
    (void)set_up(options, scenario, store_dir, server, &tracer, record);
  }
  core::ArtifactStore store(store_dir);
  std::shared_ptr<serve::Snapshot> reference;
  Catalog catalog;
  {
    Tracer::Scope root(&tracer, "serve.reference", "bench");
    {
      Tracer::Scope span(&tracer, "serve.build_snapshot.store", "serve");
      reference =
          serve::build_snapshot(scenario, build_options(&store, options.nproc));
    }
    catalog = build_catalog(*reference, options, &tracer, record);
  }

  // Direct answer() timings per kind (first call on the reference
  // instance, whose what-if cache was cold like the served one's).
  std::map<std::string, std::vector<double>> answer_us;
  std::uint64_t wave_events = 0;
  for (const Request& request : catalog.requests) {
    answer_us[serve::to_string(request.kind)].push_back(request.answer_s * 1e6);
    if (request.kind == serve::QueryKind::kWhatIfFailure) {
      const auto view = serve::split_response(request.expected);
      const auto result =
          view ? serve::decode_what_if(view->body) : std::nullopt;
      if (result) wave_events += result->wave_events;
    }
  }
  for (const auto& [kind, samples] : answer_us) {
    record.add("serve.answer_us." + kind + ".p50", median(samples), "us");
    record.add("serve.answer_us." + kind + ".max", percentile(samples, 1.0),
               "us");
  }
  record.add("serve.whatif_wave_events", static_cast<double>(wave_events),
             "count");
  record.add("serve.whatif_base_converged",
             static_cast<double>(reference->what_if->converged_count()),
             "count");

  // Frame codec cost per reply frame (encode + decode), from the outside.
  {
    Tracer::Scope span(&tracer, "serve.frame_codec", "serve");
    constexpr int kRounds = 20;
    std::size_t frames = 0;
    const auto start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (const Request& request : catalog.requests) {
        serve::Frame frame;
        frame.kind = static_cast<std::uint16_t>(request.kind) |
                     serve::kResponseBit;
        frame.request_id = frames + 1;
        frame.payload = request.expected;
        const serve::DecodeResult decoded =
            serve::decode_frame(serve::encode_frame(frame));
        record.check(decoded.status == serve::DecodeStatus::kFrame &&
                         decoded.frame == frame,
                     "frame codec round trip changed a frame");
        ++frames;
      }
    }
    record.add("serve.frame_codec_us",
               seconds_since(start) * 1e6 / static_cast<double>(frames), "us");
  }

  util::Rng rng(options.seed);
  Generator generator(server->service->port(), kConnections);
  tally(generator.run(catalog,
                      light_schedule(catalog, count_for(kLightRate, 0.5), rng),
                      kLightRate),
        record);
  double late = 0.0;
  const double phase_seconds = std::max(0.5, 0.2 * options.seconds);

  // serve_light: untraced, then traced, at the fixed offered rate.
  const std::size_t light_n = count_for(kLightRate, phase_seconds);
  const Phase light_plain =
      generator.run(catalog, light_schedule(catalog, light_n, rng), kLightRate);
  tally(light_plain, record);
  {
    Tracer::Scope root(&tracer, "serve_light", "bench");
    const Phase phase =
        generator.run(catalog, light_schedule(catalog, light_n, rng),
                      kLightRate, &tracer, root.id());
    tally(phase, record);
    std::vector<double> queue_ms;
    for (const Outcome& outcome : phase.outcomes) {
      queue_ms.push_back(outcome.latency_ms -
                         catalog.requests[outcome.request].answer_s * 1e3);
    }
    root.close();
    report_layers(tracer, root.id(), "serve_light", record);
    record.add("serve.transport_queue_ms.p50", percentile(queue_ms, 0.50),
               "ms");
    record.add("serve.transport_queue_ms.p99", percentile(queue_ms, 0.99),
               "ms");
    record.add("serve_light.trace_overhead_ms",
               percentile(latencies(phase, catalog, -1), 0.5) -
                   percentile(latencies(light_plain, catalog, -1), 0.5),
               "ms");
    late = std::max(late, max_late_ms(phase));
  }

  // serve_mixed: untraced, then traced, each with the refresher running
  // and long enough for it to publish once.
  const std::size_t mixed_n = count_for(
      kMixedRate, std::max(kRefreshEverySeconds + 1.0, 2.0 * phase_seconds));
  const auto run_mixed = [&](Tracer* spans, std::uint64_t parent) {
    Refresher refresher(scenario, store_dir, server->registry, spans, parent);
    Phase phase =
        generator.run(catalog, mixed_schedule(catalog, mixed_n, rng),
                      kMixedRate, spans, parent);
    refresher.stop();
    record.check(refresher.error().empty(),
                 "refresh failed: " + refresher.error());
    refreshes.insert(refreshes.end(), refresher.seconds().begin(),
                     refresher.seconds().end());
    tally(phase, record);
    return phase;
  };
  const Phase mixed_plain = run_mixed(nullptr, 0);
  {
    Tracer::Scope root(&tracer, "serve_mixed", "bench");
    const Phase phase = run_mixed(&tracer, root.id());
    root.close();
    report_layers(tracer, root.id(), "serve_mixed", record);
    record.add("serve_mixed.trace_overhead_ms",
               percentile(latencies(phase, catalog, -1), 0.5) -
                   percentile(latencies(mixed_plain, catalog, -1), 0.5),
               "ms");
    late = std::max(late, max_late_ms(phase));
  }

  server->service->stop();
  const serve::EventLoopStats stats = server->service->stats();
  record.add("serve.generator_late_ms.max", late, "ms");
  record.add("serve.frames_in", static_cast<double>(stats.frames_in), "count");
  record.add("serve.frames_out", static_cast<double>(stats.frames_out),
             "count");
  record.add("serve.accepted", static_cast<double>(stats.accepted), "count");
  record.add("serve.refresh_s", median(refreshes), "s");
  record.add("serve.publishes",
             static_cast<double>(server->registry.published()), "count");
}

}  // namespace perfbench
