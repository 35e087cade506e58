// `daemon`: the real vihotd with its default serving flags, on a socket
// in a fresh temp dir, driven open loop from one process. One feeder
// connection carries as many sessions as the drive recorded, drawn from
// the recorded sessions by apportion() so that the share of matched
// estimates is the same on every seed, and one subscriber connection
// receives every tick's results. Every frame and
// tick is sent at its recorded time (the schedule runs kSpeedup times
// faster than the drive), latency is measured from each tick's due time,
// and every served result is bit-compared against the recording.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "daemon/client.h"

namespace perfbench {
namespace {

namespace daemon = vihot::daemon;

/// Schedule compression: 6x the recorded rate gives 60 ticks/s, enough
/// ticks in one run for a p99 with ten beyond it, while the heaviest
/// tick of the default inline daemon still fits in its period.
constexpr double kSpeedup = 6.0;
constexpr std::size_t kWarmupTicks = 20;
constexpr std::size_t kMaxCopies = 3;  // per recorded session
constexpr int kTimeoutMs = 5000;
/// Waits shorter than this are spun, longer ones slept (minus the spin).
constexpr auto kSpin = std::chrono::microseconds(150);

/// A vihotd child process serving on a socket in a fresh temp dir. It is
/// always reaped: stop() (also run by the destructor) sends SIGTERM,
/// waits (SIGKILL after 5 s), and removes the socket dir.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { (void)stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool start(const std::string& binary, const std::string& work_dir,
             std::string* error) {
    std::string dir = work_dir + "/vihotd-XXXXXX";
    if (mkdtemp(dir.data()) == nullptr) {
      *error = "mkdtemp failed under " + work_dir;
      return false;
    }
    dir_ = dir;
    socket_ = dir_ + "/s";
    if (socket_.size() >= 100) {
      *error = "socket path too long: " + socket_;
      return false;
    }
    const std::string log = dir_ + "/vihotd.log";
    pid_ = fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      // Child: die with the benchmark, log to the temp dir, exec.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
      }
      execl(binary.c_str(), binary.c_str(), "--socket", socket_.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      if (daemon::Stream::connect_unix(socket_).valid()) return true;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "vihotd exited at start-up (see " + log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    *error = "vihotd did not open " + socket_;
    return false;
  }

  /// Reaps the daemon and removes its dir; returns its peak RSS in MB.
  double stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      rusage ru{};
      int status = 0;
      const auto deadline = Clock::now() + std::chrono::seconds(5);
      for (;;) {
        const pid_t r = wait4(pid_, &status, WNOHANG, &ru);
        if (r == pid_ || r < 0) break;
        if (Clock::now() > deadline) {
          kill(pid_, SIGKILL);
          (void)wait4(pid_, &status, 0, &ru);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
      pid_ = -1;
    }
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
    return peak_rss_mb_;
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  pid_t pid_ = -1;
  std::string dir_;
  std::string socket_;
  double peak_rss_mb_ = 0.0;
};

/// Reads `"name": <number>` out of the health JSON (0 when absent).
double health_value(const std::string& json, const std::string& name,
                    const char* field = nullptr) {
  std::size_t at = json.find('"' + name + "\":");
  if (at == std::string::npos) return 0.0;
  at += name.size() + 3;
  if (field != nullptr) {
    at = json.find(std::string("\"") + field + "\":", at);
    if (at == std::string::npos) return 0.0;
    at += std::strlen(field) + 3;
  }
  return std::strtod(json.c_str() + at, nullptr);
}

/// One scheduled send: a feed frame or a tick, due at `due_s` after the
/// pass starts; its bytes end at `bytes_end` in the pass's stream.
struct Entry {
  double due_s = 0.0;
  std::size_t bytes_end = 0;
  std::int32_t tick = -1;  ///< tick index, -1 for feeds
};

struct Received {
  Clock::time_point at;
  daemon::ResultsFrame frame;
};

class DaemonLoad : public Workload {
 public:
  explicit DaemonLoad(const Options& opt) : opt_(opt) {}

  ~DaemonLoad() override {
    stop_subscriber();
    feeder_.close();
    sub_.close();
    (void)daemon_.stop();
  }

  bool setup(Report& report) override {
    std::string error;
    if (!record_drive(opt_, &drive_, &error)) {
      report.broken("daemon: " + error);
      return false;
    }
    const std::vector<std::size_t> copies =
        apportion(drive_, drive_.sessions, 0, kMaxCopies);
    sids_.assign(drive_.sessions, {});
    for (std::size_t s = 0; s < copies.size(); ++s) {
      for (std::size_t c = 0; c < copies[s]; ++c) {
        sids_[s].push_back(copy_of_.size());
        copy_of_.push_back(s);
      }
    }
    if (opt_.corrupt_reference) {  // tick 0 of a served session
      drive_.expected[copy_of_.front() * drive_.result_bytes +
                      drive_.result_bytes / 2] ^= 0x01;
    }
    build_schedule();
    if (!daemon_.start(opt_.vihotd, opt_.work_dir, &error)) {
      report.broken("daemon: " + error);
      return false;
    }
    sub_ = daemon::Client::connect(daemon_.socket(), daemon::Role::kSubscriber,
                                   kTimeoutMs);
    feeder_ = daemon::Client::connect(daemon_.socket(),
                                      daemon::Role::kFeeder, kTimeoutMs);
    if (!sub_.ok() || !sub_.subscribe() || !feeder_.ok()) {
      report.broken("daemon: connect: " + sub_.error() + feeder_.error());
      return false;
    }
    return open_sessions(report);
  }

  void run(Report& report) override {
    subscriber_ = std::jthread([this] { subscribe_loop(); });
    Tracer tracer;
    const auto start = Clock::now();
    const auto deadline = after(opt_.seconds);
    bool more = true;
    double traced_wall_ms = 0.0;
    for (std::size_t pass = 0; more && report.ok; ++pass) {
      if (pass > 0 && !(await_results(report) && reopen(report))) break;
      const bool traced = opt_.trace && pass % 2 == 1;
      const auto pass_start = Clock::now();
      more = run_pass(traced ? &tracer : nullptr, deadline, report);
      if (traced) traced_wall_ms += ms_between(pass_start, Clock::now());
    }
    (void)await_results(report);
    const auto end = Clock::now();
    stop_subscriber();

    const std::string health = read_health();
    check_results(report);
    count_daemon_failures(health, report);
    feeder_.close();
    sub_.close();
    const double rss = daemon_.stop();

    // End-to-end figures come from untraced passes only, as segment
    // medians (see kStatSegment).
    std::vector<double> e2e[2];  // [untraced, traced]
    std::vector<double> rtt;
    for (std::size_t k = kWarmupTicks; k < received_.size(); ++k) {
      const Clock::time_point at = received_[k].at;
      const bool traced = sent_[k].traced;
      e2e[traced ? 1 : 0].push_back(ms_between(sent_[k].due, at));
      if (!traced) rtt.push_back(ms_between(sent_[k].sent, at));
    }
    const double wall = s_between(start, end);
    const double estimates =
        static_cast<double>(received_.size() * copy_of_.size());
    report.set("ticks", static_cast<double>(rtt.size()));
    report.set("tick_p50_ms", segment_percentile(rtt, kStatSegment, 50));
    report.set("tick_p95_ms", segment_percentile(rtt, kStatSegment, 95));
    report.set("e2e_p50_ms", segment_percentile(e2e[0], kStatSegment, 50));
    report.set("e2e_p95_ms", segment_percentile(e2e[0], kStatSegment, 95));
    // Open loop: the schedule sets this rate; it falls below the
    // schedule only when the daemon cannot keep up.
    report.set("estimates_per_s", wall > 0.0 ? estimates / wall : 0.0);
    report.set("err_p50_deg", drive_.err_p50_deg);
    report.set("err_p90_deg", drive_.err_p90_deg);
    report.set("peak_rss_mb", rss);
    if (!opt_.trace) return;

    report.set("daemon.batch_us",
               health_value(health, "engine.batch_latency_us", "sum") /
                   std::max(1.0, health_value(health,
                                              "engine.batch_latency_us",
                                              "count")));
    report.set("daemon.feed_mb_per_s",
               wall > 0.0 ? static_cast<double>(bytes_sent_) / wall / 1e6
                          : 0.0);
    report.set("loadgen.late_ms_p99", percentile(late_ms_, 99));
    probe_shadow_trackers(drive_, report);
    probe_protocol(drive_.expected_results, drive_.sessions, stream_,
                   schedule_.size(), report);
    report.set("replay.load_s", drive_.load_s);
    report.set("sim.record_s", drive_.record_s);
    const double untraced = percentile(e2e[0], 50);
    if (untraced > 0.0 && !e2e[1].empty()) {
      report.set("trace.overhead_pct",
                 (percentile(e2e[1], 50) / untraced - 1.0) * 100.0);
    }
    for (std::size_t k = 0; k < received_.size(); ++k) {
      if (sent_[k].traced) {
        tracer.add("daemon.tick_rtt", static_cast<std::uint32_t>(k),
                   sent_[k].sent, received_[k].at);
      }
    }
    std::size_t traced_ticks = 0;
    for (const Sent& s : sent_) traced_ticks += s.traced ? 1 : 0;
    report.set_unused({"engine.offer_ns", "engine.drain_ms",
                       "engine.estimate_all_ms_p50",
                       "engine.estimate_all_ms_p99", "engine.worker_skew"});
    report_trace(tracer, traced_wall_ms, traced_ticks, opt_, report);
  }

 private:
  struct Sent {
    Clock::time_point due;
    Clock::time_point sent;
    std::size_t pass = 0;
    std::size_t tick = 0;
    bool traced = false;
  };

  /// Pre-encodes one pass of the drive as the feeder's byte stream, in
  /// send order: each tick window's feeds sorted by time (per-session
  /// order is kept, which is all the daemon's rings observe), then the
  /// tick itself.
  void build_schedule() {
    const double t0 = drive_.events.empty()
                          ? drive_.ticks.front().t_now
                          : std::min(drive_.events.front().t,
                                     drive_.ticks.front().t_now);
    std::vector<std::size_t> order;
    for (std::size_t k = 0; k < drive_.ticks.size(); ++k) {
      const RecordedDrive::Tick& tick = drive_.ticks[k];
      order.clear();
      for (std::size_t e = tick.events_begin; e < tick.events_end; ++e) {
        order.push_back(e);
      }
      std::stable_sort(order.begin(), order.end(),
                       [this](std::size_t a, std::size_t b) {
                         return drive_.events[a].t < drive_.events[b].t;
                       });
      for (const std::size_t e : order) {
        for (const std::uint64_t sid : sids_[drive_.events[e].session]) {
          append_feed_frame(stream_, drive_, drive_.events[e], sid);
          schedule_.push_back(
              {(drive_.events[e].t - t0) / kSpeedup, stream_.size(), -1});
        }
      }
      std::vector<unsigned char> payload;
      vihot::replay::put_f64(payload, tick.t_now);
      daemon::append_frame(stream_, daemon::MsgType::kTick, payload);
      schedule_.push_back({(tick.t_now - t0) / kSpeedup, stream_.size(),
                           static_cast<std::int32_t>(k)});
    }
  }

  bool open_sessions(Report& report) {
    gid_to_session_.emplace_back();
    for (std::size_t c = 0; c < copy_of_.size(); ++c) {
      std::uint64_t gid = 0;
      if (!feeder_.open_session(c, *drive_.profile, drive_.config, &gid,
                                kTimeoutMs)) {
        report.broken("daemon: open_session: " + feeder_.error());
        return false;
      }
      gid_to_session_.back()[gid] = copy_of_[c];
    }
    return true;
  }

  /// Closes and reopens every session: a fresh pass over the drive (the
  /// daemon restarts its serving clock once the fleet is empty).
  bool reopen(Report& report) {
    for (std::size_t c = 0; c < copy_of_.size(); ++c) {
      if (!feeder_.close_session(c, kTimeoutMs)) {
        report.broken("daemon: close_session: " + feeder_.error());
        return false;
      }
    }
    return open_sessions(report);
  }

  /// Sends one pass on schedule; false once the deadline passed.
  bool run_pass(Tracer* tracer, Clock::time_point deadline,
                Report& report) {
    const std::size_t pass = gid_to_session_.size() - 1;
    const auto base = Clock::now() + std::chrono::milliseconds(2);
    const auto due_of = [base](const Entry& e) {
      return base + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(e.due_s));
    };
    std::size_t i = 0;
    std::size_t begin = 0;  // first byte not yet sent
    while (i < schedule_.size()) {
      const auto tick = static_cast<std::uint32_t>(sent_.size());
      ScopedSpan window(tracer, "loadgen.window", tick);
      bool tick_sent = false;
      while (!tick_sent) {
        const Clock::time_point due = due_of(schedule_[i]);
        if (Clock::now() < due) {
          ScopedSpan wait(tracer, "loadgen.wait", tick, window.id());
          if (due - Clock::now() > kSpin) {
            std::this_thread::sleep_until(due - kSpin);
          }
          while (Clock::now() < due) {
          }
        }
        // Everything due by now goes out in one write, up to and
        // including the window's tick.
        const Clock::time_point now = Clock::now();
        std::size_t j = i;
        while (j < schedule_.size() && due_of(schedule_[j]) <= now) {
          if (schedule_[j++].tick >= 0) break;
        }
        const std::size_t end = schedule_[j - 1].bytes_end;
        {
          ScopedSpan send(tracer, "loadgen.send", tick, window.id());
          if (!feeder_.send_raw(stream_.data() + begin, end - begin)) {
            report.broken("daemon: feeder send failed: " + feeder_.error());
            return false;
          }
        }
        const Clock::time_point sent = Clock::now();
        bytes_sent_ += end - begin;
        for (std::size_t e = i; e < j; ++e) {
          const Clock::time_point e_due = due_of(schedule_[e]);
          late_ms_.push_back(ms_between(e_due, sent));
          if (schedule_[e].tick >= 0) {
            sent_.push_back({e_due, sent, pass,
                             static_cast<std::size_t>(schedule_[e].tick),
                             tracer != nullptr});
            ticks_sent_.store(sent_.size(), std::memory_order_release);
            tick_sent = true;
          } else {
            report.attempted += 1;
          }
        }
        begin = end;
        i = j;
      }
      report.attempted += copy_of_.size();
      if (Clock::now() >= deadline) return false;
    }
    return true;
  }

  void subscribe_loop() {
    while (true) {
      std::optional<daemon::ResultsFrame> frame = sub_.next_results(100);
      if (frame) {
        const Clock::time_point at = Clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        received_.push_back({at, std::move(*frame)});
        received_count_.store(received_.size(), std::memory_order_release);
        continue;
      }
      if (stop_.load(std::memory_order_acquire) || !sub_.ok() ||
          sub_.saw_bye()) {
        return;
      }
    }
  }

  /// Waits until the subscriber holds a frame for every tick sent.
  bool await_results(Report& report) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(kTimeoutMs);
    while (received_count_.load(std::memory_order_acquire) <
           ticks_sent_.load(std::memory_order_acquire)) {
      if (Clock::now() > deadline) {
        report.fail(0, "daemon: results stopped arriving");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  void stop_subscriber() {
    stop_.store(true, std::memory_order_release);
    if (subscriber_.joinable()) subscriber_.join();
  }

  std::string read_health() {
    daemon::Client control = daemon::Client::connect(
        daemon_.socket(), daemon::Role::kControl, kTimeoutMs);
    std::optional<std::string> json;
    if (control.ok()) json = control.health(kTimeoutMs);
    return json.value_or("");
  }

  /// Bit-compares every received tick against the recording.
  void check_results(Report& report) {
    std::vector<unsigned char> bytes;
    const std::size_t n = copy_of_.size();
    for (std::size_t k = 0; k < received_.size(); ++k) {
      const daemon::ResultsFrame& f = received_[k].frame;
      const Sent& s = sent_[k];
      const RecordedDrive::Tick& tick = drive_.ticks[s.tick];
      if (std::bit_cast<std::uint64_t>(f.t_now) !=
              std::bit_cast<std::uint64_t>(tick.t_now) ||
          f.ids.size() != n || f.results.size() != n) {
        report.fail(n, "daemon: results frame does not match its tick");
        continue;
      }
      const auto& sessions = gid_to_session_[s.pass];
      for (std::size_t i = 0; i < n; ++i) {
        const auto it = sessions.find(f.ids[i]);
        encode_result(bytes, f.results[i]);
        if (it == sessions.end() || !finite_result(f.results[i]) ||
            std::memcmp(bytes.data(), drive_.expected_at(s.tick, it->second),
                        drive_.result_bytes) != 0) {
          report.fail(1, "daemon: result differs from the recording");
        }
      }
    }
    if (received_.size() < sent_.size()) {
      report.fail((sent_.size() - received_.size()) * n,
                  "daemon: ticks without a results frame");
    }
  }

  /// Fed frames the daemon rejected or dropped, and dropped fan-out.
  void count_daemon_failures(const std::string& health, Report& report) {
    if (health.empty()) {
      report.broken("daemon: no health report");
      return;
    }
    double rejected = 0.0;
    for (const char* name :
         {"engine.out_of_order_csi", "engine.out_of_order_imu",
          "engine.out_of_order_camera", "engine.non_finite_csi",
          "engine.non_finite_imu", "engine.non_finite_camera"}) {
      rejected += health_value(health, name);
    }
    double dropped = 0.0;
    for (const char* name :
         {"ingest.csi_dropped_newest", "ingest.csi_dropped_oldest",
          "ingest.imu_dropped_newest", "ingest.imu_dropped_oldest"}) {
      dropped += health_value(health, name);
    }
    const double sub_dropped =
        health_value(health, "daemon.sub_dropped_oldest") +
        health_value(health, "daemon.sub_dropped_newest") +
        health_value(health, "daemon.sub_block_timeouts");
    const double protocol = health_value(health, "daemon.protocol_errors");
    const auto total =
        static_cast<std::uint64_t>(rejected + dropped + sub_dropped + protocol);
    if (total > 0) report.fail(total, "daemon: frames rejected or dropped");
    report.set("engine.frames_rejected", rejected);
    report.set("engine.frames_dropped", dropped);
    report.set("daemon.sub_dropped", sub_dropped);
  }

  Options opt_;
  RecordedDrive drive_;
  /// Client session id -> recorded session, and back (per session).
  std::vector<std::size_t> copy_of_;
  std::vector<std::vector<std::uint64_t>> sids_;
  std::vector<unsigned char> stream_;  ///< one pass of feeder bytes
  std::vector<Entry> schedule_;
  DaemonProcess daemon_;
  daemon::Client feeder_;
  daemon::Client sub_;
  /// Per pass: the daemon's global session id -> recorded session.
  std::vector<std::unordered_map<std::uint64_t, std::size_t>>
      gid_to_session_;

  std::vector<Sent> sent_;  ///< every tick sent, in order
  std::vector<double> late_ms_;
  std::uint64_t bytes_sent_ = 0;
  std::atomic<std::size_t> ticks_sent_{0};

  std::mutex mu_;
  std::vector<Received> received_;  ///< guarded by mu_ while subscribing
  std::atomic<std::size_t> received_count_{0};
  std::atomic<bool> stop_{false};
  std::jthread subscriber_;  ///< declared last: joins before the rest dies
};

}  // namespace

std::unique_ptr<Workload> make_daemon(const Options& opt) {
  return std::make_unique<DaemonLoad>(opt);
}

}  // namespace perfbench
