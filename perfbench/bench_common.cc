#include "bench_common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "rng/rng.h"
#include "rng/splitmix64.h"

namespace perfbench {

Report::Report(std::vector<Spec> end_to_end, std::vector<Spec> per_layer)
    : end_to_end_(std::move(end_to_end)), per_layer_(std::move(per_layer)) {}

void Report::Set(const std::string& name, double value) {
  const auto known = [&](const std::vector<Spec>& specs) {
    return std::any_of(specs.begin(), specs.end(),
                       [&](const Spec& s) { return name == s.name; });
  };
  if (!known(end_to_end_) && !known(per_layer_)) {
    Fatal("runner bug: metric '" + name + "' is not declared");
  }
  values_[name] = value;
}

bool Report::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Report::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) {
    ++gate_failures_;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    notes_.push_back("GATE FAILED: " + what);
  }
}

void Report::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::Print(bool trace) const {
  const std::vector<Spec>& specs = trace ? per_layer_ : end_to_end_;
  bool complete = true;
  std::printf("%s metrics:\n", trace ? "per-layer" : "end-to-end");
  for (const Spec& s : specs) {
    if (!Has(s.name) && !trace) {
      std::printf("  %-34s MISSING\n", s.name);
      complete = false;
      continue;
    }
    std::printf("  %-34s %.6g %s\n", s.name, Get(s.name), s.unit);
  }
  for (const std::string& n : notes_) std::printf("  # %s\n", n.c_str());
  // Failed gates count as failed operations: a wrong answer is an error
  // the user would see, exactly like a refused request.
  const int64_t failed = failed_ + gate_failures_;
  const int64_t attempted = std::max<int64_t>(attempted_ + gates_, 1);
  std::printf("  %-34s %.6g (%" PRId64 " failed of %" PRId64
              " attempted, %" PRId64 " gates)\n",
              "error_rate", static_cast<double>(failed) / attempted, failed,
              attempted, gates_);

  std::string json = "{\"correct\": ";
  json += (correct() && complete) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Spec& s : specs) {
    double v = Get(s.name);
    if (!std::isfinite(v)) {
      complete = false;
      v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) json.append(", ");
    first = false;
    json.append("\"").append(s.name).append("\": {\"value\": ");
    json.append(buf).append(", \"unit\": \"").append(s.unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string Named(const std::string& name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s = %.6g %s", name.c_str(), value, unit);
  return buf;
}

std::string DescribeSamples(const std::string& name,
                            const std::vector<double>& samples,
                            const char* unit) {
  const auto n = static_cast<int64_t>(samples.size());
  const auto beyond99 =
      n - static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n)));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: p50=%.4g p90=%.4g p99=%.4g max=%.4g %s (n=%" PRId64
                ", %" PRId64 " samples beyond p99)",
                name.c_str(), Percentile(samples, 50), Percentile(samples, 90),
                Percentile(samples, 99), Percentile(samples, 100), unit, n,
                beyond99);
  return buf;
}

void ResetPeakRss() {
  // Writing "5" to clear_refs resets this process's VmHWM to its current
  // RSS (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double TimeCall(const char* name, const std::function<void()>& fn) {
  const kmeansll::trace::Span span(name);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

namespace {

// Sleeps until shortly before `due`, then spins. A sleeping thread can
// wake more than 300 us late on a virtual machine (measured on a 4-vCPU
// VM: 0.1% of wake-ups), which would read as request latency, so the
// last millisecond is spun.
void WaitUntil(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(1000);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

LoadResult RunOpenLoop(const LoadSpec& spec, const RequestFn& request) {
  struct Record {
    double due_s;
    double latency_us;
    double late_us;
    int kind;
    bool ok;
  };
  const int threads = std::max(spec.threads, 1);
  const bool closed = spec.rate <= 0;
  const double per_thread_rate = closed ? 0.0 : spec.rate / threads;
  std::vector<std::vector<Record>> records(static_cast<size_t>(threads));
  // A shared epoch slightly in the future, so every client starts on time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);

  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      kmeansll::rng::Rng rng(kmeansll::rng::HashCombine(
          spec.seed, static_cast<uint64_t>(t) + 1));
      std::vector<Record>& out = records[static_cast<size_t>(t)];
      out.reserve(static_cast<size_t>(
          closed ? 65536.0
                 : std::min(per_thread_rate * spec.seconds * 1.2 + 16,
                            65536.0)));
      WaitUntil(start);
      double due_s = 0;
      for (int64_t i = 0;; ++i) {
        Clock::time_point due;
        if (closed) {
          due = Clock::now();
          due_s = std::chrono::duration<double>(due - start).count();
        } else {
          due_s += rng.NextExponential(per_thread_rate);
          due = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due_s));
        }
        if (due_s >= spec.seconds) break;
        if (spec.stop != nullptr &&
            spec.stop->load(std::memory_order_relaxed)) {
          break;
        }
        WaitUntil(due);
        const Clock::time_point sent = Clock::now();
        const RequestOutcome outcome = request(t, i);
        const Clock::time_point done = Clock::now();
        out.push_back({due_s, Micros(done - due), Micros(sent - due),
                       outcome.kind, outcome.ok});
      }
    });
  }
  for (std::thread& c : clients) c.join();
  const double wall_s = SecondsSince(start);

  LoadResult result;
  result.offered_ops_s = spec.rate;
  std::vector<Record> all;
  size_t total = 0;
  for (const auto& r : records) total += r.size();
  all.reserve(total);
  for (const auto& r : records) all.insert(all.end(), r.begin(), r.end());
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.due_s < b.due_s;
  });
  for (const Record& r : all) {
    ++result.attempted;
    result.late_us.push_back(r.late_us);
    if (!r.ok) {
      ++result.failed;
      continue;
    }
    result.latency_us[r.kind == 1 ? 1 : 0].push_back(r.latency_us);
  }
  result.achieved_ops_s =
      wall_s > 0 ? static_cast<double>(result.attempted) / wall_s : 0.0;
  return result;
}

bool FellShort(const LoadResult& load) {
  return load.attempted >= 500 &&
         load.achieved_ops_s < 0.9 * load.offered_ops_s;
}

double WindowedPercentile(const std::vector<double>& samples, double p) {
  std::vector<double> per_window;
  for (size_t begin = 0; begin + kWindowRequests <= samples.size();
       begin += kWindowRequests) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + kWindowRequests),
        p));
  }
  return per_window.empty() ? Percentile(samples, p) : Median(per_window);
}

double WindowedLatency(const LoadResult& load, double p) {
  return WindowedPercentile(load.latency_us[0], p);
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) Fatal("cannot create " + path + ": " + ec.message());
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(2);
}

}  // namespace perfbench
