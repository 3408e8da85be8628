#include "common/metrics.h"

#include <memory>
#include <sstream>

namespace kmeansll {
namespace {

// Prometheus text-format escaping: label values escape backslash, quote,
// and newline; HELP text escapes backslash and newline.
std::string EscapeLabelValue(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string EscapeHelp(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  out += "}";
  return out;
}

// Label set with a trailing le="..." pair appended (histogram buckets).
std::string RenderBucketLabels(const MetricLabels& labels,
                               const std::string& le) {
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\",";
  }
  out += "le=\"";
  out += le;
  out += "\"}";
  return out;
}

}  // namespace

void AppendPrometheusHistogram(const std::string& name,
                               const MetricLabels& labels,
                               const LatencyHistogram::Snapshot& snap,
                               std::string* out) {
  // Cumulative bucket series. Only buckets that change the cumulative
  // count are emitted (488 fixed buckets would bloat every scrape); the
  // series stays valid because `le` values are strictly increasing and
  // `+Inf` always closes it.
  int64_t cumulative = 0;
  for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
    const int64_t in_bucket = snap.buckets[static_cast<size_t>(b)];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    *out += name;
    *out += "_bucket";
    *out += RenderBucketLabels(
        labels, std::to_string(LatencyHistogram::BucketUpperBound(b)));
    *out += " ";
    *out += std::to_string(cumulative);
    *out += "\n";
  }
  *out += name;
  *out += "_bucket";
  *out += RenderBucketLabels(labels, "+Inf");
  *out += " ";
  *out += std::to_string(snap.count);
  *out += "\n";
  AppendPrometheusSample(name + "_sum", labels, snap.sum, out);
  AppendPrometheusSample(name + "_count", labels, snap.count, out);
}

void AppendPrometheusSample(const std::string& name,
                            const MetricLabels& labels, int64_t value,
                            std::string* out) {
  *out += name;
  *out += RenderLabels(labels);
  *out += " ";
  *out += std::to_string(value);
  *out += "\n";
}

struct MetricsRegistry::Cell {
  MetricLabels labels;
  // Exactly one of these is non-null, matching the family type. Heap
  // allocation keeps a counter cell at 8 bytes instead of carrying an
  // unused ~4 KB histogram inline.
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<LatencyHistogram> histogram;
};

struct MetricsRegistry::Family {
  std::string name;
  std::string help;
  MetricType type;
  std::vector<Cell*> cells;  // registration order
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Cell* MetricsRegistry::GetCell(MetricType type,
                                                const std::string& name,
                                                const std::string& help,
                                                const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = nullptr;
  for (Family& f : families_) {
    if (f.name == name) {
      family = &f;
      break;
    }
  }
  if (family == nullptr) {
    families_.push_back(Family{name, help, type, {}});
    family = &families_.back();
  } else {
    KMEANSLL_CHECK(family->type == type);  // one type per metric name
    if (family->help.empty()) family->help = help;
  }
  for (Cell* cell : family->cells) {
    if (cell->labels == labels) return cell;
  }
  cells_.push_back(Cell{});
  Cell* cell = &cells_.back();
  cell->labels = labels;
  switch (type) {
    case MetricType::kCounter:
      cell->counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      cell->gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      cell->histogram = std::make_unique<LatencyHistogram>();
      break;
  }
  family->cells.push_back(cell);
  return cell;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels) {
  return GetCell(MetricType::kCounter, name, help, labels)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels) {
  return GetCell(MetricType::kGauge, name, help, labels)->gauge.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                                const std::string& help,
                                                const MetricLabels& labels) {
  return GetCell(MetricType::kHistogram, name, help, labels)->histogram.get();
}

size_t MetricsRegistry::CellCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

std::string MetricsRegistry::DumpPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const Family& family : families_) {
    std::string help = family.help;
    const char* type_name = "counter";
    if (family.type == MetricType::kGauge) type_name = "gauge";
    if (family.type == MetricType::kHistogram) {
      type_name = "histogram";
      // Document the HdrHistogram-style bucket semantics where a scraper
      // will actually read them: percentiles computed from these buckets
      // report the bucket's upper bound, so they are conservative (never
      // below the true sample) and within 12.5% relative error of it.
      help += (help.empty() ? "" : " ");
      help +=
          "Bucket bounds are HdrHistogram-style (8 linear sub-buckets per "
          "octave); percentile estimates report the bucket upper bound, "
          "conservative within 12.5% relative error.";
    }
    if (!help.empty()) {
      out << "# HELP " << family.name << " " << EscapeHelp(help) << "\n";
    }
    out << "# TYPE " << family.name << " " << type_name << "\n";
    for (const Cell* cell : family.cells) {
      switch (family.type) {
        case MetricType::kCounter:
          out << family.name << RenderLabels(cell->labels) << " "
              << cell->counter->value() << "\n";
          break;
        case MetricType::kGauge:
          out << family.name << RenderLabels(cell->labels) << " "
              << cell->gauge->value() << "\n";
          break;
        case MetricType::kHistogram: {
          std::string series;
          AppendPrometheusHistogram(family.name, cell->labels,
                                    cell->histogram->snapshot(), &series);
          out << series;
          break;
        }
      }
    }
  }
  return out.str();
}

}  // namespace kmeansll
