#include "metrics/export.hpp"

#include <cinttypes>
#include <cstdio>

namespace metrics {
namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

/// Instrument names are plain identifiers, but escape defensively so a
/// stray quote or backslash can never corrupt the document.
std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Append `"name": {body}` entries for a map, comma-separated.
template <typename Map, typename Fn>
void json_object(std::string& out, const char* key, const Map& map, Fn body) {
  out += "  \"";
  out += key;
  out += "\": {";
  bool first = true;
  for (const auto& [name, inst] : map) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + esc(name) + "\": ";
    body(out, inst);
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

std::string to_json(const Registry& reg) {
  std::string out = "{\n  \"schema\": \"";
  out += kJsonSchema;
  out += "\",\n";

  json_object(out, "counters", reg.counters(),
              [](std::string& o, const Counter& c) { o += num(c.value()); });
  out += ",\n";

  json_object(out, "gauges", reg.gauges(),
              [](std::string& o, const Gauge& g) {
                o += "{\"last\": " + num(g.last()) +
                     ", \"min\": " + num(g.min()) +
                     ", \"max\": " + num(g.max()) +
                     ", \"count\": " + num(g.count()) + "}";
              });
  out += ",\n";

  json_object(out, "histograms", reg.histograms(),
              [](std::string& o, const Histogram& h) {
                o += "{\"unit\": " + num(h.unit()) +
                     ", \"count\": " + num(h.count()) +
                     ", \"sum\": " + num(h.sum()) +
                     ", \"min\": " + num(h.min()) +
                     ", \"max\": " + num(h.max()) +
                     ", \"mean\": " + num(h.mean()) +
                     ", \"p50\": " + num(h.percentile(0.50)) +
                     ", \"p95\": " + num(h.percentile(0.95)) +
                     ", \"p99\": " + num(h.percentile(0.99)) + "}";
              });
  out += ",\n";

  json_object(out, "timeseries", reg.timeseries_map(),
              [](std::string& o, const Timeseries& ts) {
                o += "{\"interval\": " + num(ts.interval()) +
                     ", \"dropped\": " + num(ts.dropped()) +
                     ", \"points\": [";
                bool first = true;
                for (const Sample& s : ts.samples()) {
                  if (!first) o += ", ";
                  first = false;
                  // Appended piecewise: GCC 12's -Wrestrict misfires on
                  // the chained-temporary form at -O3.
                  o += "[";
                  o += num(s.t);
                  o += ", ";
                  o += num(s.value);
                  o += "]";
                }
                o += "]}";
              });
  out += "\n}\n";
  return out;
}

bool write_json_file(const Registry& reg, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = to_json(reg);
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace metrics
