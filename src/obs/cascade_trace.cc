#include "obs/cascade_trace.h"

#include <cinttypes>
#include <cstdio>

#include "btr/column.h"
#include "btr/config.h"

namespace btr::obs {

namespace {

void AppendBytes(u64 bytes, std::string* out) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", bytes);
  }
  *out += buf;
}

void AppendNode(const CascadeNode& node, int indent, std::string* out) {
  char buf[160];
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (node.depth > 0) *out += "└─ ";
  std::snprintf(buf, sizeof(buf), "%s[%s] %u values  ",
                SchemeNameFor(static_cast<ColumnType>(node.type), node.scheme),
                ColumnTypeName(static_cast<ColumnType>(node.type)),
                node.value_count);
  *out += buf;
  AppendBytes(node.input_bytes, out);
  *out += " -> ";
  AppendBytes(node.output_bytes, out);
  std::snprintf(buf, sizeof(buf), "  %.2fx", node.ActualRatio());
  *out += buf;
  if (node.estimated_ratio > 0.0) {
    std::snprintf(buf, sizeof(buf), " (est %.2fx, err %+.1f%%)",
                  node.estimated_ratio, node.EstimateError() * 100.0);
    *out += buf;
  }
  *out += "\n";
  for (const CascadeNode& child : node.children) {
    AppendNode(child, indent + 1, out);
  }
}

}  // namespace

std::string CascadeTreeToString(const CascadeNode& root, int indent) {
  std::string out;
  AppendNode(root, indent, &out);
  return out;
}

void AppendCascadeJson(const CascadeNode& node, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"scheme\":\"%s\",\"type\":\"%s\",\"depth\":%u,"
                "\"values\":%u,\"input_bytes\":%" PRIu64
                ",\"output_bytes\":%" PRIu64,
                SchemeNameFor(static_cast<ColumnType>(node.type), node.scheme),
                ColumnTypeName(static_cast<ColumnType>(node.type)), node.depth,
                node.value_count, node.input_bytes, node.output_bytes);
  *out += buf;
  std::snprintf(buf, sizeof(buf),
                ",\"actual_ratio\":%.4f,\"estimated_ratio\":%.4f,"
                "\"estimate_error\":%.4f,\"stats_ns\":%" PRIu64
                ",\"estimate_ns\":%" PRIu64 ",\"compress_ns\":%" PRIu64,
                node.ActualRatio(), node.estimated_ratio, node.EstimateError(),
                node.stats_ns, node.estimate_ns, node.compress_ns);
  *out += buf;
  *out += ",\"candidates\":[";
  for (size_t i = 0; i < node.candidates.size(); i++) {
    if (i > 0) *out += ",";
    std::snprintf(buf, sizeof(buf), "{\"scheme\":\"%s\",\"estimated\":%.4f}",
                  SchemeNameFor(static_cast<ColumnType>(node.type),
                                node.candidates[i].scheme),
                  node.candidates[i].estimated_ratio);
    *out += buf;
  }
  *out += "],\"children\":[";
  for (size_t i = 0; i < node.children.size(); i++) {
    if (i > 0) *out += ",";
    AppendCascadeJson(node.children[i], out);
  }
  *out += "]}";
}

std::string CascadeTreeToJson(const CascadeNode& root) {
  std::string out;
  AppendCascadeJson(root, &out);
  return out;
}

}  // namespace btr::obs
