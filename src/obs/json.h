// Minimal JSON string escaping shared by every JSON producer in the
// repo (metrics registry, scan profiles, bench sidecars). Escapes the
// two structurally dangerous characters (`"` and `\`), the common
// whitespace escapes, and any remaining control byte as \u00XX, so an
// arbitrary metric or object-store key can be embedded in a JSON string
// without producing an invalid document.
#ifndef BTR_OBS_JSON_H_
#define BTR_OBS_JSON_H_

#include <string>
#include <string_view>

namespace btr::obs {

// Appends `s` to `*out` with JSON string escaping (no surrounding quotes).
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace btr::obs

#endif  // BTR_OBS_JSON_H_
