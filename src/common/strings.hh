/**
 * @file
 * String formatting helpers used by printers and the CLI layer.
 */

#ifndef LTS_COMMON_STRINGS_HH
#define LTS_COMMON_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

namespace lts
{

/** Split @p s on @p sep, dropping empty pieces when @p keep_empty is false. */
std::vector<std::string> split(std::string_view s, char sep,
                               bool keep_empty = false);

/** Join @p parts with @p sep between consecutive elements. */
std::string join(const std::vector<std::string> &parts, std::string_view sep);

/** True iff @p s starts with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** trim() without the copy: a view into @p s. */
std::string_view trimView(std::string_view s);

/** Left-pad @p s with spaces to at least @p width characters. */
std::string padLeft(std::string_view s, size_t width);

/** Right-pad @p s with spaces to at least @p width characters. */
std::string padRight(std::string_view s, size_t width);

} // namespace lts

#endif // LTS_COMMON_STRINGS_HH
