#include "common/strings.hh"

#include <cctype>

namespace lts
{

std::vector<std::string>
split(std::string_view s, char sep, bool keep_empty)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string_view::npos)
            end = s.size();
        std::string_view piece = s.substr(start, end - start);
        if (keep_empty || !piece.empty())
            out.emplace_back(piece);
        start = end + 1;
        if (end == s.size())
            break;
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); i++) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.substr(0, prefix.size()) == prefix;
}

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

std::string_view
trimView(std::string_view s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        b++;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        e--;
    return s.substr(b, e - b);
}

std::string
padLeft(std::string_view s, size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.insert(0, width - out.size(), ' ');
    return out;
}

std::string
padRight(std::string_view s, size_t width)
{
    std::string out(s);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

} // namespace lts
