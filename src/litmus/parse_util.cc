#include "litmus/parse_util.hh"

#include <charconv>
#include <istream>
#include <stdexcept>

namespace lts::litmus
{

void
parseFail(const ParseSite &at, const std::string &why)
{
    std::string msg = "litmus parse error at line " + std::to_string(at.line);
    if (!at.context.empty())
        msg.append(", test '").append(at.context).append("'");
    msg += ": " + why;
    if (!at.text.empty())
        msg.append(" in '").append(at.text).append("'");
    throw std::runtime_error(msg);
}

int
parseCount(const ParseSite &at, std::string_view s, std::string_view what)
{
    if (s.empty())
        parseFail(at, "missing " + std::string(what));
    for (char c : s) {
        if (c < '0' || c > '9') {
            parseFail(at, "bad " + std::string(what) + " '" +
                              std::string(s) + "' (expected a number)");
        }
    }
    int value = 0;
    if (std::from_chars(s.data(), s.data() + s.size(), value).ec !=
        std::errc()) {
        parseFail(at, "bad " + std::string(what) + " '" + std::string(s) +
                          "' (out of range)");
    }
    return value;
}

bool
LineReader::next(std::string &line)
{
    if (!std::getline(input, line))
        return false;
    line_no++;
    current = line;
    return true;
}

void
LineReader::fail(const std::string &why) const
{
    parseFail(ParseSite{line_no, context, current}, why);
}

void
LineReader::failAt(const SourceLine &at, const std::string &why) const
{
    parseFail(ParseSite{at.number, context, at.text}, why);
}

int
LineReader::parseInt(const SourceLine &at, const std::string &s,
                     const std::string &what) const
{
    return parseCount(ParseSite{at.number, context, at.text}, s, what);
}

} // namespace lts::litmus
