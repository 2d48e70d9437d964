/**
 * @file
 * Shared parsing infrastructure for the litmus text formats.
 *
 * Both the interchange parser (format.cc) and the herd7 `.litmus` parser
 * (herd.cc) read line-oriented text and want diagnostics that carry the
 * offending line *number* and, when known, the name of the test being
 * parsed — in a multi-test suite file the raw line text alone is useless
 * for locating a problem.
 */

#ifndef LTS_LITMUS_PARSE_UTIL_HH
#define LTS_LITMUS_PARSE_UTIL_HH

#include <iosfwd>
#include <string>
#include <string_view>

namespace lts::litmus
{

/** A line remembered together with its position, for late diagnostics. */
struct SourceLine
{
    int number = 0;
    std::string text;
};

/**
 * Where a diagnostic points: a line number, the test being parsed
 * (empty when none) and the text to quote (empty quotes nothing).
 */
struct ParseSite
{
    int line = 0;
    std::string_view context;
    std::string_view text;
};

/** Throw the std::runtime_error every litmus parser reports with. */
[[noreturn]] void parseFail(const ParseSite &at, const std::string &why);

/**
 * Parse a non-negative decimal integer out of @p s, failing at @p at
 * with a positioned diagnostic instead of a bare std::stoi exception.
 */
int parseCount(const ParseSite &at, std::string_view s,
               std::string_view what);

/**
 * Forward cursor over text held in memory. next() yields each line as a
 * view into that text, split as std::getline splits a stream: without
 * its '\n', and a last line needs none. Nothing is copied, so the text
 * must outlive every view taken from it.
 */
class TextCursor
{
  public:
    explicit TextCursor(std::string_view text) : text(text) {}

    /** Read the next line; false at the end of the text. */
    bool
    next(std::string_view &line)
    {
        if (pos >= text.size())
            return false;
        size_t end = text.find('\n', pos);
        if (end == std::string_view::npos)
            end = text.size();
        line = text.substr(pos, end - pos);
        pos = end + 1;
        line_no++;
        return true;
    }

    /** Lines read so far: the number of the line next() gave last. */
    int lineNumber() const { return line_no; }

  private:
    std::string_view text;
    size_t pos = 0;
    int line_no = 0;
};

/**
 * Line-oriented input cursor over a stream that tracks position and test
 * context so every parse error can say *where* it happened. Parsers
 * that buffer lines for later processing remember them as SourceLine
 * and report through failAt().
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &in) : input(in) {}

    /** Read the next raw line; false at end of input. */
    bool next(std::string &line);

    /** The current line as a SourceLine, for deferred diagnostics. */
    SourceLine here(const std::string &text) const
    {
        return SourceLine{line_no, text};
    }

    /** Name the test under construction (shown in diagnostics). */
    void setContext(const std::string &test_name) { context = test_name; }

    /** Throw a parse error at the current line. */
    [[noreturn]] void fail(const std::string &why) const;

    /** Throw a parse error at a remembered line. */
    [[noreturn]] void failAt(const SourceLine &at,
                             const std::string &why) const;

    /** parseCount() at a remembered line. */
    int parseInt(const SourceLine &at, const std::string &s,
                 const std::string &what) const;

  private:
    std::istream &input;
    int line_no = 0;
    std::string current;
    std::string context;
};

} // namespace lts::litmus

#endif // LTS_LITMUS_PARSE_UTIL_HH
