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

namespace lts::litmus
{

/** A line remembered together with its position, for late diagnostics. */
struct SourceLine
{
    int number = 0;
    std::string text;
};

/**
 * Line-oriented input cursor that tracks position and test context so
 * every parse error can say *where* it happened. Parsers that buffer
 * lines for later processing (the interchange format applies deps and
 * the outcome only at 'end') remember them as SourceLine and report
 * through failAt().
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
    void clearContext() { context.clear(); }

    /** Throw a parse error at the current line. */
    [[noreturn]] void fail(const std::string &why) const;

    /** Throw a parse error at a remembered line. */
    [[noreturn]] void failAt(const SourceLine &at,
                             const std::string &why) const;

    /**
     * Parse a non-negative integer out of @p s, failing at @p at with a
     * positioned diagnostic instead of a bare std::stoi exception.
     */
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
