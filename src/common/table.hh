/**
 * @file
 * ASCII table and CSV emission for benchmark harnesses.
 *
 * Every figure-reproduction bench prints one of these tables; keeping the
 * formatting in one place guarantees all benches share the same layout
 * that EXPERIMENTS.md references.
 */

#ifndef DITILE_COMMON_TABLE_HH
#define DITILE_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace ditile {

/**
 * Column-aligned ASCII table with an optional title, plus CSV export.
 */
class Table
{
  public:
    explicit Table(std::string title = "");

    /** Define the header row. Must be called before addRow(). */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Render as an aligned ASCII table. */
    std::string toString() const;

    /** Render as CSV (header + rows, comma-separated, quoted as needed). */
    std::string toCsv() const;

    /**
     * The CSV header line alone / the data rows alone. toCsv() ==
     * headerCsv() + rowsCsv(); split out so streaming writers can
     * flush the header before any row exists (a partially produced
     * CSV then stays machine-readable even when every point fails).
     */
    std::string headerCsv() const;
    std::string rowsCsv() const;

    /** Convenience: print toString() to stdout. */
    void print() const;

    /** Format helpers for numeric cells. */
    static std::string num(double v, int precision = 2);
    static std::string integer(long long v);
    static std::string percent(double fraction, int precision = 1);
    static std::string sci(double v, int precision = 2);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ditile

#endif // DITILE_COMMON_TABLE_HH
