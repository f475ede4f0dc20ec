/**
 * @file
 * A minimal JSON reader for Genie-Scope's cross-run tooling.
 *
 * genie_diff compares genie-stats-1 and sweep-result documents that
 * this repository itself emits, so the parser targets exactly RFC
 * 8259 JSON with two deliberate simplifications:
 *
 *  - numbers are held as double plus the original lexeme (so a diff
 *    can report values verbatim, as written);
 *  - \uXXXX escapes decode the BMP only (our writers never emit
 *    surrogate pairs).
 *
 * Object members keep insertion order — diffs walk both documents in
 * a canonical (sorted) key order regardless, but error messages can
 * point at the member as the file ordered it.
 */

#ifndef GENIE_SCOPE_JSON_HH
#define GENIE_SCOPE_JSON_HH

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/thread_safety.hh"

namespace genie
{

class JsonValue;

/** Members in file order; keys may repeat (last one wins on get()). */
using JsonMembers = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue GENIE_THREAD_LOCAL_OK
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Type type() const { return _type; }
    bool isNull() const { return _type == Type::Null; }
    bool isBool() const { return _type == Type::Bool; }
    bool isNumber() const { return _type == Type::Number; }
    bool isString() const { return _type == Type::String; }
    bool isArray() const { return _type == Type::Array; }
    bool isObject() const { return _type == Type::Object; }

    bool boolean() const { return _bool; }
    double number() const { return _number; }
    /** The number exactly as spelled in the document. */
    const std::string &numberLexeme() const { return _scalar; }
    const std::string &string() const { return _scalar; }

    const std::vector<JsonValue> &array() const { return _array; }
    const JsonMembers &members() const { return _members; }

    /** Member lookup; null if absent or not an object. */
    const JsonValue *get(const std::string &key) const;

    // Construction (used by the parser; handy in tests).
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double v, std::string lexeme);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(JsonMembers members);

  private:
    Type _type = Type::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _scalar; ///< string value, or number lexeme
    std::vector<JsonValue> _array;
    JsonMembers _members;
};

/** Parse result: document or a position-annotated error. */
struct JsonParseResult GENIE_THREAD_LOCAL_OK
{
    bool ok = false;
    JsonValue value;
    std::string error;      ///< empty when ok
    std::size_t errorLine = 0;
    std::size_t errorColumn = 0;
};

/** Parse @p text as one JSON document (trailing junk is an error). */
JsonParseResult parseJson(const std::string &text);

/** Read and parse @p path; IO failures report through the same
 * error channel as syntax errors. */
JsonParseResult parseJsonFile(const std::string &path);

} // namespace genie

#endif // GENIE_SCOPE_JSON_HH
